package nas

import (
	"encoding/binary"
	"fmt"

	"knemesis/internal/comm"
)

// IS class B parameters (NPB 2.x): 2^25 keys in [0, 2^21), 10 ranking
// iterations. The proxy is a real distributed bucket sort: keys are
// generated deterministically, histogrammed, redistributed with Alltoallv
// (the very large messages the paper highlights — ~2 MiB per rank pair per
// iteration), counting-sorted locally, and globally verified. Because it is
// written against comm.Peer and only touches real (content-addressable)
// buffers, the same sort runs and verifies on every registered engine.
const (
	isTotalKeys = 1 << 25
	isMaxKey    = 1 << 21
	isBuckets   = 1 << 10
	isIters     = 10
)

// IS is is.B.8: the paper's headline benchmark (25.8% speedup with
// KNEM+I/OAT in Table 1).
func IS() Kernel {
	return Kernel{
		Name: "is.B.8", Procs: 8, Iters: isIters, PaperDefaultSec: 2.34,
		WSBytes: (isTotalKeys / 8) * 4,
		Custom:  runIS,
	}
}

// ISSized returns a reduced IS (totalKeys must be a power of two) for tests
// and smoke runs; the calibration target scales with the key volume.
func ISSized(totalKeys, iters, procs int) Kernel {
	return Kernel{
		Name: "is.scaled", Procs: procs, Iters: iters,
		PaperDefaultSec: 2.34 * float64(totalKeys) / float64(isTotalKeys) * float64(iters) / float64(isIters),
		WSBytes:         int64(totalKeys/procs) * 4,
		Custom: func(c comm.Peer, computePerIter comm.Time) error {
			return runISSized(c, computePerIter, totalKeys, iters)
		},
	}
}

// isKeyAt generates the deterministic key stream (per-rank, per-index).
func isKeyAt(rank int, i int) uint32 {
	x := uint64(rank)<<32 ^ uint64(i)*0x9e3779b97f4a7c15 + 0x123456789
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return uint32(x % isMaxKey)
}

// runIS executes the full class-B benchmark on one rank.
func runIS(c comm.Peer, computePerIter comm.Time) error {
	return runISSized(c, computePerIter, isTotalKeys, isIters)
}

// runISSized is the IS implementation for an arbitrary key volume.
func runISSized(c comm.Peer, computePerIter comm.Time, totalKeys, iters int) error {
	n := c.Size()
	localKeys := totalKeys / n
	keyBytes := int64(localKeys) * 4

	keys := c.Alloc(keyBytes)
	for i := 0; i < localKeys; i++ {
		binary.LittleEndian.PutUint32(keys.Bytes()[i*4:], isKeyAt(c.Rank(), i))
	}
	// Redistribution buffers: uniform keys keep skew small; 1.5x margin.
	recvCap := keyBytes * 3 / 2
	recvKeys := c.Alloc(recvCap)
	sendSorted := c.Alloc(keyBytes)

	// Count-exchange buffers: per-destination byte counts (8 B each).
	cntSend := c.Alloc(int64(n) * 8)
	cntRecv := c.Alloc(int64(n) * 8)

	wsRegion := comm.R(keys, 0, keyBytes)
	var received int64

	for iter := 0; iter < iters; iter++ {
		// Ranking compute: histogram passes over the key array. The real
		// histogram happens below (content); the time and cache effects
		// are modelled here.
		c.Compute(computePerIter, wsRegion)

		// Local histogram by destination rank (bucket b belongs to rank
		// b*n/isBuckets) and bucket-major rearrangement of the keys so
		// each destination's keys are contiguous.
		destCount := make([]int64, n)
		kb := keys.Bytes()
		for i := 0; i < localKeys; i++ {
			k := binary.LittleEndian.Uint32(kb[i*4:])
			destCount[destRank(k, n)] += 4
		}
		destOff := make([]int64, n)
		var off int64
		for d := 0; d < n; d++ {
			destOff[d] = off
			off += destCount[d]
		}
		sb := sendSorted.Bytes()
		cursor := append([]int64(nil), destOff...)
		for i := 0; i < localKeys; i++ {
			k := binary.LittleEndian.Uint32(kb[i*4:])
			d := destRank(k, n)
			binary.LittleEndian.PutUint32(sb[cursor[d]:], k)
			cursor[d] += 4
		}

		// Exchange per-destination counts (8-byte blocks, eager path).
		for d := 0; d < n; d++ {
			binary.LittleEndian.PutUint64(cntSend.Bytes()[d*8:], uint64(destCount[d]))
		}
		c.Alltoall(cntSend, cntRecv, 8)

		recvCount := make([]int64, n)
		recvOff := make([]int64, n)
		var total int64
		for s := 0; s < n; s++ {
			recvCount[s] = int64(binary.LittleEndian.Uint64(cntRecv.Bytes()[s*8:]))
			recvOff[s] = total
			total += recvCount[s]
		}
		if total > recvCap {
			return fmt.Errorf("is: rank %d receives %d bytes, over the %d-byte margin",
				c.Rank(), total, recvCap)
		}
		received = total

		// The big one: redistribute the keys themselves (~2 MiB per rank
		// pair per iteration at class B on 8 ranks).
		c.Alltoallv(sendSorted, destCount, destOff, recvKeys, recvCount, recvOff)
	}

	// Final full ranking: counting sort of the received keys, then global
	// order verification against the neighbour ranks.
	lo, hi := rankKeyRange(c.Rank(), n)
	counts := make([]int32, hi-lo)
	rb := recvKeys.Bytes()
	minKey, maxKey := uint32(isMaxKey), uint32(0)
	for i := int64(0); i < received; i += 4 {
		k := binary.LittleEndian.Uint32(rb[i:])
		if k < lo || k >= hi {
			return fmt.Errorf("is: rank %d received key %d outside [%d,%d)", c.Rank(), k, lo, hi)
		}
		counts[k-lo]++
		if k < minKey {
			minKey = k
		}
		if k > maxKey {
			maxKey = k
		}
	}
	// Monotone reconstruction proves sortability; spot-check the counts.
	var reconstructed int64
	for _, cnt := range counts {
		reconstructed += int64(cnt) * 4
	}
	if reconstructed != received {
		return fmt.Errorf("is: rank %d counting sort lost keys (%d != %d)",
			c.Rank(), reconstructed, received)
	}

	// Boundary check: my smallest key must not precede my left neighbour's
	// largest key.
	edge := c.Alloc(8)
	binary.LittleEndian.PutUint32(edge.Bytes(), maxKey)
	binary.LittleEndian.PutUint32(edge.Bytes()[4:], minKey)
	peerEdge := c.Alloc(8)
	if c.Rank()+1 < n {
		c.Send(c.Rank()+1, 900, comm.Whole(edge))
	}
	if c.Rank() > 0 {
		c.Recv(c.Rank()-1, 900, comm.Whole(peerEdge))
		leftMax := binary.LittleEndian.Uint32(peerEdge.Bytes())
		if received > 0 && leftMax > minKey {
			return fmt.Errorf("is: rank %d min key %d below left neighbour max %d",
				c.Rank(), minKey, leftMax)
		}
	}
	return nil
}

// destRank maps a key to the owning rank via its bucket. The owner of
// bucket b is the largest r with r*isBuckets/n <= b — the exact inverse of
// rankKeyRange's floor-division partition, valid for any rank count.
func destRank(k uint32, n int) int {
	b := int(k) * isBuckets / isMaxKey
	return ((b+1)*n - 1) / isBuckets
}

// rankKeyRange returns the half-open key interval owned by a rank.
func rankKeyRange(rank, n int) (lo, hi uint32) {
	// Rank r owns buckets [r*isBuckets/n, (r+1)*isBuckets/n).
	bLo := rank * isBuckets / n
	bHi := (rank + 1) * isBuckets / n
	return uint32(bLo * (isMaxKey / isBuckets)), uint32(bHi * (isMaxKey / isBuckets))
}

// sanity: bucket owner math must agree with rankKeyRange.
var _ = func() int {
	for n := 1; n <= 16; n++ {
		for b := 0; b < isBuckets; b++ {
			k := uint32(b * (isMaxKey / isBuckets))
			r := destRank(k, n)
			lo, hi := rankKeyRange(r, n)
			if k < lo || k >= hi {
				panic("nas: inconsistent IS bucket ownership")
			}
		}
	}
	return 0
}()
