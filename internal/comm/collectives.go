package comm

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Collective algorithms over Peer: every engine builds its Barrier, Bcast,
// Allreduce, Alltoall and Alltoallv from these. They move data only through
// Peer calls — point-to-point plus CopyLocal for a rank's own block — so an
// engine with a memory model (the simulator) charges modelled time for every
// byte, and an engine without one (the real runtime) does plain copies.
//
// Tags live in the negative space so they never collide with user tags
// (which must be >= 0). Every rank must invoke collectives in the same
// order, as MPI requires, so the per-rank sequence counters agree.

// Operation ids for the collective tag space.
const (
	opBarrier = iota
	opBcast
	opReduce
	opAllreduce
	opAlltoall
	opAlltoallv
)

// collTag draws the next tag for one collective operation of kind op.
func collTag(seq *int, op int) int {
	*seq++
	return -(op*1_000_000 + *seq%1_000_000 + 1)
}

// GenericBarrier synchronizes all ranks (dissemination, log2(n) rounds).
func GenericBarrier(p Peer, seq *int) {
	n := p.Size()
	tag := collTag(seq, opBarrier)
	if n == 1 {
		return
	}
	var empty Range
	for k := 1; k < n; k <<= 1 {
		to := (p.Rank() + k) % n
		from := (p.Rank() - k + n) % n
		p.Sendrecv(to, tag, empty, from, tag, empty)
	}
}

// GenericBcast broadcasts root's range to every rank (binomial tree).
func GenericBcast(p Peer, seq *int, root int, r Range) {
	listBcast(p, collTag(seq, opBcast), allRanks(p), root, r)
}

// GenericReduce combines every rank's range into root's (binomial tree).
func GenericReduce(p Peer, seq *int, root int, r Range, op ReduceOp) {
	listReduce(p, collTag(seq, opReduce), allRanks(p), root, r, op)
}

// allRanks lists 0..Size()-1, the rank list of the flat trees.
func allRanks(p Peer) []int {
	list := make([]int, p.Size())
	for i := range list {
		list[i] = i
	}
	return list
}

// GenericAllreduce combines every rank's range with op; all ranks end with
// the result. Recursive doubling for power-of-two sizes, otherwise
// reduce-to-0 plus broadcast.
func GenericAllreduce(p Peer, seq *int, r Range, op ReduceOp) {
	n := p.Size()
	if n == 1 {
		collTag(seq, opAllreduce)
		return
	}
	if n&(n-1) == 0 {
		tag := collTag(seq, opAllreduce)
		tmp := p.Alloc(r.Len)
		for mask := 1; mask < n; mask <<= 1 {
			partner := p.Rank() ^ mask
			p.Sendrecv(partner, tag, r, partner, tag, Whole(tmp))
			op(r.bytes(), tmp.Bytes())
		}
		return
	}
	collTag(seq, opAllreduce)
	GenericReduce(p, seq, 0, r, op)
	GenericBcast(p, seq, 0, r)
}

// GenericAlltoall exchanges equal blocks: send and recv hold Size() blocks
// of block bytes each (pairwise exchange: XOR partners for power-of-two
// rank counts, rotation otherwise — the MPICH large-message algorithm
// behind Figure 7). A 1-rank world and zero-byte blocks degenerate cleanly.
func GenericAlltoall(p Peer, seq *int, send, recv Buf, block int64) {
	n := p.Size()
	if block < 0 {
		panic(fmt.Sprintf("comm: Alltoall negative block size %d", block))
	}
	if send.Len() < block*int64(n) || recv.Len() < block*int64(n) {
		panic(fmt.Sprintf("comm: Alltoall buffers too small for %d x %d", n, block))
	}
	tag := collTag(seq, opAlltoall)
	me := p.Rank()
	p.CopyLocal(R(recv, int64(me)*block, block), R(send, int64(me)*block, block))
	pow2 := n&(n-1) == 0
	for step := 1; step < n; step++ {
		var to, from int
		if pow2 {
			to = me ^ step
			from = to
		} else {
			to = (me + step) % n
			from = (me - step + n) % n
		}
		p.Sendrecv(to, tag, R(send, int64(to)*block, block),
			from, tag, R(recv, int64(from)*block, block))
	}
}

// GenericAlltoallv is the irregular variant: per-partner byte counts and
// offsets, rotation schedule.
func GenericAlltoallv(p Peer, seq *int, send Buf, sendCounts, sendDispls []int64,
	recv Buf, recvCounts, recvDispls []int64) {
	n := p.Size()
	if len(sendCounts) != n || len(recvCounts) != n ||
		len(sendDispls) != n || len(recvDispls) != n {
		panic("comm: Alltoallv count/displ arrays must have Size() entries")
	}
	tag := collTag(seq, opAlltoallv)
	me := p.Rank()
	if sendCounts[me] != recvCounts[me] {
		panic("comm: Alltoallv self counts disagree")
	}
	if cnt := sendCounts[me]; cnt > 0 {
		p.CopyLocal(R(recv, recvDispls[me], cnt), R(send, sendDispls[me], cnt))
	}
	for step := 1; step < n; step++ {
		to := (me + step) % n
		from := (me - step + n) % n
		var sv, rv Range
		if sendCounts[to] > 0 {
			sv = R(send, sendDispls[to], sendCounts[to])
		}
		if recvCounts[from] > 0 {
			rv = R(recv, recvDispls[from], recvCounts[from])
		}
		p.Sendrecv(to, tag, sv, from, tag, rv)
	}
}

// Reduce operations shared by the workloads (elementwise, little-endian).

// SumFloat64 adds float64 elements.
func SumFloat64(dst, src []byte) {
	for i := 0; i+8 <= len(dst); i += 8 {
		d := math.Float64frombits(binary.LittleEndian.Uint64(dst[i:]))
		s := math.Float64frombits(binary.LittleEndian.Uint64(src[i:]))
		binary.LittleEndian.PutUint64(dst[i:], math.Float64bits(d+s))
	}
}

// SumInt64 adds int64 elements.
func SumInt64(dst, src []byte) {
	for i := 0; i+8 <= len(dst); i += 8 {
		d := int64(binary.LittleEndian.Uint64(dst[i:]))
		s := int64(binary.LittleEndian.Uint64(src[i:]))
		binary.LittleEndian.PutUint64(dst[i:], uint64(d+s))
	}
}
