package main

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"time"

	"knemesis/internal/rt"
	"knemesis/internal/units"
)

// rtInstance is a 2-rank blocking ping-pong of size bytes in the default
// (single-copy) mode: rank 0 sends, rank 1 echoes what it received. An op is
// trips round trips. Before an op's last send rank 0 stamps a pattern drawn
// from the seed into its buffer and checks the echo against it, so a lost,
// reordered or miscopied message fails the op.
type rtInstance struct {
	size, trips, ops int
	seed             uint64
	send, recv, echo []byte
	offsets          []int // where an op's pattern is stamped
}

func newRTInstance(size, trips, ops int, seed uint64) *rtInstance {
	in := &rtInstance{size: size, trips: trips, ops: ops, seed: seed,
		send: make([]byte, size), recv: make([]byte, size), echo: make([]byte, size),
		offsets: stampOffsets(size)}
	rand.New(rand.NewSource(int64(seed))).Read(in.send)
	return in
}

// stampWords is how many 8-byte words an op's pattern overwrites: the first
// and last word of the buffer and words spread between them, so every copy
// chunk of a large message carries part of it.
const stampWords = 64

// stamp writes the pattern of (round, op) into buf. Only a few words change
// per op so that checking a 4 MiB message does not cost a memory pass; the
// whole buffer is compared once per round, outside the timed ops.
func (in *rtInstance) stamp(buf []byte, round, op int) {
	v := in.seed*0x9e3779b97f4a7c15 + uint64(round)<<32 + uint64(op)
	for i, off := range in.offsets {
		binary.LittleEndian.PutUint64(buf[off:], v+uint64(i))
	}
}

// stampOffsets spreads up to stampWords word offsets evenly over a buffer of
// size bytes, its first and last word included.
func stampOffsets(size int) []int {
	words := size / 8
	n := min(stampWords, words)
	offs := make([]int, n)
	for i := 1; i < n; i++ {
		offs[i] = 8 * (i * (words - 1) / (n - 1))
	}
	return offs
}

func (in *rtInstance) round(r int, lat []float64, tr *tracer) (float64, int) {
	w := rt.NewWorld(2, rt.Config{})
	failed := 0
	var secs float64
	err := w.Run(func(rk *rt.Rank) {
		if rk.ID() == 1 {
			for i := 0; i < in.ops*in.trips; i++ {
				rk.Recv(0, 0, in.echo)
				rk.Send(0, 0, in.echo)
			}
			return
		}
		start := time.Now()
		for op := 0; op < in.ops; op++ {
			t0 := time.Now()
			root := tr.begin("op", 0, op+1)
			if in.trips > 1 {
				child := tr.begin("round-trips", root, op+1)
				for i := 0; i < in.trips-1; i++ {
					rk.Send(1, 0, in.send)
					rk.Recv(1, 0, in.recv)
				}
				tr.end(child)
			}
			in.stamp(in.send, r, op)
			child := tr.begin("send", root, op+1)
			rk.Send(1, 0, in.send)
			tr.end(child)
			child = tr.begin("recv", root, op+1)
			rk.Recv(1, 0, in.recv)
			tr.end(child)
			ok := in.stampsMatch()
			tr.end(root)
			lat[op] = time.Since(t0).Seconds()
			if !ok {
				failed++
			}
		}
		secs = time.Since(start).Seconds()
	})
	if err != nil || !bytes.Equal(in.send, in.recv) {
		return secs, in.ops
	}
	return secs, failed
}

// stampsMatch compares the stamped words of the echo with what was sent.
func (in *rtInstance) stampsMatch() bool {
	for _, off := range in.offsets {
		if !bytes.Equal(in.send[off:off+8], in.recv[off:off+8]) {
			return false
		}
	}
	return true
}

func (in *rtInstance) close() {}

const (
	rtSmallBytes = 64
	rtSmallTrips = 2000
	rtLargeBytes = int(4 * units.MiB)
)

// newRTSmall measures per-message software overhead with no copy cost: a
// 64 B message rides the fastbox. Normalised by the cache-line bounce probe
// its latency reads as "x the hardware's own round trip". rt-large never
// takes this path.
func newRTSmall() *workload {
	w := &workload{
		name:     "rt-small",
		why:      "2-rank blocking 64 B ping-pong on the real runtime (fastbox path): per-message software overhead with no copy cost; rt-large bypasses this path",
		ops:      120,
		rate:     3.0,
		newProbe: func(string) (*probe, error) { return newRTSmallProbe(), nil },
	}
	w.setup = func(env *runEnv) (instance, error) {
		return newRTInstance(rtSmallBytes, rtSmallTrips, w.ops, env.seed), nil
	}
	return w
}

// newRTLarge is the paper's headline regime: a 4 MiB message is copy-bound
// (chunked rendezvous, the sender helping with the copy), the handshake is
// negligible and the fastbox never fires. The buffers exceed the host's
// 2 MiB private L2 but sit in its shared L3, so this is cache-to-cache
// bandwidth, not DRAM bandwidth; bytes moved are computed, not counted.
func newRTLarge() *workload {
	w := &workload{
		name:     "rt-large",
		why:      "2-rank 4 MiB ping-pong in single-copy mode (chunked rendezvous): the paper's copy-bound headline regime; the fastbox never fires",
		ops:      120,
		rate:     6.0,
		newProbe: func(string) (*probe, error) { return newRTLargeProbe(), nil },
	}
	w.setup = func(env *runEnv) (instance, error) {
		return newRTInstance(rtLargeBytes, 1, w.ops, env.seed), nil
	}
	return w
}
