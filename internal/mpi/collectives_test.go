package mpi

import (
	"testing"

	"knemesis/internal/comm"
	"knemesis/internal/core"
	"knemesis/internal/nemesis"
	"knemesis/internal/units"
)

// The §6 hint must ride both exchanges of the sim adapter. At 256 KiB per
// pair on 8 ranks the plain IOATAuto threshold keeps every copy on the CPU;
// the hint divides it by the 7 concurrent transfers, so I/OAT moves the
// bytes — for Alltoallv exactly as for Alltoall — and the hint is withdrawn
// once every rank has returned.
func TestCollectiveHintOnBothExchanges(t *testing.T) {
	const ranks = 8
	block := 256 * units.KiB
	exchanges := map[string]func(p *simPeer, send, recv comm.Buf){
		"alltoall": func(p *simPeer, send, recv comm.Buf) { p.Alltoall(send, recv, block) },
		"alltoallv": func(p *simPeer, send, recv comm.Buf) {
			counts, displs := uniformCounts(ranks, block)
			p.Alltoallv(send, counts, displs, recv, counts, displs)
		},
	}
	offloaded := func(name string, aware bool) int64 {
		j := newJob(t, ranks, core.Options{Kind: core.KnemLMT, IOAT: core.IOATAuto, CollectiveAware: aware})
		if _, err := runRanks(j, func(c *simPeer) {
			send, recv := c.AllocBench(ranks*block), c.AllocBench(ranks*block)
			exchanges[name](c, send, recv)
		}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if h := j.stack.Ch.CollectiveHint(); h != 0 {
			t.Errorf("%s: collective hint %d after every rank returned, want 0", name, h)
		}
		return j.stack.DMA.BytesCopied
	}

	if got := offloaded("alltoall", false); got != 0 {
		t.Fatalf("unhinted alltoall offloaded %d bytes; 256 KiB no longer isolates the hint", got)
	}
	want := offloaded("alltoall", true)
	if want == 0 {
		t.Fatal("hinted alltoall moved no bytes through I/OAT")
	}
	if got := offloaded("alltoallv", true); got != want {
		t.Errorf("hinted alltoallv moved %d bytes through I/OAT, alltoall %d", got, want)
	}
}

// uniformCounts gives an Alltoallv block bytes per partner, packed in rank
// order.
func uniformCounts(n int, block int64) (counts, displs []int64) {
	counts, displs = make([]int64, n), make([]int64, n)
	for i := range counts {
		counts[i], displs[i] = block, int64(i)*block
	}
	return counts, displs
}

// tagProbe is a Peer that records the tag of every point-to-point call and
// completes it at once, so the collective algorithms can be driven rank by
// rank outside any engine. Ranks sit two per node.
type tagProbe struct {
	comm.Peer // unset: any call the probe does not record panics
	rank      int
	size      int
	tags      []int
}

type probeBuf []byte

func (b probeBuf) Len() int64    { return int64(len(b)) }
func (b probeBuf) Bytes() []byte { return b }

func (p *tagProbe) Rank() int                     { return p.rank }
func (p *tagProbe) Size() int                     { return p.size }
func (p *tagProbe) NodeOf(rank int) int           { return rank / 2 }
func (p *tagProbe) Alloc(n int64) comm.Buf        { return make(probeBuf, n) }
func (p *tagProbe) CopyLocal(dst, src comm.Range) {}
func (p *tagProbe) Send(dst, tag int, r comm.Range) {
	p.tags = append(p.tags, tag)
}
func (p *tagProbe) Recv(src, tag int, r comm.Range) comm.Status {
	p.tags = append(p.tags, tag)
	return comm.Status{}
}
func (p *tagProbe) Sendrecv(dst, sendTag int, s comm.Range, src, recvTag int, rv comm.Range) comm.Status {
	p.tags = append(p.tags, sendTag, recvTag)
	return comm.Status{}
}

// The sim adapter passes wildcards and tags to the channel untranslated, so
// the channel's wildcards must be comm's, and every collective tag — each
// flat operation and each hierarchical phase, across the sequence counter's
// wrap — must stay below the user range and off the AnyTag wildcard.
func TestCollectiveTagsClearUserSpace(t *testing.T) {
	if nemesis.AnySource != comm.AnySource || nemesis.AnyTag != comm.AnyTag {
		t.Fatalf("channel wildcards (%d, %d) differ from comm's (%d, %d)",
			nemesis.AnySource, nemesis.AnyTag, comm.AnySource, comm.AnyTag)
	}
	const block = 8
	ops := map[string]func(p comm.Peer, seq *int){
		"barrier": func(p comm.Peer, seq *int) { comm.GenericBarrier(p, seq) },
		"bcast": func(p comm.Peer, seq *int) {
			comm.GenericBcast(p, seq, 1, comm.Whole(p.Alloc(block)))
		},
		"reduce": func(p comm.Peer, seq *int) {
			comm.GenericReduce(p, seq, 1, comm.Whole(p.Alloc(block)), comm.SumInt64)
		},
		"allreduce": func(p comm.Peer, seq *int) {
			comm.GenericAllreduce(p, seq, comm.Whole(p.Alloc(block)), comm.SumInt64)
		},
		"alltoall": func(p comm.Peer, seq *int) {
			n := int64(p.Size())
			comm.GenericAlltoall(p, seq, p.Alloc(n*block), p.Alloc(n*block), block)
		},
		"alltoallv": func(p comm.Peer, seq *int) {
			n := p.Size()
			counts, displs := uniformCounts(n, block)
			comm.GenericAlltoallv(p, seq, p.Alloc(int64(n)*block), counts, displs,
				p.Alloc(int64(n)*block), counts, displs)
		},
		"hier-bcast": func(p comm.Peer, seq *int) {
			comm.HierBcast(p, seq, 1, comm.Whole(p.Alloc(block)))
		},
		"hier-allreduce": func(p comm.Peer, seq *int) {
			comm.HierAllreduce(p, seq, comm.Whole(p.Alloc(block)), comm.SumInt64)
		},
		"hier-alltoall": func(p comm.Peer, seq *int) {
			n := int64(p.Size())
			comm.HierAlltoall(p, seq, p.Alloc(n*block), p.Alloc(n*block), block)
		},
	}
	for name, op := range ops {
		seen := 0
		// 3 ranks take the non-power-of-two paths, 4 the power-of-two ones;
		// the start values straddle the counter's wrap at 1_000_000.
		for _, size := range []int{3, 4} {
			for _, start := range []int{0, 999_997, 999_999} {
				for rank := 0; rank < size; rank++ {
					p := &tagProbe{rank: rank, size: size}
					seq := start
					op(p, &seq)
					for _, tag := range p.tags {
						if tag >= 0 || tag == comm.AnyTag {
							t.Errorf("%s (size %d, seq %d): collective tag %d", name, size, start, tag)
						}
					}
					seen += len(p.tags)
				}
			}
		}
		if seen == 0 {
			t.Errorf("%s sent no messages; its tags went unchecked", name)
		}
	}
}
