package mpi

import (
	"encoding/binary"
	"testing"
	"testing/quick"

	"knemesis/internal/comm"
	"knemesis/internal/core"
	"knemesis/internal/mem"
	"knemesis/internal/nemesis"
	"knemesis/internal/sim"
	"knemesis/internal/topo"
	"knemesis/internal/units"
)

func newWorld(t *testing.T, ranks int, opt core.Options) *World {
	t.Helper()
	m := topo.XeonE5345()
	cores := m.AllCores()[:ranks]
	return NewWorld(core.NewStack(m, cores, opt, nemesis.Config{}))
}

func putU64s(b *mem.Buffer, vals ...uint64) {
	for i, v := range vals {
		binary.LittleEndian.PutUint64(b.Bytes()[i*8:], v)
	}
}

func getU64(b *mem.Buffer, i int) uint64 {
	return binary.LittleEndian.Uint64(b.Bytes()[i*8:])
}

func TestSendRecvAcrossSizes(t *testing.T) {
	w := newWorld(t, 2, core.Options{Kind: core.KnemLMT})
	sizes := []int64{1, 1024, 64 * units.KiB, 200 * units.KiB}
	if _, err := w.Run(func(c *Comm) {
		for i, size := range sizes {
			if c.Rank() == 0 {
				b := c.Alloc(size)
				b.FillPattern(uint64(i))
				c.Send(1, i, mem.VecOf(b))
			} else {
				b := c.Alloc(size)
				st := c.Recv(0, i, mem.VecOf(b))
				if st.Bytes != size || st.Source != 0 || st.Tag != i {
					t.Errorf("status = %+v for size %d", st, size)
				}
				want := c.Alloc(size)
				want.FillPattern(uint64(i))
				if !mem.EqualBytes(b, want) {
					t.Errorf("payload corrupted at size %d", size)
				}
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestAnySourceAnyTag(t *testing.T) {
	w := newWorld(t, 3, core.Options{Kind: core.DefaultLMT})
	if _, err := w.Run(func(c *Comm) {
		switch c.Rank() {
		case 0:
			got := map[int]bool{}
			for i := 0; i < 2; i++ {
				b := c.Alloc(8)
				st := c.Recv(comm.AnySource, comm.AnyTag, mem.VecOf(b))
				got[st.Source] = true
				if int(getU64(b, 0)) != st.Source {
					t.Errorf("payload %d from source %d", getU64(b, 0), st.Source)
				}
			}
			if !got[1] || !got[2] {
				t.Errorf("sources seen: %v", got)
			}
		default:
			b := c.Alloc(8)
			putU64s(b, uint64(c.Rank()))
			c.Send(0, 42+c.Rank(), mem.VecOf(b))
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	w := newWorld(t, 8, core.Options{Kind: core.DefaultLMT})
	var after [8]sim.Time
	if _, err := w.Run(func(c *Comm) {
		// Rank r sleeps r*10us, then all must leave the barrier at >= 70us.
		c.Proc().Sleep(sim.Time(c.Rank()) * 10 * sim.Microsecond)
		(&simPeer{c: c}).Barrier()
		after[c.Rank()] = c.Now()
	}); err != nil {
		t.Fatal(err)
	}
	for r, ts := range after {
		if ts < 70*sim.Microsecond {
			t.Errorf("rank %d left barrier at %v, before slowest arrival", r, ts)
		}
	}
}

func TestBcastDeliversToAll(t *testing.T) {
	for _, ranks := range []int{2, 5, 8} {
		w := newWorld(t, ranks, core.Options{Kind: core.KnemLMT, IOAT: core.IOATAuto})
		size := int64(128 * units.KiB)
		if _, err := w.Run(func(c *Comm) {
			b := c.Alloc(size)
			if c.Rank() == 3%ranks {
				b.FillPattern(99)
			}
			(&simPeer{c: c}).Bcast(3%ranks, comm.Whole(b))
			want := c.Alloc(size)
			want.FillPattern(99)
			if !mem.EqualBytes(b, want) {
				t.Errorf("ranks=%d rank=%d: bcast payload wrong", ranks, c.Rank())
			}
		}); err != nil {
			t.Fatalf("ranks=%d: %v", ranks, err)
		}
	}
}

func TestAllreduceSum(t *testing.T) {
	for _, ranks := range []int{2, 4, 7, 8} {
		w := newWorld(t, ranks, core.Options{Kind: core.DefaultLMT})
		if _, err := w.Run(func(c *Comm) {
			b := c.Alloc(64)
			for i := 0; i < 8; i++ {
				binary.LittleEndian.PutUint64(b.Bytes()[i*8:], uint64(c.Rank()+i))
			}
			(&simPeer{c: c}).Allreduce(comm.Whole(b), comm.SumInt64)
			n := int64(c.Size())
			base := n * (n - 1) / 2 // sum of ranks
			for i := 0; i < 8; i++ {
				want := base + n*int64(i)
				if got := int64(getU64(b, i)); got != want {
					t.Errorf("ranks=%d elem %d = %d, want %d", ranks, i, got, want)
				}
			}
		}); err != nil {
			t.Fatalf("ranks=%d: %v", ranks, err)
		}
	}
}

func TestAlltoallCorrectness(t *testing.T) {
	for _, ranks := range []int{4, 8} {
		w := newWorld(t, ranks, core.Options{Kind: core.KnemLMT, IOAT: core.IOATAuto})
		block := int64(96 * units.KiB) // above eager threshold: exercises LMT
		if _, err := w.Run(func(c *Comm) {
			n := int64(c.Size())
			send := c.Alloc(block * n)
			recv := c.Alloc(block * n)
			for r := 0; r < c.Size(); r++ {
				send.Slice(int64(r)*block, block).FillPattern(uint64(c.Rank()*100 + r))
			}
			(&simPeer{c: c}).Alltoall(send, recv, block)
			for r := 0; r < c.Size(); r++ {
				want := c.Alloc(block)
				want.FillPattern(uint64(r*100 + c.Rank()))
				if !mem.EqualBytes(recv.Slice(int64(r)*block, block), want) {
					t.Errorf("ranks=%d rank %d: block from %d corrupted", ranks, c.Rank(), r)
				}
			}
		}); err != nil {
			t.Fatalf("ranks=%d: %v", ranks, err)
		}
	}
}

func TestAlltoallvIrregular(t *testing.T) {
	w := newWorld(t, 4, core.Options{Kind: core.KnemLMT})
	if _, err := w.Run(func(c *Comm) {
		n := c.Size()
		// Rank r sends (r+1)*(dst+1) KiB to each dst.
		sendCounts := make([]int64, n)
		sendDispls := make([]int64, n)
		recvCounts := make([]int64, n)
		recvDispls := make([]int64, n)
		var sTot, rTot int64
		for d := 0; d < n; d++ {
			sendDispls[d] = sTot
			sendCounts[d] = int64(c.Rank()+1) * int64(d+1) * units.KiB
			sTot += sendCounts[d]
			recvDispls[d] = rTot
			recvCounts[d] = int64(d+1) * int64(c.Rank()+1) * units.KiB
			rTot += recvCounts[d]
		}
		send := c.Alloc(sTot)
		recv := c.Alloc(rTot)
		for d := 0; d < n; d++ {
			send.Slice(sendDispls[d], sendCounts[d]).FillPattern(uint64(c.Rank()*10 + d))
		}
		(&simPeer{c: c}).Alltoallv(send, sendCounts, sendDispls, recv, recvCounts, recvDispls)
		for s := 0; s < n; s++ {
			want := c.Alloc(recvCounts[s])
			want.FillPattern(uint64(s*10 + c.Rank()))
			if !mem.EqualBytes(recv.Slice(recvDispls[s], recvCounts[s]), want) {
				t.Errorf("rank %d: segment from %d corrupted", c.Rank(), s)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestTypeVectorNoncontiguous(t *testing.T) {
	w := newWorld(t, 2, core.Options{Kind: core.KnemLMT})
	if _, err := w.Run(func(c *Comm) {
		// 16 blocks of 8 KiB every 16 KiB: 128 KiB of payload (rndv path).
		if c.Rank() == 0 {
			buf := c.Alloc(256 * units.KiB)
			buf.FillPattern(7)
			c.Send(1, 0, TypeVector(buf, 16, 8*units.KiB, 16*units.KiB))
		} else {
			flat := c.Alloc(128 * units.KiB)
			c.Recv(0, 0, mem.VecOf(flat))
			src := c.Alloc(256 * units.KiB)
			src.FillPattern(7)
			for i := 0; i < 16; i++ {
				want := src.Slice(int64(i)*16*units.KiB, 8*units.KiB)
				got := flat.Slice(int64(i)*8*units.KiB, 8*units.KiB)
				if !mem.EqualBytes(got, want) {
					t.Errorf("vector block %d corrupted", i)
				}
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// Property: alltoall over random block sizes and backends is always a
// permutation-correct exchange.
func TestAlltoallProperty(t *testing.T) {
	opts := core.StandardOptions()
	prop := func(blockRaw uint32, optRaw uint8) bool {
		block := int64(blockRaw)%(160*units.KiB) + 1
		opt := opts[int(optRaw)%len(opts)]
		w := newWorld(t, 4, opt)
		ok := true
		if _, err := w.Run(func(c *Comm) {
			n := int64(c.Size())
			send := c.Alloc(block * n)
			recv := c.Alloc(block * n)
			for r := 0; r < c.Size(); r++ {
				send.Slice(int64(r)*block, block).FillPattern(uint64(c.Rank())<<16 | uint64(r))
			}
			(&simPeer{c: c}).Alltoall(send, recv, block)
			for r := 0; r < c.Size(); r++ {
				want := c.Alloc(block)
				want.FillPattern(uint64(r)<<16 | uint64(c.Rank()))
				if !mem.EqualBytes(recv.Slice(int64(r)*block, block), want) {
					ok = false
				}
			}
		}); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// Sendrecv must genuinely overlap its two directions: a bidirectional
// 512 KiB exchange (the building block of the Sendrecv/Exchange contention
// benchmarks) has to finish in well under the time of two sequential
// one-way transfers, and both payloads must arrive intact.
func TestSendrecvOverlapsDirections(t *testing.T) {
	size := 512 * units.KiB
	oneWay := func() sim.Time {
		w := newWorld(t, 2, core.Options{Kind: core.KnemLMT})
		elapsed, err := w.Run(func(c *Comm) {
			b := c.Alloc(size)
			if c.Rank() == 0 {
				b.FillPattern(7)
				c.Send(1, 0, mem.VecOf(b))
			} else {
				c.Recv(0, 0, mem.VecOf(b))
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return elapsed
	}()

	w := newWorld(t, 2, core.Options{Kind: core.KnemLMT})
	both, err := w.Run(func(c *Comm) {
		send, recv := c.Alloc(size), c.Alloc(size)
		send.FillPattern(uint64(c.Rank()) + 1)
		peer := 1 - c.Rank()
		st := c.Sendrecv(peer, 3, mem.VecOf(send), peer, 3, mem.VecOf(recv))
		if st.Source != peer || st.Tag != 3 || st.Bytes != size {
			t.Errorf("rank %d: status = %+v", c.Rank(), st)
		}
		want := c.Alloc(size)
		want.FillPattern(uint64(peer) + 1)
		if !mem.EqualBytes(recv, want) {
			t.Errorf("rank %d: payload corrupted", c.Rank())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if both >= 2*oneWay {
		t.Errorf("bidirectional Sendrecv took %v, want < 2x one-way %v (no overlap)", both, oneWay)
	}
}
