// Protocol-level tests for the Nemesis channel using a trivial test LMT, so
// the channel machinery is exercised independently of the real backends.
package nemesis

import (
	"testing"
	"testing/quick"

	"knemesis/internal/hw"
	"knemesis/internal/mem"
	"knemesis/internal/sim"
	"knemesis/internal/topo"
	"knemesis/internal/units"
)

// testLMT is a minimal single-copy backend: the receiver copies straight
// from the transfer's source vector (legal in kernel mode).
type testLMT struct{ ch *Channel }

func (l *testLMT) Name() string                                 { return "test" }
func (l *testLMT) Flags() (bool, bool)                          { return false, true }
func (l *testLMT) InitiateSend(p *sim.Proc, t *Transfer) any    { return t.SrcVec }
func (l *testLMT) PrepareCTS(p *sim.Proc, t *Transfer) any      { return nil }
func (l *testLMT) HandleCTS(p *sim.Proc, t *Transfer, info any) {}
func (l *testLMT) Recv(p *sim.Proc, t *Transfer, cookie any) {
	src := cookie.(mem.IOVec)
	mem.OverlayEach(t.DstVec, src, 64*units.KiB, func(pair mem.RegionPair) {
		l.ch.M.CopyRange(p, t.RecvCore(), pair.Dst, pair.Src, hw.CopyOpts{Kernel: true})
	})
}

func newTestChannel(ranks int, cfg Config) *Channel {
	m := hw.New(topo.XeonE5345())
	cfg.LMT = func(ch *Channel) LMT { return &testLMT{ch: ch} }
	cores := m.Topo.AllCores()[:ranks]
	return NewChannelRanks(m, nil, nil, nil, cores, nil, cfg)
}

func TestEagerThresholdClamping(t *testing.T) {
	ch := newTestChannel(2, Config{EagerMax: 10 * CellBytes})
	if ch.Cfg.EagerMax != CellBytes {
		t.Fatalf("EagerMax = %d, want clamped to %d", ch.Cfg.EagerMax, CellBytes)
	}
	ch = newTestChannel(2, Config{})
	if ch.Cfg.EagerMax != DefaultEagerMax {
		t.Fatalf("EagerMax default = %d", ch.Cfg.EagerMax)
	}
}

func TestOrderingMixedEagerRndv(t *testing.T) {
	// A stream alternating eager and rendezvous messages on one (src,tag)
	// pair must arrive in order (MPI non-overtaking).
	ch := newTestChannel(2, Config{})
	ep0, ep1 := ch.Endpoints[0], ch.Endpoints[1]
	const msgs = 12
	sizes := make([]int64, msgs)
	for i := range sizes {
		if i%2 == 0 {
			sizes[i] = 4 * units.KiB // eager
		} else {
			sizes[i] = 128 * units.KiB // rendezvous
		}
	}
	bufs := make([]*mem.Buffer, msgs)
	ch.M.Eng.Spawn("sender", func(p *sim.Proc) {
		for i, n := range sizes {
			b := ep0.Space.Alloc(n)
			b.FillPattern(uint64(i))
			ep0.Send(p, 1, 5, mem.VecOf(b))
		}
	})
	ch.M.Eng.Spawn("receiver", func(p *sim.Proc) {
		for i, n := range sizes {
			bufs[i] = ep1.Space.Alloc(n)
			req := ep1.Recv(p, 0, 5, mem.VecOf(bufs[i]))
			if req.ActualSize != n {
				t.Errorf("message %d: size %d, want %d (out of order?)", i, req.ActualSize, n)
			}
		}
	})
	if err := ch.M.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	for i, b := range bufs {
		want := ep1.Space.Alloc(b.Len())
		want.FillPattern(uint64(i))
		if !mem.EqualBytes(b, want) {
			t.Fatalf("message %d corrupted or reordered", i)
		}
	}
}

func TestCellPoolFlowControl(t *testing.T) {
	// More in-flight eager sends than cells: the sender must block on the
	// pool and everything still delivers (receiver posted late).
	ch := newTestChannel(2, Config{})
	ep0, ep1 := ch.Endpoints[0], ch.Endpoints[1]
	const msgs = 20 // more than CellsPerRank
	got := 0
	ch.M.Eng.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < msgs; i++ {
			b := ep0.Space.Alloc(8 * units.KiB)
			ep0.Send(p, 1, i, mem.VecOf(b))
		}
	})
	ch.M.Eng.Spawn("receiver", func(p *sim.Proc) {
		p.Sleep(50 * sim.Microsecond) // let unexpected staging kick in
		for i := 0; i < msgs; i++ {
			b := ep1.Space.Alloc(8 * units.KiB)
			ep1.Recv(p, 0, i, mem.VecOf(b))
			got++
		}
	})
	if err := ch.M.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got != msgs {
		t.Fatalf("received %d of %d", got, msgs)
	}
	if len(ep0.freeCells) != CellsPerRank {
		t.Fatalf("cells leaked: %d free of %d", len(ep0.freeCells), CellsPerRank)
	}
}

func TestUnexpectedRendezvous(t *testing.T) {
	// RTS arrives before the receive is posted: it parks as unexpected
	// and the late receive pulls the data.
	ch := newTestChannel(2, Config{})
	ep0, ep1 := ch.Endpoints[0], ch.Endpoints[1]
	src := ep0.Space.Alloc(256 * units.KiB)
	src.FillPattern(3)
	dst := ep1.Space.Alloc(256 * units.KiB)
	ch.M.Eng.Spawn("sender", func(p *sim.Proc) {
		ep0.Send(p, 1, 9, mem.VecOf(src))
	})
	ch.M.Eng.Spawn("receiver", func(p *sim.Proc) {
		// Pump the queue so the RTS lands in the unexpected list first.
		p.Sleep(200 * sim.Microsecond)
		for len(ep1.queue) > 0 {
			ep1.pumpOne(p)
		}
		if len(ep1.unexpected) != 1 {
			t.Errorf("unexpected list has %d entries, want 1", len(ep1.unexpected))
		}
		ep1.Recv(p, 0, 9, mem.VecOf(dst))
	})
	if err := ch.M.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !mem.EqualBytes(src, dst) {
		t.Fatal("unexpected rendezvous corrupted payload")
	}
}

func TestZeroByteMessages(t *testing.T) {
	ch := newTestChannel(2, Config{})
	ep0, ep1 := ch.Endpoints[0], ch.Endpoints[1]
	done := false
	ch.M.Eng.Spawn("sender", func(p *sim.Proc) {
		ep0.Send(p, 1, 0, nil)
	})
	ch.M.Eng.Spawn("receiver", func(p *sim.Proc) {
		req := ep1.Recv(p, 0, 0, nil)
		if req.ActualSize != 0 {
			t.Errorf("zero-byte recv size = %d", req.ActualSize)
		}
		done = true
	})
	if err := ch.M.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("zero-byte exchange never completed")
	}
}

func TestInvalidRankPanics(t *testing.T) {
	ch := newTestChannel(2, Config{})
	ep0 := ch.Endpoints[0]
	ch.M.Eng.Spawn("sender", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("send to invalid rank should panic")
			}
		}()
		b := ep0.Space.Alloc(16)
		ep0.Isend(7, 0, mem.VecOf(b))
		p.Sleep(sim.Microsecond)
	})
	_ = ch.M.Eng.Run()
}

// Property: random tag/order schedules with matching receives always
// deliver every message exactly once with correct payloads.
func TestScheduleProperty(t *testing.T) {
	prop := func(tagsRaw [8]uint8, sizesRaw [8]uint16) bool {
		ch := newTestChannel(2, Config{})
		ep0, ep1 := ch.Endpoints[0], ch.Endpoints[1]
		ok := true
		ch.M.Eng.Spawn("sender", func(p *sim.Proc) {
			for i := range tagsRaw {
				n := int64(sizesRaw[i]) + 1
				b := ep0.Space.Alloc(n)
				b.FillPattern(uint64(i))
				ep0.Send(p, 1, int(tagsRaw[i]%4), mem.VecOf(b))
			}
		})
		ch.M.Eng.Spawn("receiver", func(p *sim.Proc) {
			// Receive in reverse tag-class order to force unexpected
			// traffic; within a tag class ordering is preserved.
			perClass := map[int][]int{}
			for i, tag := range tagsRaw {
				perClass[int(tag%4)] = append(perClass[int(tag%4)], i)
			}
			for class := 3; class >= 0; class-- {
				for _, i := range perClass[class] {
					n := int64(sizesRaw[i]) + 1
					b := ep1.Space.Alloc(n)
					ep1.Recv(p, 0, class, mem.VecOf(b))
					want := ep1.Space.Alloc(n)
					want.FillPattern(uint64(i))
					if !mem.EqualBytes(b, want) {
						ok = false
					}
				}
			}
		})
		if err := ch.M.Eng.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
