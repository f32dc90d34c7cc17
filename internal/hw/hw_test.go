package hw

import (
	"testing"
	"testing/quick"

	"knemesis/internal/mem"
	"knemesis/internal/sim"
	"knemesis/internal/topo"
	"knemesis/internal/units"
)

func newMachine() *Machine { return New(topo.XeonE5345()) }

func TestCopyRangeMovesBytes(t *testing.T) {
	m := newMachine()
	sp := m.Mem.NewSpace("p0")
	src := sp.Alloc(64 * units.KiB)
	dst := sp.Alloc(64 * units.KiB)
	src.FillPattern(1)
	m.Eng.Spawn("copier", func(p *sim.Proc) {
		m.CopyRange(p, 0, mem.Region{Buf: dst, Off: 0, Len: dst.Len()},
			mem.Region{Buf: src, Off: 0, Len: src.Len()}, CopyOpts{})
	})
	if err := m.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !mem.EqualBytes(src, dst) {
		t.Fatal("payload not copied")
	}
	if m.Eng.Now() == 0 {
		t.Fatal("copy took zero simulated time")
	}
}

func TestColdCopySlowerThanWarm(t *testing.T) {
	m := newMachine()
	sp := m.Mem.NewSpace("p0")
	src := sp.Alloc(256 * units.KiB)
	dst := sp.Alloc(256 * units.KiB)
	reg := func(b *mem.Buffer) mem.Region { return mem.Region{Buf: b, Off: 0, Len: b.Len()} }

	var cold, warm sim.Time
	m.Eng.Spawn("copier", func(p *sim.Proc) {
		t0 := p.Now()
		m.CopyRange(p, 0, reg(dst), reg(src), CopyOpts{})
		cold = p.Now() - t0
		t0 = p.Now()
		m.CopyRange(p, 0, reg(dst), reg(src), CopyOpts{})
		warm = p.Now() - t0
	})
	if err := m.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if warm >= cold {
		t.Fatalf("warm copy (%v) not faster than cold (%v)", warm, cold)
	}
	// Warm 256KiB fits in the 4MiB L2: should approach the cached rate.
	rate := float64(256*units.KiB) / warm.Seconds()
	if rate < 0.7*m.Params().CPUCopyCachedBps {
		t.Fatalf("warm rate %.2g below cached-rate ballpark", rate)
	}
}

func TestSharedCacheHandoffFasterThanCross(t *testing.T) {
	// Producer on core 0 writes a buffer; consumer reads it from core 1
	// (shares L2) vs core 2 (different die). The shared-cache read must be
	// much faster — the effect underlying Figures 3-5.
	read := func(consumer topo.CoreID) sim.Time {
		m := newMachine()
		sp := m.Mem.NewSharedSpace("shm")
		buf := sp.Alloc(512 * units.KiB)
		scratch := sp.Alloc(512 * units.KiB)
		var dur sim.Time
		m.Eng.Spawn("producer", func(p *sim.Proc) {
			m.TouchRange(p, 0, buf.Addr(), buf.Len(), true, false)
		})
		m.Eng.Spawn("consumer", func(p *sim.Proc) {
			p.Sleep(sim.Millisecond) // after producer
			t0 := p.Now()
			m.CopyRange(p, consumer, mem.Region{Buf: scratch, Off: 0, Len: scratch.Len()},
				mem.Region{Buf: buf, Off: 0, Len: buf.Len()}, CopyOpts{})
			dur = p.Now() - t0
		})
		if err := m.Eng.Run(); err != nil {
			t.Fatal(err)
		}
		return dur
	}
	shared := read(1)
	cross := read(2)
	if float64(cross) < 1.3*float64(shared) {
		t.Fatalf("cross-die read (%v) should be well above shared-cache read (%v)", cross, shared)
	}
}

func TestDirtyTransferCostsExtraBus(t *testing.T) {
	m := newMachine()
	sp := m.Mem.NewSharedSpace("shm")
	buf := sp.Alloc(64 * units.KiB)
	var crossTr Traffic
	m.Eng.Spawn("p", func(p *sim.Proc) {
		m.TouchRange(p, 0, buf.Addr(), buf.Len(), true, false) // dirty in L2.0
		crossTr = m.TouchRange(p, 2, buf.Addr(), buf.Len(), false, false)
	})
	if err := m.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	// Reading dirty remote lines costs DirtyTransferFactor x fill bytes.
	wantMin := int64(float64(buf.Len()) * m.Params().DirtyTransferFactor)
	if crossTr.BusBytes < wantMin {
		t.Fatalf("dirty cross read bus bytes = %d, want >= %d", crossTr.BusBytes, wantMin)
	}
}

func TestUserCrossSpaceCopyPanics(t *testing.T) {
	m := newMachine()
	a := m.Mem.NewSpace("p0").Alloc(4096)
	b := m.Mem.NewSpace("p1").Alloc(4096)
	m.Eng.Spawn("p", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("user-mode cross-space copy should panic")
			}
		}()
		m.CopyRange(p, 0, mem.Region{Buf: a, Off: 0, Len: 4096},
			mem.Region{Buf: b, Off: 0, Len: 4096}, CopyOpts{})
	})
	if err := m.Eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestKernelCrossSpaceCopyAllowed(t *testing.T) {
	m := newMachine()
	a := m.Mem.NewSpace("p0").Alloc(4096)
	b := m.Mem.NewSpace("p1").Alloc(4096)
	b.FillPattern(3)
	m.Eng.Spawn("p", func(p *sim.Proc) {
		m.CopyRange(p, 0, mem.Region{Buf: a, Off: 0, Len: 4096},
			mem.Region{Buf: b, Off: 0, Len: 4096}, CopyOpts{Kernel: true})
	})
	if err := m.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !mem.EqualBytes(a, b) {
		t.Fatal("kernel copy did not move bytes")
	}
}

func TestDMAWalksPreserveCorrectness(t *testing.T) {
	m := newMachine()
	sp := m.Mem.NewSharedSpace("shm")
	buf := sp.Alloc(64 * units.KiB)
	m.Eng.Spawn("p", func(p *sim.Proc) {
		m.TouchRange(p, 0, buf.Addr(), buf.Len(), true, false)
		// Dirty data must be written back before a DMA read...
		wb := m.DMASnoopSource(buf.Addr(), buf.Len())
		if wb < buf.Len() {
			t.Errorf("snoop writeback bytes = %d, want >= %d", wb, buf.Len())
		}
		// ...and a second snoop finds everything clean.
		if wb2 := m.DMASnoopSource(buf.Addr(), buf.Len()); wb2 != 0 {
			t.Errorf("second snoop wrote back %d bytes, want 0", wb2)
		}
		// A DMA write invalidates cached copies entirely.
		m.DMAInvalidateDest(buf.Addr(), buf.Len())
		if res := m.L2OfCore(0).ResidentBytes(buf.Addr(), buf.Len()); res != 0 {
			t.Errorf("%d bytes still cached after DMA invalidate", res)
		}
	})
	if err := m.Eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestControlTransferLatencies(t *testing.T) {
	m := newMachine()
	var sharedT, crossT sim.Time
	m.Eng.Spawn("p", func(p *sim.Proc) {
		t0 := p.Now()
		m.ControlTransfer(p, 0, 1, 1)
		sharedT = p.Now() - t0
		t0 = p.Now()
		m.ControlTransfer(p, 0, 2, 1)
		crossT = p.Now() - t0
	})
	if err := m.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if sharedT != m.Params().SharedHitLatency {
		t.Fatalf("shared control latency = %v, want %v", sharedT, m.Params().SharedHitLatency)
	}
	if crossT < m.Params().MemLatency {
		t.Fatalf("cross control latency = %v, want >= %v", crossT, m.Params().MemLatency)
	}
}

func TestKernelThreadCompetesForCore(t *testing.T) {
	// Two contexts consuming CPU on one core take twice as long as one —
	// the effect that makes the non-I/OAT async KNEM mode slow (Fig. 6).
	m := newMachine()
	var aloneEnd, sharedEnd sim.Time
	m.Eng.Spawn("alone", func(p *sim.Proc) {
		m.Cores[3].Busy(p, sim.Millisecond)
		aloneEnd = p.Now()
	})
	for i := 0; i < 2; i++ {
		m.Eng.Spawn("sharer", func(p *sim.Proc) {
			m.Cores[0].Busy(p, sim.Millisecond)
			if p.Now() > sharedEnd {
				sharedEnd = p.Now()
			}
		})
	}
	if err := m.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if aloneEnd < sim.Millisecond || aloneEnd > sim.Millisecond+sim.Nanosecond {
		t.Fatalf("solo busy took %v, want ~1ms", aloneEnd)
	}
	if sharedEnd < 19*sim.Millisecond/10 {
		t.Fatalf("two sharers took %v, want ~2ms", sharedEnd)
	}
}

func TestComputeReloadAfterPollution(t *testing.T) {
	// A working set that fits in L2 computes fast when warm; after another
	// core's communication evicts it, the next compute phase pays reloads.
	m := newMachine()
	sp := m.Mem.NewSpace("app")
	ws := sp.Alloc(2 * units.MiB)
	pollute := m.Mem.NewSharedSpace("shm").Alloc(8 * units.MiB)
	var warm, polluted sim.Time
	m.Eng.Spawn("app", func(p *sim.Proc) {
		wsr := mem.Region{Buf: ws, Off: 0, Len: ws.Len()}
		m.Compute(p, 0, sim.Microsecond, wsr) // cold load
		t0 := p.Now()
		m.Compute(p, 0, sim.Microsecond, wsr)
		warm = p.Now() - t0
		// Pollute core 0's L2 by streaming a large buffer through it.
		m.TouchRange(p, 0, pollute.Addr(), pollute.Len(), false, false)
		t0 = p.Now()
		m.Compute(p, 0, sim.Microsecond, wsr)
		polluted = p.Now() - t0
	})
	if err := m.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if float64(polluted) < 1.5*float64(warm) {
		t.Fatalf("polluted compute (%v) should be much slower than warm (%v)", polluted, warm)
	}
}

// Property: CopyRange conserves traffic — bus bytes are at least the missed
// bytes and payload always arrives intact, for random sizes and cores.
func TestCopyTrafficConservationProperty(t *testing.T) {
	prop := func(sizeRaw uint32, coreRaw uint8) bool {
		m := newMachine()
		core := topo.CoreID(coreRaw % 8)
		n := int64(sizeRaw%(512*1024)) + 1
		sp := m.Mem.NewSpace("p")
		src := sp.Alloc(n)
		dst := sp.Alloc(n)
		src.FillPattern(uint64(sizeRaw))
		ok := true
		m.Eng.Spawn("p", func(p *sim.Proc) {
			tr := m.CopyRange(p, core, mem.Region{Buf: dst, Off: 0, Len: n},
				mem.Region{Buf: src, Off: 0, Len: n}, CopyOpts{})
			if tr.BusBytes < tr.SrcMissBytes || tr.Bytes != n || tr.CPUSeconds <= 0 {
				ok = false
			}
		})
		if err := m.Eng.Run(); err != nil {
			return false
		}
		return ok && mem.EqualBytes(src, dst)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestL2MissLinesReporting(t *testing.T) {
	m := newMachine()
	sp := m.Mem.NewSpace("p")
	buf := sp.Alloc(1 * units.MiB)
	m.Eng.Spawn("p", func(p *sim.Proc) {
		m.TouchRange(p, 0, buf.Addr(), buf.Len(), false, false)
	})
	if err := m.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	// 1 MiB of cold misses = 16384 64-byte lines regardless of block size.
	if got := m.L2MissLines(); got != (1*units.MiB)/64 {
		t.Fatalf("L2MissLines = %d, want %d", got, (1*units.MiB)/64)
	}
}

// A timed copy in steady state (directory pages made, caches warm or
// evicting, the bus flow and the fluids' completion events recycled)
// allocates nothing.
func TestTimedCopyRangeSteadyStateDoesNotAllocate(t *testing.T) {
	m := newMachine()
	const size = 256 * units.KiB
	src := m.Mem.NewSpace("src").AllocPhantom(size)
	dst := m.Mem.NewSharedSpace("dst").AllocPhantom(size)
	var allocs float64
	m.Eng.Spawn("p", func(p *sim.Proc) {
		allocs = testing.AllocsPerRun(50, func() {
			m.CopyRange(p, 0, mem.Region{Buf: dst, Len: size}, mem.Region{Buf: src, Len: size}, CopyOpts{})
		})
	})
	if err := m.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("a steady-state timed CopyRange allocates %.1f objects", allocs)
	}
}

// An untimed copy of two 6 MiB ranges through a 4 MiB L2 evicts on almost
// every block, and its victims hop between the directory pages of both
// ranges: the walk's victim page changes hands without allocating.
func TestUntimedCopyRangeEvictingAcrossPagesDoesNotAllocate(t *testing.T) {
	m := newMachine()
	const size = 6 * units.MiB
	src := m.Mem.NewSpace("src").AllocPhantom(size)
	dst := m.Mem.NewSharedSpace("dst").AllocPhantom(size)
	allocs := testing.AllocsPerRun(5, func() {
		m.CopyRange(nil, 0, mem.Region{Buf: dst, Len: size}, mem.Region{Buf: src, Len: size}, CopyOpts{NoTime: true})
	})
	if allocs != 0 {
		t.Fatalf("an evicting untimed CopyRange allocates %.1f objects", allocs)
	}
	if ev := m.L2s[0].Stats().WriteBackBytes; ev == 0 {
		t.Fatal("the copies evicted no dirty block")
	}
}

// An L2 makes its way arrays on its first fill: a ping-pong between the two
// cores of one die fills one L2, one between dies fills two, and the other
// L2s of the E5345 cost nothing.
func TestOnlyFilledL2sMakeWayArrays(t *testing.T) {
	for _, c := range []struct {
		peer topo.CoreID
		want int
	}{{peer: 1, want: 1}, {peer: 2, want: 2}} {
		m := newMachine()
		shm := m.Mem.NewSharedSpace("shm").Alloc(256 * units.KiB)
		buf := m.Mem.NewSpace("peer").Alloc(256 * units.KiB)
		m.TouchRange(nil, 0, shm.Addr(), shm.Len(), true, true)
		m.CopyRange(nil, c.peer, mem.Region{Buf: buf, Len: buf.Len()}, mem.Region{Buf: shm, Len: shm.Len()},
			CopyOpts{NoTime: true})
		got := 0
		for _, l2 := range m.L2s {
			if hasWayArrays(l2) {
				got++
			}
		}
		if got != c.want {
			t.Fatalf("core 0 to core %d: %d of %d L2s made way arrays, want %d", c.peer, got, len(m.L2s), c.want)
		}
	}
}
