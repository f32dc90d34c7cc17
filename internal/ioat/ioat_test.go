package ioat

import (
	"testing"

	"knemesis/internal/hw"
	"knemesis/internal/mem"
	"knemesis/internal/sim"
	"knemesis/internal/topo"
	"knemesis/internal/units"
)

// whole is the one descriptor pair copying all of src into dst.
func whole(dst, src *mem.Buffer) []mem.RegionPair {
	return []mem.RegionPair{{Dst: mem.Region{Buf: dst, Len: dst.Len()}, Src: mem.Region{Buf: src, Len: src.Len()}}}
}

func TestEngineCopiesAndSignals(t *testing.T) {
	m := hw.New(topo.XeonE5345())
	e := NewEngine(m)
	src := m.Mem.NewSpace("s").Alloc(1 * units.MiB)
	dst := m.Mem.NewSpace("r").Alloc(1 * units.MiB)
	src.FillPattern(5)
	m.Eng.Spawn("user", func(p *sim.Proc) {
		st := e.Submit(p, 0, whole(dst, src))
		if st.Done() {
			t.Error("status done immediately after submit")
		}
		st.WaitIdle(p)
		if !st.Done() {
			t.Error("status not done after wait")
		}
	})
	if err := m.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !mem.EqualBytes(src, dst) {
		t.Fatal("DMA copy corrupted payload")
	}
	if e.BytesCopied != 1*units.MiB || e.Requests != 1 {
		t.Fatalf("stats: bytes=%d requests=%d", e.BytesCopied, e.Requests)
	}
}

func TestEngineInOrderCompletion(t *testing.T) {
	// Two requests submitted back to back must complete in order — the
	// property the paper's status-write trick relies on (§3.4).
	m := hw.New(topo.XeonE5345())
	e := NewEngine(m)
	sp := m.Mem.NewSpace("s")
	mk := func(n int64) ([]mem.RegionPair, *mem.Buffer, *mem.Buffer) {
		src := sp.Alloc(n)
		dst := sp.Alloc(n)
		src.FillPattern(uint64(n))
		return whole(dst, src), src, dst
	}
	big, _, _ := mk(4 * units.MiB)
	small, ssrc, sdst := mk(4 * units.KiB)
	m.Eng.Spawn("user", func(p *sim.Proc) {
		stBig := e.Submit(p, 0, big)
		stSmall := e.Submit(p, 0, small)
		stSmall.WaitIdle(p)
		// In-order engine: when the later (small) request is done, the
		// earlier (big) one must be done too.
		if !stBig.Done() {
			t.Error("later request completed before earlier one")
		}
		if !mem.EqualBytes(ssrc, sdst) {
			t.Error("small copy corrupted")
		}
	})
	if err := m.Eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestEngineFreesCPU(t *testing.T) {
	// While the DMA engine copies 4 MiB, a compute task on the receiving
	// core must proceed at full speed (the overlap benefit of §3.4).
	m := hw.New(topo.XeonE5345())
	e := NewEngine(m)
	src := m.Mem.NewSpace("s").Alloc(4 * units.MiB)
	dst := m.Mem.NewSpace("r").Alloc(4 * units.MiB)
	var computeDur sim.Time
	m.Eng.Spawn("user", func(p *sim.Proc) {
		st := e.Submit(p, 0, whole(dst, src))
		t0 := p.Now()
		m.Cores[0].Busy(p, 300*sim.Microsecond) // overlapped compute
		computeDur = p.Now() - t0
		st.WaitIdle(p)
	})
	if err := m.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if computeDur > 301*sim.Microsecond {
		t.Fatalf("compute stretched to %v during DMA; engine must not use the CPU", computeDur)
	}
}

func TestSubmitChargesDescriptors(t *testing.T) {
	m := hw.New(topo.XeonE5345())
	e := NewEngine(m)
	src := m.Mem.NewSpace("s").Alloc(256 * units.KiB)
	dst := m.Mem.NewSpace("r").Alloc(256 * units.KiB)
	m.Eng.Spawn("user", func(p *sim.Proc) {
		e.Submit(p, 0, whole(dst, src)).WaitIdle(p)
	})
	if err := m.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	// 256 KiB over 8-page (32 KiB) physical runs: at least 8 descriptors
	// per side overlay, plus the status write.
	if e.Descriptors < 9 {
		t.Fatalf("descriptors = %d, want >= 9", e.Descriptors)
	}
}
