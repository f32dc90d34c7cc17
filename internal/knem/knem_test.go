package knem

import (
	"testing"
	"testing/quick"

	"knemesis/internal/hw"
	"knemesis/internal/ioat"
	"knemesis/internal/kernel"
	"knemesis/internal/mem"
	"knemesis/internal/sim"
	"knemesis/internal/topo"
	"knemesis/internal/units"
)

type rig struct {
	os  *kernel.OS
	dma *ioat.Engine
	k   *Module
}

func newRig() *rig {
	m := hw.New(topo.XeonE5345())
	os := kernel.New(m)
	dma := ioat.NewEngine(m)
	return &rig{os: os, dma: dma, k: Load(os, dma)}
}

func (r *rig) transfer(t *testing.T, size int64, md Mode, senderCore, recvCore topo.CoreID) sim.Time {
	t.Helper()
	src := r.os.M.Mem.NewSpace("s").Alloc(size)
	dst := r.os.M.Mem.NewSpace("r").Alloc(size)
	src.FillPattern(uint64(size) + uint64(md))

	cookieCh := sim.NewMailbox[Cookie](r.os.M.Eng, "cookie")
	r.os.M.Eng.Spawn("sender", func(p *sim.Proc) {
		cookieCh.Put(r.k.SendCmd(p, senderCore, mem.VecOf(src)))
	})
	var dur sim.Time
	r.os.M.Eng.Spawn("receiver", func(p *sim.Proc) {
		c := cookieCh.Get(p)
		t0 := p.Now()
		st := r.k.RecvCmd(p, recvCore, c, mem.VecOf(dst), md)
		st.WaitIdle(p)
		dur = p.Now() - t0
	})
	if err := r.os.M.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !mem.EqualBytes(src, dst) {
		t.Fatalf("mode %v corrupted payload", md)
	}
	if r.k.Cookies() != 0 {
		t.Fatalf("mode %v leaked %d cookies", md, r.k.Cookies())
	}
	return dur
}

func TestAllModesDeliverPayload(t *testing.T) {
	for _, md := range []Mode{SyncCopy, SyncIOAT, AsyncKThread, AsyncIOAT} {
		newRig().transfer(t, 1*units.MiB, md, 0, 2)
	}
}

func TestVectorialTransfer(t *testing.T) {
	// KNEM supports vectorial buffers (unlike LIMIC2, §5): send a buffer
	// described as three regions into a differently split destination.
	r := newRig()
	src := r.os.M.Mem.NewSpace("s").Alloc(100 * units.KiB)
	dst := r.os.M.Mem.NewSpace("r").Alloc(100 * units.KiB)
	src.FillPattern(77)
	sv := mem.IOVec{
		{Buf: src, Off: 0, Len: 10 * units.KiB},
		{Buf: src, Off: 10 * units.KiB, Len: 50 * units.KiB},
		{Buf: src, Off: 60 * units.KiB, Len: 40 * units.KiB},
	}
	dv := mem.IOVec{
		{Buf: dst, Off: 0, Len: 64 * units.KiB},
		{Buf: dst, Off: 64 * units.KiB, Len: 36 * units.KiB},
	}
	cookieCh := sim.NewMailbox[Cookie](r.os.M.Eng, "cookie")
	r.os.M.Eng.Spawn("sender", func(p *sim.Proc) {
		cookieCh.Put(r.k.SendCmd(p, 0, sv))
	})
	r.os.M.Eng.Spawn("receiver", func(p *sim.Proc) {
		r.k.RecvCmd(p, 2, cookieCh.Get(p), dv, SyncCopy).WaitIdle(p)
	})
	if err := r.os.M.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !mem.EqualBytes(src, dst) {
		t.Fatal("vectorial transfer corrupted payload")
	}
}

func TestIOATFasterForHugeCrossDieMessages(t *testing.T) {
	// At 4 MiB across dies the DMA engine beats the CPU copy (Fig. 5).
	sync := newRig().transfer(t, 4*units.MiB, SyncCopy, 0, 2)
	dma := newRig().transfer(t, 4*units.MiB, SyncIOAT, 0, 2)
	if dma >= sync {
		t.Fatalf("4MiB: I/OAT (%v) should beat CPU copy (%v)", dma, sync)
	}
}

func TestCPUCopyFasterForSmallMessages(t *testing.T) {
	// At 64 KiB the per-descriptor submission overhead makes I/OAT lose.
	sync := newRig().transfer(t, 64*units.KiB, SyncCopy, 0, 2)
	dma := newRig().transfer(t, 64*units.KiB, SyncIOAT, 0, 2)
	if sync >= dma {
		t.Fatalf("64KiB: CPU copy (%v) should beat I/OAT (%v)", sync, dma)
	}
}

func TestIOATDoesNotPolluteCache(t *testing.T) {
	size := int64(2 * units.MiB)
	missesWith := func(md Mode) int64 {
		r := newRig()
		src := r.os.M.Mem.NewSpace("s").Alloc(size)
		dst := r.os.M.Mem.NewSpace("r").Alloc(size)
		ws := r.os.M.Mem.NewSpace("r").Alloc(1 * units.MiB)
		var wsMisses int64
		cookieCh := sim.NewMailbox[Cookie](r.os.M.Eng, "cookie")
		r.os.M.Eng.Spawn("sender", func(p *sim.Proc) {
			cookieCh.Put(r.k.SendCmd(p, 0, mem.VecOf(src)))
		})
		r.os.M.Eng.Spawn("receiver", func(p *sim.Proc) {
			// Warm the application working set on core 2.
			r.os.M.Compute(p, 2, 0, mem.VecOf(ws)...)
			r.k.RecvCmd(p, 2, cookieCh.Get(p), mem.VecOf(dst), md).WaitIdle(p)
			// Re-read the working set: misses reveal pollution.
			tr := r.os.M.Compute(p, 2, 0, mem.VecOf(ws)...)
			wsMisses = tr.SrcMissBytes + tr.DstMissBytes
		})
		if err := r.os.M.Eng.Run(); err != nil {
			t.Fatal(err)
		}
		return wsMisses
	}
	cpu := missesWith(SyncCopy)
	dma := missesWith(SyncIOAT)
	if dma >= cpu {
		t.Fatalf("working-set misses: ioat=%d should be below cpu-copy=%d", dma, cpu)
	}
	if dma != 0 {
		t.Fatalf("I/OAT transfer polluted the cache: %d working-set miss bytes", dma)
	}
}

func TestRecvUnknownCookiePanics(t *testing.T) {
	r := newRig()
	dst := r.os.M.Mem.NewSpace("r").Alloc(4096)
	r.os.M.Eng.Spawn("receiver", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("unknown cookie should panic")
			}
		}()
		r.k.RecvCmd(p, 0, Cookie(999), mem.VecOf(dst), SyncCopy)
	})
	if err := r.os.M.Eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	r := newRig()
	src := r.os.M.Mem.NewSpace("s").Alloc(8192)
	dst := r.os.M.Mem.NewSpace("r").Alloc(4096)
	r.os.M.Eng.Spawn("p", func(p *sim.Proc) {
		c := r.k.SendCmd(p, 0, mem.VecOf(src))
		defer func() {
			if recover() == nil {
				t.Error("length mismatch should panic")
			}
		}()
		r.k.RecvCmd(p, 1, c, mem.VecOf(dst), SyncCopy)
	})
	if err := r.os.M.Eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// Property: every mode delivers arbitrary payload sizes intact, with all
// cookies retired, across random core placements.
func TestTransferIntegrityProperty(t *testing.T) {
	prop := func(sizeRaw uint32, modeRaw, coreRaw uint8) bool {
		size := int64(sizeRaw%(1<<21)) + 1
		md := Mode(modeRaw % 4)
		sc := topo.CoreID(coreRaw % 8)
		rc := topo.CoreID((coreRaw / 8) % 8)
		r := newRig()
		src := r.os.M.Mem.NewSpace("s").Alloc(size)
		dst := r.os.M.Mem.NewSpace("r").Alloc(size)
		src.FillPattern(uint64(sizeRaw))
		cookieCh := sim.NewMailbox[Cookie](r.os.M.Eng, "cookie")
		r.os.M.Eng.Spawn("sender", func(p *sim.Proc) {
			cookieCh.Put(r.k.SendCmd(p, sc, mem.VecOf(src)))
		})
		r.os.M.Eng.Spawn("receiver", func(p *sim.Proc) {
			r.k.RecvCmd(p, rc, cookieCh.Get(p), mem.VecOf(dst), md).WaitIdle(p)
		})
		if err := r.os.M.Eng.Run(); err != nil {
			return false
		}
		return mem.EqualBytes(src, dst) && r.k.Cookies() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 24}); err != nil {
		t.Fatal(err)
	}
}
