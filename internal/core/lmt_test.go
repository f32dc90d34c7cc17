package core

import (
	"testing"
	"testing/quick"

	"knemesis/internal/knem"
	"knemesis/internal/mem"
	"knemesis/internal/nemesis"
	"knemesis/internal/sim"
	"knemesis/internal/topo"
	"knemesis/internal/units"
)

// pingpong runs one warm-up round plus iters measured rounds of an IMB-style
// ping-pong between ranks 0 and 1 and returns the per-direction time.
// As in IMB, each rank sends from a dedicated send buffer and receives into
// a dedicated receive buffer (the send buffer therefore stays clean after
// the first iteration — this matters for cache behaviour).
func pingpong(t *testing.T, opt Options, cores []topo.CoreID, size int64, iters int) sim.Time {
	t.Helper()
	st := NewStack(topo.XeonE5345(), cores, opt, nemesis.Config{})
	ep0, ep1 := st.Ch.Endpoints[0], st.Ch.Endpoints[1]
	s0, r0 := ep0.Space.Alloc(size), ep0.Space.Alloc(size)
	s1, r1 := ep1.Space.Alloc(size), ep1.Space.Alloc(size)
	s0.FillPattern(1)
	s1.FillPattern(2)

	var oneWay sim.Time
	st.M.Eng.Spawn("rank0", func(p *sim.Proc) {
		ep0.Send(p, 1, 0, mem.VecOf(s0)) // warm-up
		ep0.Recv(p, 1, 0, mem.VecOf(r0))
		t0 := p.Now()
		for i := 0; i < iters; i++ {
			ep0.Send(p, 1, 0, mem.VecOf(s0))
			ep0.Recv(p, 1, 0, mem.VecOf(r0))
		}
		oneWay = (p.Now() - t0) / sim.Time(2*iters)
	})
	st.M.Eng.Spawn("rank1", func(p *sim.Proc) {
		for i := 0; i < iters+1; i++ {
			ep1.Recv(p, 0, 0, mem.VecOf(r1))
			ep1.Send(p, 0, 0, mem.VecOf(s1))
		}
	})
	if err := st.M.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !mem.EqualBytes(s0, r1) || !mem.EqualBytes(s1, r0) {
		t.Fatalf("%s: ping-pong corrupted payload", opt.Label())
	}
	return oneWay
}

func mibps(size int64, d sim.Time) float64 { return units.MiBps(size, d.Seconds()) }

func TestAllBackendsDeliverLargeMessages(t *testing.T) {
	m := topo.XeonE5345()
	c0, c1 := m.PairDifferentDies()
	opts := append(StandardOptions(), Options{Kind: VmspliceWritevLMT}, Options{Kind: CMALMT})
	for _, opt := range opts {
		d := pingpong(t, opt, []topo.CoreID{c0, c1}, 1*units.MiB, 2)
		if d <= 0 {
			t.Errorf("%s: non-positive transfer time", opt.Label())
		}
	}
}

func TestEagerPathBelowThreshold(t *testing.T) {
	st := NewStack(topo.XeonE5345(), []topo.CoreID{0, 1}, Options{Kind: KnemLMT}, nemesis.Config{})
	ep0, ep1 := st.Ch.Endpoints[0], st.Ch.Endpoints[1]
	a := ep0.Space.Alloc(4 * units.KiB)
	b := ep1.Space.Alloc(4 * units.KiB)
	a.FillPattern(2)
	st.M.Eng.Spawn("r0", func(p *sim.Proc) { ep0.Send(p, 1, 7, mem.VecOf(a)) })
	st.M.Eng.Spawn("r1", func(p *sim.Proc) { ep1.Recv(p, 0, 7, mem.VecOf(b)) })
	if err := st.M.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !mem.EqualBytes(a, b) {
		t.Fatal("eager corrupted payload")
	}
	if st.Ch.EagerMsgs != 1 || st.Ch.RndvMsgs != 0 {
		t.Fatalf("eager/rndv = %d/%d, want 1/0", st.Ch.EagerMsgs, st.Ch.RndvMsgs)
	}
	if st.KNEM.SendCmds != 0 {
		t.Fatal("eager message went through KNEM")
	}
}

// Figure 5's headline: with no shared cache, KNEM beats vmsplice, which
// beats the default two-copy LMT.
func TestFig5OrderingCrossDie(t *testing.T) {
	m := topo.XeonE5345()
	c0, c1 := m.PairDifferentDies()
	cores := []topo.CoreID{c0, c1}
	size := int64(1 * units.MiB)
	dDefault := pingpong(t, Options{Kind: DefaultLMT}, cores, size, 3)
	dVmsplice := pingpong(t, Options{Kind: VmspliceLMT}, cores, size, 3)
	dKnem := pingpong(t, Options{Kind: KnemLMT, IOAT: IOATOff}, cores, size, 3)
	t.Logf("1MiB cross-die: default=%.0f vmsplice=%.0f knem=%.0f MiB/s",
		mibps(size, dDefault), mibps(size, dVmsplice), mibps(size, dKnem))
	if !(dKnem < dVmsplice && dVmsplice < dDefault) {
		t.Fatalf("want knem < vmsplice < default, got %v %v %v", dKnem, dVmsplice, dDefault)
	}
}

// Figure 4's headline: with a shared cache, the default double-buffered LMT
// stays competitive (KNEM must not be dramatically better), and vmsplice is
// slower than default.
func TestFig4SharedCacheDefaultCompetitive(t *testing.T) {
	m := topo.XeonE5345()
	c0, c1 := m.PairSharedCache()
	cores := []topo.CoreID{c0, c1}
	size := int64(256 * units.KiB)
	dDefault := pingpong(t, Options{Kind: DefaultLMT}, cores, size, 3)
	dVmsplice := pingpong(t, Options{Kind: VmspliceLMT}, cores, size, 3)
	dKnem := pingpong(t, Options{Kind: KnemLMT, IOAT: IOATOff}, cores, size, 3)
	t.Logf("256KiB shared: default=%.0f vmsplice=%.0f knem=%.0f MiB/s",
		mibps(size, dDefault), mibps(size, dVmsplice), mibps(size, dKnem))
	if dVmsplice < dDefault {
		t.Fatalf("vmsplice (%v) should not beat default (%v) under a shared cache", dVmsplice, dDefault)
	}
	if float64(dDefault) > 1.5*float64(dKnem) {
		t.Fatalf("default (%v) should stay competitive with knem (%v) under a shared cache", dDefault, dKnem)
	}
}

// Figure 3's control: vmsplice (single copy) clearly beats the same backend
// using writev (two copies).
func TestFig3VmspliceBeatsWritev(t *testing.T) {
	m := topo.XeonE5345()
	c0, c1 := m.PairDifferentDies()
	cores := []topo.CoreID{c0, c1}
	size := int64(1 * units.MiB)
	dSplice := pingpong(t, Options{Kind: VmspliceLMT}, cores, size, 3)
	dWritev := pingpong(t, Options{Kind: VmspliceWritevLMT}, cores, size, 3)
	t.Logf("1MiB cross-die: vmsplice=%.0f writev=%.0f MiB/s",
		mibps(size, dSplice), mibps(size, dWritev))
	if float64(dWritev) < 1.3*float64(dSplice) {
		t.Fatalf("writev (%v) should be well slower than vmsplice (%v)", dWritev, dSplice)
	}
}

// §3.5: I/OAT offload wins for very large cross-die messages and loses for
// small ones; the auto policy picks the right side of its threshold.
func TestIOATCrossover(t *testing.T) {
	m := topo.XeonE5345()
	c0, c1 := m.PairDifferentDies()
	cores := []topo.CoreID{c0, c1}
	small, big := int64(256*units.KiB), int64(4*units.MiB)

	dCopySmall := pingpong(t, Options{Kind: KnemLMT, IOAT: IOATOff}, cores, small, 3)
	dIOATSmall := pingpong(t, Options{Kind: KnemLMT, IOAT: IOATAlways}, cores, small, 3)
	dCopyBig := pingpong(t, Options{Kind: KnemLMT, IOAT: IOATOff}, cores, big, 3)
	dIOATBig := pingpong(t, Options{Kind: KnemLMT, IOAT: IOATAlways}, cores, big, 3)
	t.Logf("256KiB: copy=%.0f ioat=%.0f | 4MiB: copy=%.0f ioat=%.0f MiB/s",
		mibps(small, dCopySmall), mibps(small, dIOATSmall),
		mibps(big, dCopyBig), mibps(big, dIOATBig))
	if dIOATSmall < dCopySmall {
		t.Fatalf("I/OAT should lose at 256KiB (copy=%v ioat=%v)", dCopySmall, dIOATSmall)
	}
	if dIOATBig > dCopyBig {
		t.Fatalf("I/OAT should win at 4MiB (copy=%v ioat=%v)", dCopyBig, dIOATBig)
	}

	// Auto policy: matches the copy path below DMAmin and the I/OAT path
	// above it (2 MiB threshold cross-die on a 4 MiB cache).
	dAutoSmall := pingpong(t, Options{Kind: KnemLMT, IOAT: IOATAuto}, cores, small, 3)
	dAutoBig := pingpong(t, Options{Kind: KnemLMT, IOAT: IOATAuto}, cores, big, 3)
	if float64(dAutoSmall) > 1.05*float64(dCopySmall) {
		t.Fatalf("auto at 256KiB (%v) should track kernel copy (%v)", dAutoSmall, dCopySmall)
	}
	if float64(dAutoBig) > 1.05*float64(dIOATBig) {
		t.Fatalf("auto at 4MiB (%v) should track I/OAT (%v)", dAutoBig, dIOATBig)
	}
}

// Figure 6: the kernel-thread asynchronous mode is slower than the
// synchronous copy (CPU competition); the I/OAT asynchronous mode is not
// slower than synchronous I/OAT.
func TestFig6AsyncModes(t *testing.T) {
	m := topo.XeonE5345()
	c0, c1 := m.PairDifferentDies()
	cores := []topo.CoreID{c0, c1}
	size := int64(1 * units.MiB)
	force := func(md knem.Mode) Options {
		return Options{Kind: KnemLMT, ForceKnemMode: &md}
	}
	dSync := pingpong(t, force(knem.SyncCopy), cores, size, 3)
	dAsync := pingpong(t, force(knem.AsyncKThread), cores, size, 3)
	dSyncIOAT := pingpong(t, force(knem.SyncIOAT), cores, size, 3)
	dAsyncIOAT := pingpong(t, force(knem.AsyncIOAT), cores, size, 3)
	t.Logf("1MiB: sync=%.0f async=%.0f sync+ioat=%.0f async+ioat=%.0f MiB/s",
		mibps(size, dSync), mibps(size, dAsync), mibps(size, dSyncIOAT), mibps(size, dAsyncIOAT))
	if float64(dAsync) < 1.3*float64(dSync) {
		t.Fatalf("async kthread (%v) should be well slower than sync (%v)", dAsync, dSync)
	}
	if float64(dAsyncIOAT) > 1.1*float64(dSyncIOAT) {
		t.Fatalf("async ioat (%v) should not be slower than sync ioat (%v)", dAsyncIOAT, dSyncIOAT)
	}
}

// CMA is KNEM's single-copy data path without the module: same receive-side
// copy, but no send-side registration ioctl — it must at least match the
// KNEM kernel copy, and its sender must issue no syscalls at all.
func TestCMATracksKnemSyncCopy(t *testing.T) {
	m := topo.XeonE5345()
	c0, c1 := m.PairDifferentDies()
	cores := []topo.CoreID{c0, c1}
	size := int64(1 * units.MiB)
	dKnem := pingpong(t, Options{Kind: KnemLMT, IOAT: IOATOff}, cores, size, 3)
	dCMA := pingpong(t, Options{Kind: CMALMT}, cores, size, 3)
	t.Logf("1MiB cross-die: knem=%.0f cma=%.0f MiB/s", mibps(size, dKnem), mibps(size, dCMA))
	if dCMA > dKnem {
		t.Fatalf("CMA (%v) should not be slower than the KNEM kernel copy (%v)", dCMA, dKnem)
	}

	st := NewStack(m, cores, Options{Kind: CMALMT}, nemesis.Config{})
	ep0, ep1 := st.Ch.Endpoints[0], st.Ch.Endpoints[1]
	a := ep0.Space.Alloc(size)
	b := ep1.Space.Alloc(size)
	a.FillPattern(5)
	st.M.Eng.Spawn("r0", func(p *sim.Proc) { ep0.Send(p, 1, 0, mem.VecOf(a)) })
	st.M.Eng.Spawn("r1", func(p *sim.Proc) { ep1.Recv(p, 0, 0, mem.VecOf(b)) })
	if err := st.M.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if st.OS.CMACalls == 0 {
		t.Error("transfer did not go through process_vm_readv")
	}
	if st.KNEM.SendCmds != 0 || st.KNEM.RecvCmds != 0 {
		t.Error("CMA transfer touched the KNEM module")
	}
}

// DMAMinFor reproduces the paper's calibration points with real placements.
func TestDMAMinForPlacements(t *testing.T) {
	m := topo.XeonE5345()
	s0, s1 := m.PairSharedCache()
	d0, d1 := m.PairDifferentDies()
	if got := DMAMinFor(m, []topo.CoreID{s0, s1}, s1); got != 1*units.MiB {
		t.Errorf("shared pair DMAmin = %s, want 1MiB", units.FormatSize(got))
	}
	if got := DMAMinFor(m, []topo.CoreID{d0, d1}, d1); got != 2*units.MiB {
		t.Errorf("cross-die pair DMAmin = %s, want 2MiB", units.FormatSize(got))
	}
	if got := DMAMinFor(m, m.AllCores(), 0); got != 1*units.MiB {
		t.Errorf("8-rank DMAmin = %s, want 1MiB", units.FormatSize(got))
	}
}

// Property: every backend delivers random sizes (crossing the eager/rndv
// threshold) intact in both directions with random placements.
func TestBackendIntegrityProperty(t *testing.T) {
	kinds := []Options{
		{Kind: DefaultLMT},
		{Kind: VmspliceLMT},
		{Kind: VmspliceWritevLMT},
		{Kind: KnemLMT, IOAT: IOATOff},
		{Kind: KnemLMT, IOAT: IOATAuto},
		{Kind: CMALMT},
	}
	prop := func(sizeRaw uint32, kindRaw, coreRaw uint8) bool {
		size := int64(sizeRaw)%(512*units.KiB) + 1
		opt := kinds[int(kindRaw)%len(kinds)]
		c0 := topo.CoreID(coreRaw % 8)
		c1 := topo.CoreID((coreRaw / 8) % 8)
		if c0 == c1 {
			c1 = (c1 + 1) % 8
		}
		st := NewStack(topo.XeonE5345(), []topo.CoreID{c0, c1}, opt, nemesis.Config{})
		ep0, ep1 := st.Ch.Endpoints[0], st.Ch.Endpoints[1]
		a := ep0.Space.Alloc(size)
		b := ep1.Space.Alloc(size)
		a.FillPattern(uint64(sizeRaw))
		st.M.Eng.Spawn("r0", func(p *sim.Proc) { ep0.Send(p, 1, 3, mem.VecOf(a)) })
		st.M.Eng.Spawn("r1", func(p *sim.Proc) { ep1.Recv(p, 0, 3, mem.VecOf(b)) })
		if err := st.M.Eng.Run(); err != nil {
			return false
		}
		return mem.EqualBytes(a, b)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestBidirectionalRendezvousNoDeadlock(t *testing.T) {
	// Simultaneous large sends in both directions (the alltoall pattern)
	// must not deadlock for any backend.
	for _, opt := range append(StandardOptions(), Options{Kind: VmspliceWritevLMT}, Options{Kind: CMALMT}) {
		st := NewStack(topo.XeonE5345(), []topo.CoreID{0, 2}, opt, nemesis.Config{})
		ep0, ep1 := st.Ch.Endpoints[0], st.Ch.Endpoints[1]
		size := int64(512 * units.KiB)
		a0, b0 := ep0.Space.Alloc(size), ep0.Space.Alloc(size)
		a1, b1 := ep1.Space.Alloc(size), ep1.Space.Alloc(size)
		a0.FillPattern(10)
		a1.FillPattern(20)
		st.M.Eng.Spawn("r0", func(p *sim.Proc) {
			s := ep0.Isend(1, 0, mem.VecOf(a0))
			r := ep0.Irecv(1, 0, mem.VecOf(b0))
			ep0.Wait(p, s)
			ep0.Wait(p, r)
		})
		st.M.Eng.Spawn("r1", func(p *sim.Proc) {
			s := ep1.Isend(0, 0, mem.VecOf(a1))
			r := ep1.Irecv(0, 0, mem.VecOf(b1))
			ep1.Wait(p, s)
			ep1.Wait(p, r)
		})
		if err := st.M.Eng.Run(); err != nil {
			t.Fatalf("%s: %v", opt.Label(), err)
		}
		if !mem.EqualBytes(a0, b1) || !mem.EqualBytes(a1, b0) {
			t.Fatalf("%s: bidirectional payload corrupted", opt.Label())
		}
	}
}
