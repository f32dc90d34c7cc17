package hw

import (
	"fmt"

	"knemesis/internal/mem"
	"knemesis/internal/sim"
	"knemesis/internal/topo"
)

// CopyOpts modifies CopyRange behaviour.
type CopyOpts struct {
	// Kernel marks a kernel-mode copy, which may legally cross private
	// address spaces (KNEM, pipe internals). User-mode copies across
	// private spaces panic: they indicate a protocol modelling bug.
	Kernel bool

	// NoTime skips time accounting and only moves bytes + cache state
	// (used by tests and by warmup helpers).
	NoTime bool
}

// CopyRange copies src to dst (equal lengths) as core coreID: real payload
// bytes move, the cache/coherence state machine runs over both ranges, CPU
// time is charged under processor sharing, and fill/writeback traffic flows
// through the shared bus. Returns the traffic summary.
//
// Callers chunk large transfers themselves; protocol pipelining then emerges
// naturally from interleaved chunk copies.
func (m *Machine) CopyRange(p *sim.Proc, coreID topo.CoreID, dst, src mem.Region, opts CopyOpts) Traffic {
	if dst.Len != src.Len {
		panic(fmt.Sprintf("hw: CopyRange length mismatch %d != %d", dst.Len, src.Len))
	}
	if !opts.Kernel {
		// User space cannot touch another process's private memory: a
		// single user-mode copy may involve at most one private space
		// (its own); everything else must be shared memory. Checked
		// without materializing a region slice — CopyRange is called
		// once per chunk on the hot path.
		dsp, ssp := dst.Buf.Space(), src.Buf.Space()
		if dsp != ssp && !dsp.Shared() && !ssp.Shared() {
			panic("hw: user-mode copy across two private address spaces (needs kernel assist)")
		}
	}
	n := src.Len
	mem.CopyBytes(dst, src)
	if n == 0 {
		return Traffic{}
	}

	par := m.Params()
	srcBus, srcMiss, srcDirty := m.classifyRange(coreID, src.Addr(), n, false)
	dstBus, dstMiss, dstDirty := m.classifyRange(coreID, dst.Addr(), n, true)

	tr := Traffic{
		Bytes:          n,
		SrcMissBytes:   srcMiss,
		DstMissBytes:   dstMiss,
		DirtyMissBytes: srcDirty + dstDirty,
		BusBytes:       srcBus + dstBus,
	}
	// Plain misses stall at the streaming rate; misses serviced by remote
	// modified lines stall RemoteDirtyStallFactor times harder (stores
	// count half either way: store buffers hide part of the latency).
	stall := float64(srcMiss) + float64(dstMiss)/2 +
		(float64(srcDirty)+float64(dstDirty)/2)*(par.RemoteDirtyStallFactor-1)
	tr.CPUSeconds = float64(n)/par.CPUCopyCachedBps + stall*missStallPerByte(par)

	if !opts.NoTime {
		m.charge(p, coreID, tr.BusBytes, tr.CPUSeconds)
	}
	return tr
}

// charge advances simulated time by one operation's traffic: busBytes flow
// through the shared bus while cpuSeconds are consumed on the core, and p
// resumes when both are done.
func (m *Machine) charge(p *sim.Proc, coreID topo.CoreID, busBytes int64, cpuSeconds float64) {
	flow := m.Bus.Start(float64(busBytes))
	m.Cores[coreID].CPU.Consume(p, cpuSeconds)
	flow.Wait(p)
	m.Bus.Release(flow)
}

// DMASnoopSource prepares a range for a cache-bypassing DMA read: dirty
// cached copies must be written back so the engine reads current data.
// Returns the bus bytes of the forced writebacks.
func (m *Machine) DMASnoopSource(addr uint64, n int64) int64 {
	return m.dmaWalk(addr, n, false)
}

// DMAInvalidateDest prepares a range for a cache-bypassing DMA write: all
// cached copies become stale and are invalidated (dirty ones written back
// first). Returns bus bytes.
func (m *Machine) DMAInvalidateDest(addr uint64, n int64) int64 {
	return m.dmaWalk(addr, n, true)
}

// dmaWalk prepares [addr, addr+n) for a cache-bypassing DMA access,
// touching only the blocks the directory knows to be cached somewhere. It
// walks the directory a page at a time, skipping pages never cached.
func (m *Machine) dmaWalk(addr uint64, n int64, invalidate bool) int64 {
	if n <= 0 {
		return 0
	}
	par := m.Params()
	bs := uint64(par.BlockBytes)
	first := addr / bs
	last := (addr + uint64(n) - 1) / bs
	var busBytes int64
	for b := first; b <= last; {
		page, pageLast := m.dir.PageIfAny(b)
		pageLast = min(pageLast, last)
		if page == nil {
			b = pageLast + 1
			continue
		}
		for ; b <= pageLast; b++ {
			if e := page.Entry(b); e.Mask() != 0 {
				busBytes += m.recall(e, b, m.L2s[0].SetOf(b), e.Mask(), invalidate) * par.BlockBytes
			}
		}
	}
	return busBytes
}

// ControlTransfer models synchronization-line traffic (queue heads, ready
// flags, rendezvous handshake cells) between two cores: per line, latency is
// a shared-L2 hit when the cores share a cache, or a memory/snoop round trip
// otherwise (also consuming bus bandwidth).
func (m *Machine) ControlTransfer(p *sim.Proc, from, to topo.CoreID, lines int) {
	if lines <= 0 {
		return
	}
	par := m.Params()
	var lat sim.Time
	if m.coreL2[from] == m.coreL2[to] {
		lat = par.SharedHitLatency
	} else {
		lat = par.MemLatency
		m.Bus.Consume(p, float64(int64(lines)*par.LineBytes))
	}
	p.Sleep(lat * sim.Time(lines))
}

// LocalDelay charges fixed CPU work (syscall entry, queue bookkeeping) to a
// core under processor sharing.
func (m *Machine) LocalDelay(p *sim.Proc, coreID topo.CoreID, d sim.Time) {
	m.Cores[coreID].Busy(p, d)
}

// BusyPoll spins core coreID on a completion flag in quanta of d CPU time
// until done reports true; done must flip only in an event that broadcasts
// c. It charges exactly what for !done() { LocalDelay(p, coreID, d) }
// would, without an event per quantum while the poll has the core to
// itself (sim.Fluid.Poll).
func (m *Machine) BusyPoll(p *sim.Proc, coreID topo.CoreID, d sim.Time, done func() bool, c *sim.Cond) {
	m.Cores[coreID].CPU.Poll(p, d.Seconds(), done, c)
}

// Compute models an application compute phase of base CPU seconds that
// streams over the given working-set regions (read-mostly: one read pass,
// with every eighth block written). Cache misses on the working set — e.g.
// after communication polluted the cache — add reload time, reproducing the
// paper's cache-pollution slowdowns.
func (m *Machine) Compute(p *sim.Proc, coreID topo.CoreID, base sim.Time, ws ...mem.Region) Traffic {
	par := m.Params()
	var tr Traffic
	for _, r := range ws {
		if r.Len <= 0 {
			continue
		}
		busBytes, missBytes, dirtyMiss := m.classifyRange(coreID, r.Addr(), r.Len, false)
		wBus, wMiss, wDirty := m.classifyRange(coreID, r.Addr(), r.Len/8, true)
		tr.BusBytes += busBytes + wBus
		tr.SrcMissBytes += missBytes
		tr.DstMissBytes += wMiss
		tr.DirtyMissBytes += dirtyMiss + wDirty
		tr.Bytes += r.Len
	}
	reload := (float64(tr.SrcMissBytes) + float64(tr.DstMissBytes)/2 +
		float64(tr.DirtyMissBytes)*(par.RemoteDirtyStallFactor-1)) * missStallPerByte(par)
	tr.CPUSeconds = base.Seconds() + reload
	m.charge(p, coreID, tr.BusBytes, tr.CPUSeconds)
	return tr
}
