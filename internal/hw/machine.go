// Package hw assembles a runnable simulated machine from a topology
// description: per-core CPU time (processor-sharing, so kernel threads
// compete with user processes), per-domain L2 caches with MESI-lite
// coherence, a shared memory/FSB bus modelled as a fluid bandwidth
// resource, and the address-space world.
//
// It is the single place where cache traffic is converted into simulated
// time; every higher layer (kernel, KNEM, Nemesis, MPI) expresses its data
// movement through the operations in this package.
package hw

import (
	"fmt"

	"knemesis/internal/cache"
	"knemesis/internal/mem"
	"knemesis/internal/sim"
	"knemesis/internal/topo"
)

// Machine is the runtime hardware state for one simulation.
type Machine struct {
	Topo *topo.Machine
	Eng  *sim.Engine
	Mem  *mem.World

	// Bus is the shared memory/front-side bus in bytes/second. Cache
	// fills, writebacks, coherence transfers and DMA all flow through it.
	Bus *sim.Fluid

	// Cores index by topo.CoreID; each has a processor-sharing CPU fluid.
	Cores []*Core

	// L2s index by L2 domain.
	L2s []*cache.Cache

	coreL2 []int // core -> L2 domain index

	// dir is the machine-wide coherence directory: per block, a presence
	// bitmask over the L2 domains plus the dirty owner. Every cache
	// mutation made by this package keeps it in sync, so coherent
	// accesses need not probe remote caches, and the local cache is told
	// whether an access hits instead of searching for the block.
	dir *cache.Directory
}

// Core is one CPU core's runtime state.
type Core struct {
	ID  topo.CoreID
	CPU *sim.Fluid // capacity 1.0 cpu-second per second
	m   *Machine
}

// New builds a machine runtime on a fresh simulation engine.
func New(t *topo.Machine) *Machine {
	return NewOn(sim.NewEngine(), t)
}

// NewOn builds a machine runtime on an existing engine, so several machines
// (the hosts of a cluster) share one simulated timeline. Each machine still
// owns its memory world, bus, cores and caches; only the clock is common.
func NewOn(eng *sim.Engine, t *topo.Machine) *Machine {
	if err := t.Validate(); err != nil {
		panic(err)
	}
	m := &Machine{
		Topo: t,
		Eng:  eng,
		Mem:  mem.NewWorld(t.Params.PageBytes),
		Bus:  sim.NewFluid(eng, "bus", t.Params.BusBandwidth),
	}
	for i := 0; i < t.Cores; i++ {
		m.Cores = append(m.Cores, &Core{
			ID:  topo.CoreID(i),
			CPU: sim.NewFluid(eng, fmt.Sprintf("core%d", i), 1.0),
			m:   m,
		})
	}
	for d := range t.L2Domains {
		m.L2s = append(m.L2s, cache.New(
			fmt.Sprintf("L2.%d", d), t.L2SizeBytes, t.Params.BlockBytes, t.L2Assoc))
	}
	m.coreL2 = make([]int, t.Cores)
	for i := 0; i < t.Cores; i++ {
		m.coreL2[i] = t.L2Of(topo.CoreID(i))
	}
	m.dir = cache.NewDirectory(len(t.L2Domains))
	return m
}

// Release ends the machine's life once its simulation is over: every L2
// and the coherence directory hand their backing to the pools the caches
// and directories of later machines fill from (cache.Cache.Release,
// cache.Directory.Release), which clear it first, so a later machine
// computes exactly what it would on new memory. Statistics and usage stay
// readable; any cache or coherence operation afterwards panics.
func (m *Machine) Release() {
	for _, c := range m.L2s {
		c.Release()
	}
	m.dir.Release()
	m.dir = nil
}

// Core returns the runtime core for id.
func (m *Machine) Core(id topo.CoreID) *Core { return m.Cores[id] }

// Params is shorthand for the topology's cost parameters.
func (m *Machine) Params() *topo.Params { return &m.Topo.Params }

// TotalL2Stats sums the statistics of all L2 caches.
func (m *Machine) TotalL2Stats() cache.Stats {
	var s cache.Stats
	for _, c := range m.L2s {
		s.Add(c.Stats())
	}
	return s
}

// L2MissLines reports total machine L2 misses in hardware-line equivalents
// (the unit of the paper's Table 2).
func (m *Machine) L2MissLines() int64 {
	return m.TotalL2Stats().MissesInLines(m.Topo.Params.LineBytes)
}

// Busy charges d of CPU time to the core under processor sharing: if other
// contexts (e.g. a KNEM kernel thread) are runnable on the same core, wall
// time stretches accordingly.
func (c *Core) Busy(p *sim.Proc, d sim.Time) {
	if d <= 0 {
		return
	}
	c.CPU.Consume(p, d.Seconds())
}

// Utilization summarises resource usage over the elapsed simulated time.
type Utilization struct {
	Elapsed        sim.Time
	BusBytesServed float64
	BusCapacityBps float64   // bus bandwidth the fractions are relative to
	BusUtilization float64   // fraction of bus capacity used
	CoreBusySec    []float64 // CPU-seconds consumed per core
}

// UtilizationReport snapshots bus and per-core usage (diagnostics for the
// CLIs and tests; the paper's CPU-utilization argument in one struct).
func (m *Machine) UtilizationReport() Utilization {
	u := Utilization{
		Elapsed:        m.Eng.Now(),
		BusBytesServed: m.Bus.Served(),
		BusCapacityBps: m.Topo.Params.BusBandwidth,
	}
	if secs := u.Elapsed.Seconds(); secs > 0 {
		u.BusUtilization = u.BusBytesServed / (m.Topo.Params.BusBandwidth * secs)
	}
	for _, c := range m.Cores {
		u.CoreBusySec = append(u.CoreBusySec, c.CPU.Served())
	}
	return u
}

// Sub returns the utilization of the window between snapshot prev and u:
// elapsed time, bus bytes and per-core busy seconds become deltas, and
// BusUtilization is recomputed over the window. It is how benchmarks report
// contention for exactly their measured iterations.
func (u Utilization) Sub(prev Utilization) Utilization {
	d := Utilization{
		Elapsed:        u.Elapsed - prev.Elapsed,
		BusBytesServed: u.BusBytesServed - prev.BusBytesServed,
		BusCapacityBps: u.BusCapacityBps,
	}
	for i, s := range u.CoreBusySec {
		busy := s
		if i < len(prev.CoreBusySec) {
			busy -= prev.CoreBusySec[i]
		}
		d.CoreBusySec = append(d.CoreBusySec, busy)
	}
	if secs := d.Elapsed.Seconds(); secs > 0 && d.BusCapacityBps > 0 {
		d.BusUtilization = d.BusBytesServed / (d.BusCapacityBps * secs)
	}
	return d
}

// TotalCoreBusySec sums busy seconds across every core.
func (u Utilization) TotalCoreBusySec() float64 {
	var t float64
	for _, s := range u.CoreBusySec {
		t += s
	}
	return t
}

// Traffic summarises the memory-system activity of one bulk operation.
type Traffic struct {
	Bytes          int64 // payload bytes processed
	SrcMissBytes   int64 // source bytes that missed the local L2
	DstMissBytes   int64 // destination bytes that missed the local L2
	DirtyMissBytes int64 // missed bytes serviced by a remote modified line
	BusBytes       int64 // bytes pushed over the shared bus
	CPUSeconds     float64
}

// Add accumulates other into t.
func (t *Traffic) Add(other Traffic) {
	t.Bytes += other.Bytes
	t.SrcMissBytes += other.SrcMissBytes
	t.DstMissBytes += other.DstMissBytes
	t.DirtyMissBytes += other.DirtyMissBytes
	t.BusBytes += other.BusBytes
	t.CPUSeconds += other.CPUSeconds
}

// classifyRange runs the coherence/cache state machine over [addr, addr+n)
// for a core, one block at a time in address order, returning bus bytes,
// missed payload bytes, and the subset of missed bytes serviced by remote
// modified lines. It does not advance simulated time.
//
// Per block: resolve remote copies, access the local cache, keep the
// directory in sync with the fill and any eviction, and account bus bytes.
// The directory's presence bit decides hit or miss before the cache is
// touched, so a hit only finds its way and a miss scans no tags at all.
// Everything that does not change from block to block is taken once per
// range; the directory page is fetched once per page of blocks, and the
// set follows the block by counting instead of dividing. Eviction victims
// come in runs of consecutive blocks, so the walk keeps the last victim's
// page too and fetches another only when a victim falls outside it.
// Boundary math is only done on the (at most two) partial blocks at the
// range edges.
func (m *Machine) classifyRange(coreID topo.CoreID, addr uint64, n int64, write bool) (busBytes, missBytes, dirtyMissBytes int64) {
	if n <= 0 {
		return 0, 0, 0
	}
	blockBytes := m.Topo.Params.BlockBytes
	bs := uint64(blockBytes)
	first := addr / bs
	last := (addr + uint64(n) - 1) / bs
	end := addr + uint64(n)

	local := m.coreL2[coreID]
	l2 := m.L2s[local]
	localBit := uint64(1) << uint(local)
	// dirtyFill is the modified-line FSB transfer cost (a stale hit with
	// a remote dirty copy pays it too).
	dirtyFill := int64(float64(blockBytes) * m.Topo.Params.DirtyTransferFactor)
	set, sets := l2.SetOf(first), l2.Sets()
	var victimPage *cache.DirPage
	var victimLast uint64 // the last block of victimPage; no page ends at 0
	for b := first; b <= last; {
		page, pageLast := m.dir.Page(b)
		pageLast = min(pageLast, last)
		for ; b <= pageLast; b++ {
			e := page.Entry(b)
			mask := e.Mask()
			// Remote copies first: a write invalidates them all, a read
			// downgrades a remote dirty owner, which services the access.
			dirtyRemote := false
			if remote := mask &^ localBit; remote != 0 {
				dirtyRemote = m.recall(e, b, remote, write) > 0
			}
			if dirtyRemote {
				busBytes += dirtyFill
			}
			if mask&localBit != 0 {
				l2.Hit(set, b, write)
			} else {
				victim, victimDirty := l2.Fill(set, b, write)
				if victim != 0 {
					v := victim - 1
					if v|(cache.DirPageBlocks-1) != victimLast {
						victimPage, victimLast = m.dir.Page(v)
					}
					victimPage.Entry(v).ClearPresent(local)
				}
				if !dirtyRemote {
					busBytes += blockBytes
				}
				if victimDirty {
					busBytes += blockBytes
				}
				span := blockBytes
				if b == first || b == last {
					span = partialSpan(b, bs, addr, end)
				}
				missBytes += span
				if dirtyRemote {
					dirtyMissBytes += span
				}
			}
			if write {
				e.SetOwner(local)
			} else {
				e.SetPresent(local)
			}
			if set++; set == sets {
				set = 0
			}
		}
	}
	return busBytes, missBytes, dirtyMissBytes
}

// partialSpan returns how many bytes of [addr, end) fall into block b
// (full blocks short-circuit in the callers; this handles the range edges).
func partialSpan(b, bs uint64, addr, end uint64) int64 {
	lo := b * bs
	hi := lo + bs
	if lo < addr {
		lo = addr
	}
	if hi > end {
		hi = end
	}
	return int64(hi - lo)
}

// recall is the one coherence action on the copies of block in the domains
// of mask, e being block's directory entry: invalidate invalidates every
// one of them and clears its presence bit; otherwise the dirty owner, if
// it is in mask, is downgraded to clean. It returns how many modified
// copies had to be written back.
func (m *Machine) recall(e *cache.DirEntry, block, mask uint64, invalidate bool) (dirty int64) {
	if !invalidate {
		if owner := e.Owner(); owner >= 0 && mask&(1<<uint(owner)) != 0 {
			m.L2s[owner].Downgrade(block)
			e.ClearOwner()
			return 1
		}
		return 0
	}
	for d := 0; mask != 0; d++ {
		bit := uint64(1) << uint(d)
		if mask&bit == 0 {
			continue
		}
		mask &^= bit
		if present, wasDirty := m.L2s[d].Invalidate(block); present && wasDirty {
			dirty++
		}
		e.ClearPresent(d)
	}
	return dirty
}

// missStallPerByte converts missed bytes into extra CPU seconds such that a
// copy missing everywhere runs at CPUCopyStreamBps. Store misses stall the
// pipeline about half as much as load misses (store buffers), hence the
// weighting used by CopyRange.
func missStallPerByte(p *topo.Params) float64 {
	return (1/p.CPUCopyStreamBps - 1/p.CPUCopyCachedBps) / 1.5
}
