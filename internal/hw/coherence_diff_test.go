package hw

import (
	"math/bits"
	"math/rand"
	"testing"

	"knemesis/internal/cache"
	"knemesis/internal/mem"
	"knemesis/internal/topo"
	"knemesis/internal/units"
)

// The differential tests drive the machine's directory-based coherence and
// the brute-force snoop reference below over identical randomized access
// traces and require bit-identical traffic and cache statistics. This is
// the proof that the directory is a pure optimization: same model, fewer
// probes. Because the machine's range walk trusts the directory — a set
// presence bit makes the access a hit without a search, a clear one a fill
// without a tag scan — every step also audits the directory against the
// contents of every cache (checkDirectorySync).

// snoopMachine is the coherence model as it was before the directory: its
// own set of caches, every one of them probed on every block access. It is
// the reference the machine is tested against and runs nowhere else.
type snoopMachine struct {
	t      *topo.Machine
	par    *topo.Params
	l2s    []*cache.Cache
	coreL2 []int
}

func newSnoopMachine(t *topo.Machine) *snoopMachine {
	s := &snoopMachine{t: t, par: &t.Params}
	for range t.L2Domains {
		s.l2s = append(s.l2s, cache.New("ref", t.L2SizeBytes, t.Params.BlockBytes, t.L2Assoc))
	}
	for i := 0; i < t.Cores; i++ {
		s.coreL2 = append(s.coreL2, t.L2Of(topo.CoreID(i)))
	}
	return s
}

// accessBlock performs one coherent block access by a core and returns the
// bus bytes it generated, whether it hit in the local L2, and whether a
// remote modified copy had to service it.
func (s *snoopMachine) accessBlock(coreID topo.CoreID, block uint64, write bool) (busBytes int64, hit, dirtyRemote bool) {
	p := s.par
	local := s.coreL2[coreID]

	if write {
		// Invalidate all other copies; a dirty remote copy must be
		// transferred first (snoop-forced writeback).
		for d, c := range s.l2s {
			if d == local {
				continue
			}
			if present, wasDirty := c.Invalidate(block); present && wasDirty {
				dirtyRemote = true
			}
		}
	} else {
		// A dirty remote copy services the read (after writeback);
		// downgrade it to clean.
		for d, c := range s.l2s {
			if d == local {
				continue
			}
			if c.ContainsDirty(block) {
				c.Downgrade(block)
				dirtyRemote = true
			}
		}
	}

	res := s.l2s[local].Access(block, write)
	if res.Hit {
		if dirtyRemote {
			// Rare: stale hit with remote dirty copy; count transfer.
			busBytes += int64(float64(p.BlockBytes) * p.DirtyTransferFactor)
		}
		return busBytes, true, dirtyRemote
	}

	fill := p.BlockBytes
	if dirtyRemote {
		// Modified-line transfer over the FSB costs extra.
		fill = int64(float64(p.BlockBytes) * p.DirtyTransferFactor)
	}
	busBytes += fill
	if res.EvictedDirty {
		busBytes += p.BlockBytes
	}
	return busBytes, false, dirtyRemote
}

// classifyRange is Machine.classifyRange block by block, with the edge
// math done on every block.
func (s *snoopMachine) classifyRange(coreID topo.CoreID, addr uint64, n int64, write bool) (busBytes, missBytes, dirtyMissBytes int64) {
	bs := uint64(s.par.BlockBytes)
	end := addr + uint64(n)
	for b := addr / bs; b <= (end-1)/bs; b++ {
		bb, hit, dirtyRemote := s.accessBlock(coreID, b, write)
		busBytes += bb
		if !hit {
			span := partialSpan(b, bs, addr, end)
			missBytes += span
			if dirtyRemote {
				dirtyMissBytes += span
			}
		}
	}
	return busBytes, missBytes, dirtyMissBytes
}

// dmaWalk is Machine.dmaWalk probing every cache for every block.
func (s *snoopMachine) dmaWalk(addr uint64, n int64, invalidate bool) (busBytes int64) {
	bs := uint64(s.par.BlockBytes)
	for b := addr / bs; b <= (addr+uint64(n)-1)/bs; b++ {
		for _, c := range s.l2s {
			if invalidate {
				if present, wasDirty := c.Invalidate(b); present && wasDirty {
					busBytes += s.par.BlockBytes
				}
			} else if c.ContainsDirty(b) {
				c.Downgrade(b)
				busBytes += s.par.BlockBytes
			}
		}
	}
	return busBytes
}

// traceOp is one step of a randomized coherence trace.
type traceOp struct {
	kind int // 0 touch-read, 1 touch-write, 2 copy, 3 dma-snoop, 4 dma-inval, 5 flush
	core topo.CoreID
	off  int64
	n    int64
	off2 int64 // copy source offset
}

// randTrace builds a trace over a footprint of footprint bytes on a machine
// of cores cores. Offsets are block-unaligned on purpose; lengths span one
// block to maxLen bytes.
func randTrace(rng *rand.Rand, steps, cores int, footprint, maxLen int64) []traceOp {
	ops := make([]traceOp, steps)
	for i := range ops {
		n := rng.Int63n(maxLen) + 1
		off := rng.Int63n(footprint - n)
		op := traceOp{
			kind: rng.Intn(6),
			core: topo.CoreID(rng.Intn(cores)),
			off:  off,
			n:    n,
		}
		if op.kind == 2 {
			op.off2 = rng.Int63n(footprint - n)
		}
		// Rare flush.
		if op.kind == 5 && rng.Intn(4) != 0 {
			op.kind = rng.Intn(2)
		}
		ops[i] = op
	}
	return ops
}

// apply runs one op on the machine and returns a comparable outcome triple.
func apply(m *Machine, buf, buf2 *mem.Buffer, op traceOp) (a, b, c int64) {
	switch op.kind {
	case 0, 1:
		tr := m.TouchRange(nil, op.core, buf.Addr()+uint64(op.off), op.n, op.kind == 1, true)
		return tr.BusBytes, tr.SrcMissBytes + tr.DstMissBytes, tr.DirtyMissBytes
	case 2:
		tr := m.CopyRange(nil, op.core,
			mem.Region{Buf: buf2, Off: op.off, Len: op.n},
			mem.Region{Buf: buf, Off: op.off2, Len: op.n},
			CopyOpts{Kernel: true, NoTime: true})
		return tr.BusBytes, tr.SrcMissBytes + tr.DstMissBytes, tr.DirtyMissBytes
	case 3:
		return m.DMASnoopSource(buf.Addr()+uint64(op.off), op.n), 0, 0
	case 4:
		return m.DMAInvalidateDest(buf.Addr()+uint64(op.off), op.n), 0, 0
	case 5:
		m.FlushCaches()
	}
	return 0, 0, 0
}

// applySnoop runs the same op on the reference, at the same addresses.
func applySnoop(s *snoopMachine, buf, buf2 *mem.Buffer, op traceOp) (a, b, c int64) {
	switch op.kind {
	case 0, 1:
		return s.classifyRange(op.core, buf.Addr()+uint64(op.off), op.n, op.kind == 1)
	case 2:
		sb, sm, sd := s.classifyRange(op.core, buf.Addr()+uint64(op.off2), op.n, false)
		db, dm, dd := s.classifyRange(op.core, buf2.Addr()+uint64(op.off), op.n, true)
		return sb + db, sm + dm, sd + dd
	case 3:
		return s.dmaWalk(buf.Addr()+uint64(op.off), op.n, false), 0, 0
	case 4:
		return s.dmaWalk(buf.Addr()+uint64(op.off), op.n, true), 0, 0
	case 5:
		for d := range s.l2s {
			s.l2s[d] = cache.New("ref", s.t.L2SizeBytes, s.par.BlockBytes, s.t.L2Assoc)
		}
	}
	return 0, 0, 0
}

// checkDirectorySync audits the directory against the caches: a domain's
// presence bit is set exactly for the blocks resident in its L2 (once
// each), a block's owner is exactly the domain holding it dirty, and a
// domain's way hint, where it keeps one, is the way its copy is in. It is
// what a directory rebuilt from the cache contents would hold.
func checkDirectorySync(t *testing.T, m *Machine) {
	t.Helper()
	resident := 0
	for d, c := range m.L2s {
		c.ForEachResident(func(block uint64, way int, dirty bool) {
			resident++
			var e cache.DirEntry // zero: no page, no bit
			if pg, _ := m.dir.PageIfAny(block); pg != nil {
				e = *pg.Entry(block)
			}
			if e.Mask()&(1<<uint(d)) == 0 {
				t.Fatalf("block %d is in L2.%d but its presence bit is clear (mask %b)", block, d, e.Mask())
			}
			if dirty != (e.Owner() == d) {
				t.Fatalf("block %d in L2.%d: dirty %v but directory owner %d", block, d, dirty, e.Owner())
			}
			if w := e.Way(d); w >= 0 && w != way {
				t.Fatalf("block %d is in way %d of L2.%d but its way hint says %d", block, way, d, w)
			}
		})
	}
	// Every way has its bit; as many bits as ways means no bit without a
	// way, and no block held twice by one cache.
	present := 0
	m.dir.ForEach(func(block uint64, e cache.DirEntry) {
		present += bits.OnesCount64(e.Mask())
		if o := e.Owner(); o >= 0 && e.Mask()&(1<<uint(o)) == 0 {
			t.Fatalf("block %d: owner %d holds no copy (mask %b)", block, o, e.Mask())
		}
	})
	if present != resident {
		t.Fatalf("directory holds %d presence bits for %d resident ways", present, resident)
	}
}

// runDiff drives the machine and the reference through a trace, failing on
// the first divergence in per-op traffic, residency, per-cache statistics
// or directory contents. The L2 domains of tp (the E5345's 4, say) either
// keep their 4 MiB, where the caches of a trace stay half empty between
// its flushes and coherence actions dominate, or (pressure) shrink to
// 512 KiB under a 2 MiB footprint, where the caches run full, fills evict
// and about a tenth of the accesses hit.
func runDiff(t *testing.T, tp *topo.Machine, rng *rand.Rand, steps int, pressure bool) {
	t.Helper()
	footprint, maxLen := 6*units.MiB, 256*units.KiB
	if pressure {
		tp.L2SizeBytes = 512 * units.KiB
		footprint, maxLen = units.MiB, 128*units.KiB
	}
	checkTrace(t, tp, footprint, randTrace(rng, steps, tp.Cores, footprint, maxLen))
}

// checkTrace runs ops on a Machine and a snoopMachine of topology tp over
// a shared buffer of two footprints (copies write into the second), which
// starts on a directory page boundary, and compares them after every op.
func checkTrace(t *testing.T, tp *topo.Machine, footprint int64, ops []traceOp) {
	t.Helper()
	m, ref := New(tp), newSnoopMachine(tp)
	buf := m.Mem.NewSharedSpace("shm").Alloc(2 * footprint)
	if buf.Addr()/uint64(tp.Params.BlockBytes)%cache.DirPageBlocks != 0 {
		t.Fatalf("buffer at %#x does not start a directory page", buf.Addr())
	}
	dst := buf.Slice(footprint, footprint)

	for i, op := range ops {
		if op.kind == 5 {
			// A flush replaces every cache on both sides, statistics and
			// all, so what the old ones counted is compared first.
			checkStats(t, i, m, ref)
		}
		da, db, dc := apply(m, buf, dst, op)
		sa, sb, sc := applySnoop(ref, buf, dst, op)
		if da != sa || db != sb || dc != sc {
			t.Fatalf("op %d %+v: directory (%d,%d,%d) != snoop (%d,%d,%d)",
				i, op, da, db, dc, sa, sb, sc)
		}
		checkDirectorySync(t, m)
	}
	checkStats(t, len(ops), m, ref)
}

// checkStats requires every L2 of m to hold the statistics and the dirty
// block count of the reference's cache of the same domain before op i. The
// dirty count is what a flush of the caches would write back.
func checkStats(t *testing.T, i int, m *Machine, ref *snoopMachine) {
	t.Helper()
	for d, c := range m.L2s {
		if got, want := c.Stats(), ref.l2s[d].Stats(); got != want {
			t.Fatalf("before op %d: L2.%d stats diverged:\ndirectory %+v\nsnoop     %+v", i, d, got, want)
		}
		if got, want := dirtyBlocks(c), dirtyBlocks(ref.l2s[d]); got != want {
			t.Fatalf("before op %d: L2.%d holds %d dirty blocks, snoop %d", i, d, got, want)
		}
	}
}

// dirtyBlocks counts the dirty blocks resident in c.
func dirtyBlocks(c *cache.Cache) (n int) {
	c.ForEachResident(func(_ uint64, _ int, dirty bool) {
		if dirty {
			n++
		}
	})
	return n
}

// TestCoherenceDirectoryMatchesSnoop is the main differential property test:
// many seeds, interleaved reads/writes/copies/DMA walks/flushes across all
// 4 L2 domains of the E5345 topology, every other seed under cache pressure.
func TestCoherenceDirectoryMatchesSnoop(t *testing.T) {
	steps := 400
	seeds := 8
	if testing.Short() {
		steps, seeds = 150, 3
	}
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			runDiff(t, topo.XeonE5345(), rand.New(rand.NewSource(int64(seed)*7919+1)), steps, seed%2 == 1)
		})
	}
}

// TestCoherenceUnhintedDomainsMatchSnoop runs the differential on a 16-core
// cluster node, whose 8 L2 domains are more than a directory entry keeps
// way hints for: domains 6 and 7 scan their sets on a hit or a recall
// while 0-5 go by hint, often for copies of the same block.
func TestCoherenceUnhintedDomainsMatchSnoop(t *testing.T) {
	steps, seeds := 300, 4
	if testing.Short() {
		steps, seeds = 150, 2
	}
	if tp := topo.NodeMachine(16); len(tp.L2Domains) <= cache.HintedDomains {
		t.Fatalf("%d L2 domains, want more than the %d with way hints", len(tp.L2Domains), cache.HintedDomains)
	}
	for seed := 0; seed < seeds; seed++ {
		t.Run("", func(t *testing.T) {
			runDiff(t, topo.NodeMachine(16), rand.New(rand.NewSource(int64(seed)*104729+3)), steps, seed%2 == 1)
		})
	}
}

// TestCoherenceVictimsCrossDirectoryPages: a range walk whose eviction
// victims run through consecutive blocks of other directory pages, so the
// walk's victim page must be fetched again at every page boundary. Every
// L2 is the E5345's 4 MiB (4096 blocks of 1 KiB, 256 sets, 8 directory
// pages): the second pass of core 0 evicts the first pass's blocks in
// address order, dirty ones included, then other cores read, write and
// copy over both while DMA walks recall the copies.
func TestCoherenceVictimsCrossDirectoryPages(t *testing.T) {
	const l2 = 4 * units.MiB
	checkTrace(t, topo.XeonE5345(), 2*l2, []traceOp{
		{kind: 1, core: 0, off: 0, n: l2},                     // fill L2.0 dirty
		{kind: 0, core: 0, off: l2, n: l2},                    // evicts blocks 0..4095 in order
		{kind: 0, core: 1, off: 300, n: l2},                   // same L2: evicts the second pass
		{kind: 1, core: 2, off: l2 / 2, n: l2 + 700},          // L2.1: invalidates L2.0's copies
		{kind: 2, core: 4, off: 5000, off2: l2 - 3000, n: l2}, // L2.2: reads L2.1's dirty lines
		{kind: 3, off: 0, n: 2 * l2},
		{kind: 0, core: 6, off: 100, n: 2*l2 - 200}, // L2.3: evicts its own first half
		{kind: 4, off: l2 / 4, n: l2},
		{kind: 1, core: 3, off: 0, n: 2 * l2},
	})
}

// TestCoherenceVictimInWalkedPage: an L2 of 128 KiB holds 128 blocks in 8
// sets, so a range walk evicts blocks of the very directory page it is
// walking (block b evicts b-128) as well as of the page before it, at the
// start of each page.
func TestCoherenceVictimInWalkedPage(t *testing.T) {
	tp := topo.XeonE5345()
	tp.L2SizeBytes = 128 * units.KiB
	const page = 512 * units.KiB // one directory page of 1 KiB blocks
	checkTrace(t, tp, 2*page, []traceOp{
		{kind: 1, core: 0, off: 0, n: 2 * page},
		{kind: 0, core: 1, off: page - 70*units.KiB, n: page},
		{kind: 1, core: 2, off: 3000, n: page + 5000},
		{kind: 0, core: 0, off: page / 2, n: page},
		{kind: 2, core: 5, off: 1000, off2: 100, n: page + 200*units.KiB},
		{kind: 3, off: 0, n: 2 * page},
		{kind: 1, core: 7, off: page - 1, n: page},
		{kind: 4, off: page / 3, n: page},
		{kind: 0, core: 3, off: 0, n: 2 * page},
	})
}

// FuzzCoherenceEquivalence lets the fuzzer hunt for trace shapes the seeded
// property test missed.
func FuzzCoherenceEquivalence(f *testing.F) {
	f.Add(int64(1), uint(64))
	f.Add(int64(42), uint(200))
	f.Fuzz(func(t *testing.T, seed int64, steps uint) {
		runDiff(t, topo.XeonE5345(), rand.New(rand.NewSource(seed)), int(steps%256)+1, seed%2 == 1)
	})
}
