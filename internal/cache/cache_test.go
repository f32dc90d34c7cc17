package cache

import (
	"testing"
	"testing/quick"
	"unsafe"
)

func newSmall() *Cache {
	// 4 sets x 2 ways x 64B blocks = 512 B cache.
	return New("t", 512, 64, 2)
}

func TestMissThenHit(t *testing.T) {
	c := newSmall()
	if res := c.Access(10, false); res.Hit {
		t.Fatal("first access should miss")
	}
	if res := c.Access(10, false); !res.Hit {
		t.Fatal("second access should hit")
	}
	s := c.Stats()
	if s.Misses != 1 || s.Hits != 1 || s.FillBytes != 64 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestLRUEviction(t *testing.T) {
	c := newSmall() // 4 sets, 2 ways: blocks b, b+4, b+8 map to the same set
	c.Access(0, false)
	c.Access(4, false)
	c.Access(0, false) // 0 is now MRU; 4 is LRU
	res := c.Access(8, false)
	if !res.Evicted || res.EvictedBlock != 4 {
		t.Fatalf("expected eviction of LRU block 4, got %+v", res)
	}
	if !c.Contains(0) || c.Contains(4) || !c.Contains(8) {
		t.Fatal("post-eviction residency wrong")
	}
}

func TestDirtyWriteback(t *testing.T) {
	c := newSmall()
	c.Access(0, true) // dirty
	c.Access(4, false)
	res := c.Access(8, false) // evicts 0 (LRU, dirty)
	if !res.EvictedDirty || res.EvictedBlock != 0 {
		t.Fatalf("expected dirty eviction of 0, got %+v", res)
	}
	if c.Stats().WriteBackBytes != 64 {
		t.Fatalf("writeback bytes = %d, want 64", c.Stats().WriteBackBytes)
	}
}

func TestInvalidate(t *testing.T) {
	c := newSmall()
	c.Access(3, true)
	present, dirty := c.Invalidate(3)
	if !present || !dirty {
		t.Fatalf("invalidate = (%v,%v), want (true,true)", present, dirty)
	}
	if c.Contains(3) {
		t.Fatal("block still resident after invalidate")
	}
	present, dirty = c.Invalidate(3)
	if present || dirty {
		t.Fatal("second invalidate should be a no-op")
	}
}

func TestDowngrade(t *testing.T) {
	c := newSmall()
	c.Access(5, true)
	if !c.ContainsDirty(5) {
		t.Fatal("block should be dirty")
	}
	if !c.Downgrade(5) {
		t.Fatal("downgrade should report it was dirty")
	}
	if c.ContainsDirty(5) {
		t.Fatal("block should be clean after downgrade")
	}
	if !c.Contains(5) {
		t.Fatal("downgrade must not evict")
	}
}

func TestResidentBytes(t *testing.T) {
	c := New("t", 1024, 64, 2)
	// Touch addresses 0..127 (blocks 0 and 1).
	c.Access(0, false)
	c.Access(1, false)
	if got := c.ResidentBytes(0, 128); got != 128 {
		t.Fatalf("ResidentBytes(0,128) = %d, want 128", got)
	}
	if got := c.ResidentBytes(32, 64); got != 64 {
		t.Fatalf("ResidentBytes(32,64) = %d, want 64", got)
	}
	if got := c.ResidentBytes(128, 64); got != 0 {
		t.Fatalf("ResidentBytes(128,64) = %d, want 0", got)
	}
}

func TestFlush(t *testing.T) {
	c := newSmall()
	c.Access(1, true)
	c.Access(2, false)
	c.Flush()
	if c.Contains(1) || c.Contains(2) {
		t.Fatal("blocks resident after flush")
	}
	if c.Stats().WriteBackBytes != 64 {
		t.Fatalf("flush writebacks = %d, want 64 (one dirty block)", c.Stats().WriteBackBytes)
	}
}

// Property: a block is always resident immediately after being accessed, and
// the set never holds more than assoc valid distinct blocks.
func TestAccessInvariantsProperty(t *testing.T) {
	prop := func(blocks []uint16, writes []bool) bool {
		c := New("p", 2048, 64, 4) // 8 sets x 4 ways
		for i, braw := range blocks {
			b := uint64(braw % 256)
			w := i < len(writes) && writes[i]
			c.Access(b, w)
			if !c.Contains(b) {
				return false
			}
			// Count residents of b's set.
			cnt := 0
			for probe := uint64(0); probe < 256; probe++ {
				if probe%8 == b%8 && c.Contains(probe) {
					cnt++
				}
			}
			if cnt > 4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: traffic conservation — every miss fills exactly one block, so
// FillBytes == Misses*blockBytes, and Hits+Misses == Accesses.
func TestStatsConservationProperty(t *testing.T) {
	prop := func(blocks []uint16) bool {
		c := New("p", 1024, 64, 2)
		for _, braw := range blocks {
			c.Access(uint64(braw), braw%3 == 0)
		}
		s := c.Stats()
		return s.Hits+s.Misses == s.Accesses &&
			s.FillBytes == s.Misses*64 &&
			s.WriteBackBytes%64 == 0
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: a working set no larger than one set's capacity, touched
// round-robin with stride = sets, never misses after the first pass
// (LRU keeps it resident).
func TestLRUKeepsSmallWorkingSetProperty(t *testing.T) {
	prop := func(startRaw uint16, passesRaw uint8) bool {
		c := New("p", 4096, 64, 4) // 16 sets x 4 ways
		start := uint64(startRaw)
		passes := int(passesRaw%5) + 2
		// 4 blocks mapping to the same set (stride 16), capacity 4.
		ws := []uint64{start, start + 16, start + 32, start + 48}
		for pass := 0; pass < passes; pass++ {
			for _, b := range ws {
				c.Access(b, false)
			}
		}
		return c.Stats().Misses == int64(len(ws))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsSubAndLines(t *testing.T) {
	c := newSmall()
	c.Access(0, false)
	before := c.Stats()
	c.Access(1, false)
	c.Access(1, false)
	d := c.Stats().Sub(before)
	if d.Misses != 1 || d.Hits != 1 || d.Accesses != 2 {
		t.Fatalf("delta = %+v", d)
	}
	if got := d.MissesInLines(64); got != 1 {
		t.Fatalf("MissesInLines = %d, want 1", got)
	}
	// Coarse-block equivalence: 1 fill of a 1KiB block = 16 64B lines.
	big := New("big", 16*1024, 1024, 4)
	big.Access(0, false)
	if got := big.Stats().MissesInLines(64); got != 16 {
		t.Fatalf("coarse MissesInLines = %d, want 16", got)
	}
}

// The way hints live in what was the entry's padding: an entry stays 16
// bytes, so a directory page stays 8 KiB.
func TestDirEntryStaysSixteenBytes(t *testing.T) {
	if got := unsafe.Sizeof(DirEntry{}); got != 16 {
		t.Fatalf("DirEntry is %d bytes, want 16", got)
	}
	if got := unsafe.Sizeof(DirPage{}); got != 8<<10 {
		t.Fatalf("DirPage is %d bytes, want 8 KiB", got)
	}
}

// Fill reports the way it put the block in, and the way variants act on
// that way as the searching calls act on the block.
func TestWayVariantsMatchSearches(t *testing.T) {
	byWay, bySearch := newSmall(), newSmall()
	set := byWay.SetOf(9)
	way, _, _ := byWay.Fill(set, 9, true)
	bySearch.Access(9, true)
	byWay.DowngradeWay(set, way)
	bySearch.Downgrade(9)
	byWay.HitWay(set, way, false)
	bySearch.Access(9, false)
	if byWay.ContainsDirty(9) || !byWay.Contains(9) {
		t.Fatal("DowngradeWay left the block dirty or took it away")
	}
	if dirty := byWay.InvalidateWay(set, way); dirty || byWay.Contains(9) {
		t.Fatalf("InvalidateWay: dirty %v, still resident %v; want a clean block gone", dirty, byWay.Contains(9))
	}
	bySearch.Invalidate(9)
	if byWay.Stats() != bySearch.Stats() {
		t.Fatalf("stats by way %+v, by search %+v", byWay.Stats(), bySearch.Stats())
	}
}
