package cache

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// stampCache is the replacement policy Cache had before its recency lists:
// a timestamp per way, 0 marking an empty one, and the victim found as the
// first minimum over the set's stamps. It is kept as the reference the
// list order is checked against: first empty way by index, else LRU.
type stampCache struct {
	blockBytes  int64
	sets, assoc int
	tags        []uint64 // block number + 1, or 0
	dirty       []bool
	stamp       []uint64
	clock       uint64
	stats       Stats
}

func newStampCache(sizeBytes, blockBytes int64, assoc int) *stampCache {
	n := int(sizeBytes / blockBytes)
	return &stampCache{blockBytes: blockBytes, sets: n / assoc, assoc: assoc,
		tags: make([]uint64, n), dirty: make([]bool, n), stamp: make([]uint64, n)}
}

func (c *stampCache) probe(block uint64) int {
	base := int(block%uint64(c.sets)) * c.assoc
	for i := base; i < base+c.assoc; i++ {
		if c.tags[i] == block+1 {
			return i
		}
	}
	return -1
}

func (c *stampCache) Access(block uint64, write bool) AccessResult {
	c.clock++
	c.stats.Accesses++
	if i := c.probe(block); i >= 0 {
		c.stats.Hits++
		res := AccessResult{Hit: true, WasDirtyHit: write && c.dirty[i]}
		c.dirty[i] = c.dirty[i] || write
		c.stamp[i] = c.clock
		return res
	}
	base := int(block%uint64(c.sets)) * c.assoc
	victim := base
	for i := base; i < base+c.assoc; i++ {
		if c.stamp[i] < c.stamp[victim] {
			victim = i
		}
	}
	c.stats.Misses++
	c.stats.FillBytes += c.blockBytes
	res := AccessResult{}
	if c.tags[victim] != 0 {
		res.Evicted, res.EvictedBlock, res.EvictedDirty = true, c.tags[victim]-1, c.dirty[victim]
		if res.EvictedDirty {
			c.stats.WriteBackBytes += c.blockBytes
		}
	}
	c.tags[victim], c.dirty[victim], c.stamp[victim] = block+1, write, c.clock
	return res
}

func (c *stampCache) Invalidate(block uint64) (present, wasDirty bool) {
	i := c.probe(block)
	if i < 0 {
		return false, false
	}
	c.stats.Invalidations++
	if wasDirty = c.dirty[i]; wasDirty {
		c.stats.WriteBackBytes += c.blockBytes
	}
	c.tags[i], c.dirty[i], c.stamp[i] = 0, false, 0
	return true, wasDirty
}

func (c *stampCache) Downgrade(block uint64) bool {
	i := c.probe(block)
	if i < 0 || !c.dirty[i] {
		return false
	}
	c.dirty[i] = false
	return true
}

func (c *stampCache) Flush() {
	for i := range c.tags {
		if c.dirty[i] {
			c.stats.WriteBackBytes += c.blockBytes
		}
		c.tags[i], c.dirty[i], c.stamp[i] = 0, false, 0
	}
}

// refGeometries are the associativities the differential runs at: direct
// mapped, the smallest real list, the E5345's 16 ways and the 24 ways of
// the 6 MiB topology. Four sets each, so a short trace fills them.
var refGeometries = []int{1, 2, 16, 24}

// runRecencyDiff drives a Cache and the stamp reference through one random
// sequence of Access / Invalidate / Downgrade / Flush, comparing every
// result, the statistics and the contents of every way after every operation. Blocks come from three
// sets' worth of tags, so sets overflow and hits, evictions and
// invalidations of resident blocks are all common.
func runRecencyDiff(t *testing.T, rng *rand.Rand, assoc, steps int) {
	t.Helper()
	const sets, blockBytes = 4, 64
	size := int64(sets * assoc * blockBytes)
	c, ref := New("list", size, blockBytes, assoc), newStampCache(size, blockBytes, assoc)
	span := 3 * sets * assoc
	for i := 0; i < steps; i++ {
		b := uint64(rng.Intn(span))
		switch k := rng.Intn(64); {
		case k == 0:
			c.Flush()
			ref.Flush()
		case k < 12:
			gp, gd := c.Invalidate(b)
			wp, wd := ref.Invalidate(b)
			if gp != wp || gd != wd {
				t.Fatalf("assoc %d op %d: Invalidate(%d) = (%v,%v), reference (%v,%v)", assoc, i, b, gp, gd, wp, wd)
			}
		case k < 16:
			if got, want := c.Downgrade(b), ref.Downgrade(b); got != want {
				t.Fatalf("assoc %d op %d: Downgrade(%d) = %v, reference %v", assoc, i, b, got, want)
			}
		default:
			write := k%2 == 0
			if got, want := c.Access(b, write), ref.Access(b, write); got != want {
				t.Fatalf("assoc %d op %d: Access(%d,%v) = %+v, reference %+v", assoc, i, b, write, got, want)
			}
		}
		if c.Stats() != ref.stats {
			t.Fatalf("assoc %d op %d: stats %+v, reference %+v", assoc, i, c.Stats(), ref.stats)
		}
		// Which empty way a fill takes shows in no result, only here.
		if tags, dirty := ways(c); !slices.Equal(tags, ref.tags) || !slices.Equal(dirty, ref.dirty) {
			t.Fatalf("assoc %d op %d: way contents differ from the reference:\n%v\n%v", assoc, i, tags, ref.tags)
		}
	}
}

// ways returns the tag and dirty bit of every way of c; a cache that has
// not made its arrays yet reads as all ways empty.
func ways(c *Cache) ([]uint64, []bool) {
	if c.tags == nil {
		n := c.sets * c.assoc
		return make([]uint64, n), make([]bool, n)
	}
	return c.tags, c.dirty
}

// TestRecencyListMatchesStampReference: the recency lists choose the same
// victims, report the same hits and count the same traffic as the stamp
// scan they replaced.
func TestRecencyListMatchesStampReference(t *testing.T) {
	steps := 20000
	if testing.Short() {
		steps = 4000
	}
	for _, assoc := range refGeometries {
		for seed := int64(1); seed <= 4; seed++ {
			runRecencyDiff(t, rand.New(rand.NewSource(seed*104729)), assoc, steps)
		}
	}
}

// FuzzRecencyListMatchesStampReference lets the fuzzer look for operation
// orders the seeded runs missed.
func FuzzRecencyListMatchesStampReference(f *testing.F) {
	f.Add(int64(1), uint(0), uint(300))
	f.Add(int64(99), uint(3), uint(4000))
	f.Fuzz(func(t *testing.T, seed int64, geom, steps uint) {
		assoc := refGeometries[geom%uint(len(refGeometries))]
		runRecencyDiff(t, rand.New(rand.NewSource(seed)), assoc, int(steps%8192)+1)
	})
}

// TestFlushedCacheChoosesLikeFresh: Flush leaves no trace in the recency
// order, so a flushed cache and a new one put the same blocks in the same
// ways and evict the same ones over the same sequence.
func TestFlushedCacheChoosesLikeFresh(t *testing.T) {
	choosesLikeFresh(t, 7, func(used *Cache) *Cache { used.Flush(); return used })
}

// choosesLikeFresh runs 5000 random accesses and invalidations on a
// cache, hands it to emptied, and requires the cache emptied returns and
// a new one to give the same results and way contents over the next 5000
// accesses.
func choosesLikeFresh(t *testing.T, seed int64, emptied func(used *Cache) *Cache) {
	t.Helper()
	const sets, assoc, blockBytes = 4, 16, 64
	rng := rand.New(rand.NewSource(seed))
	draw := func() (uint64, bool) { return uint64(rng.Intn(3 * sets * assoc)), rng.Intn(2) == 0 }
	used := New("used", sets*assoc*blockBytes, blockBytes, assoc)
	for i := 0; i < 5000; i++ {
		if b, write := draw(); rng.Intn(8) == 0 {
			used.Invalidate(b)
		} else {
			used.Access(b, write)
		}
	}
	c := emptied(used)
	fresh := New("fresh", sets*assoc*blockBytes, blockBytes, assoc)
	for i := 0; i < 5000; i++ {
		b, write := draw()
		if got, want := c.Access(b, write), fresh.Access(b, write); got != want {
			t.Fatalf("op %d: Access(%d,%v) emptied %+v, fresh %+v", i, b, write, got, want)
		}
		gotTags, gotDirty := ways(c)
		wantTags, wantDirty := ways(fresh)
		if !slices.Equal(gotTags, wantTags) || !slices.Equal(gotDirty, wantDirty) {
			t.Fatalf("op %d: way contents differ:\n%v\n%v", i, gotTags, wantTags)
		}
	}
}

// TestUnallocatedCacheAnswersAsEmpty: New makes no way array, and until
// its first fill a cache answers every query and coherence action as an
// emptied one does, without making them either.
func TestUnallocatedCacheAnswersAsEmpty(t *testing.T) {
	const sets, assoc, blockBytes = 4, 16, 64
	lazy := New("lazy", sets*assoc*blockBytes, blockBytes, assoc)
	if lazy.tags != nil || lazy.dirty != nil || lazy.next != nil || lazy.prev != nil || lazy.head != nil {
		t.Fatal("New made way arrays")
	}
	emptied := New("emptied", sets*assoc*blockBytes, blockBytes, assoc)
	for b := uint64(0); b < 2*sets*assoc; b++ {
		emptied.Access(b, b%3 == 0)
	}
	emptied.Flush()
	before := emptied.Stats()
	for b := uint64(0); b < 3*sets*assoc; b++ {
		if got, want := lazy.Contains(b), emptied.Contains(b); got != want {
			t.Fatalf("Contains(%d) = %v, emptied cache %v", b, got, want)
		}
		if got, want := lazy.ContainsDirty(b), emptied.ContainsDirty(b); got != want {
			t.Fatalf("ContainsDirty(%d) = %v, emptied cache %v", b, got, want)
		}
		if got, want := lazy.Downgrade(b), emptied.Downgrade(b); got != want {
			t.Fatalf("Downgrade(%d) = %v, emptied cache %v", b, got, want)
		}
		gp, gd := lazy.Invalidate(b)
		wp, wd := emptied.Invalidate(b)
		if gp != wp || gd != wd {
			t.Fatalf("Invalidate(%d) = (%v,%v), emptied cache (%v,%v)", b, gp, gd, wp, wd)
		}
	}
	span := int64(3 * sets * assoc * blockBytes)
	if got, want := lazy.ResidentBytes(0, span), emptied.ResidentBytes(0, span); got != want {
		t.Fatalf("ResidentBytes = %d, emptied cache %d", got, want)
	}
	lazy.ForEachResident(func(block uint64, _ bool) { t.Fatalf("ForEachResident reports block %d", block) })
	lazy.Flush()
	emptied.Flush()
	if got, want := lazy.Stats(), emptied.Stats().Sub(before); got != want {
		t.Fatalf("stats %+v, emptied cache %+v", got, want)
	}
	if lazy.tags != nil {
		t.Fatal("a query or coherence action made way arrays")
	}
	lazy.Access(0, false)
	if len(lazy.tags) != sets*assoc || len(lazy.head) != sets {
		t.Fatalf("the first fill made %d ways and %d set heads, want %d and %d",
			len(lazy.tags), len(lazy.head), sets*assoc, sets)
	}
}

func TestNewRejectsAssocAboveLinkWidth(t *testing.T) {
	New("ok", MaxAssoc*64, 64, MaxAssoc) // the limit itself is fine
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("New accepted an associativity its one-byte way links cannot hold")
		} else if msg, _ := r.(string); !strings.Contains(msg, "256") || !strings.Contains(msg, "255") {
			t.Fatalf("panic %q does not name the associativity and the limit", r)
		}
	}()
	New("wide", 256*64, 64, 256)
}
