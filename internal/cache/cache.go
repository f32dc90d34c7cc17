// Package cache implements a set-associative, write-back, write-allocate
// LRU cache model with byte-accurate fill/writeback accounting.
//
// The model is deliberately free of simulated-time concerns: it classifies
// accesses (hit, miss, eviction of a dirty block) and counts traffic;
// internal/hw converts that traffic into CPU time and memory-bus bytes, and
// applies MESI-lite coherence across the caches of a machine.
//
// Simulation granularity (block size) is configurable: coarse blocks speed
// up large experiments while preserving streaming behaviour. Statistics
// carry byte counts so that results can be reported in true 64-byte-line
// equivalents.
package cache

import (
	"fmt"
	"sync"
)

// Stats counts cache events. Byte fields accumulate blockBytes per event, so
// they remain meaningful across simulation granularities.
type Stats struct {
	Accesses       int64 // total block accesses
	Hits           int64
	Misses         int64
	FillBytes      int64 // bytes fetched into the cache
	WriteBackBytes int64 // dirty bytes evicted to memory (or transferred)
	Invalidations  int64 // blocks removed by coherence actions
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Accesses += other.Accesses
	s.Hits += other.Hits
	s.Misses += other.Misses
	s.FillBytes += other.FillBytes
	s.WriteBackBytes += other.WriteBackBytes
	s.Invalidations += other.Invalidations
}

// Sub returns s minus other (for snapshot deltas).
func (s Stats) Sub(other Stats) Stats {
	return Stats{
		Accesses:       s.Accesses - other.Accesses,
		Hits:           s.Hits - other.Hits,
		Misses:         s.Misses - other.Misses,
		FillBytes:      s.FillBytes - other.FillBytes,
		WriteBackBytes: s.WriteBackBytes - other.WriteBackBytes,
		Invalidations:  s.Invalidations - other.Invalidations,
	}
}

// MissesInLines converts byte-accurate miss traffic into equivalent
// hardware-line misses (e.g. 64-byte lines), independent of the simulation
// block granularity.
func (s Stats) MissesInLines(lineBytes int64) int64 {
	if lineBytes <= 0 {
		return 0
	}
	return s.FillBytes / lineBytes
}

// Cache is one physical cache (an L2 in this simulator).
//
// Replacement is exact LRU, kept as a recency order per set so that no
// access searches for its victim: every way of a set sits on one circular
// doubly linked list (next points towards older ways, prev towards newer
// ones, head is the most recently used way, so prev[head] is the victim).
// Empty ways are kept at the victim end, lowest way last, which makes the
// list order the first-invalid-lowest-index-else-LRU policy exactly: a miss
// takes prev[head] and makes it the head (one store, the circle rotates), a
// hit moves its way to the front, Invalidate re-files the way among the
// empty ones.
//
// The zero state is an empty cache: an empty way holds tag 0 (a resident
// block b is stored as b+1), a set builds its links on its first fill, and
// a cache makes its way arrays on its first fill, so New allocates nothing
// and an L2 no core ever fills costs no memory. Release hands the arrays
// back for the first fill of a later cache of the same shape.
type Cache struct {
	name       string
	blockBytes int64
	sets       int
	assoc      int

	// Way arrays indexed by set*assoc+way, nil until the first fill;
	// links hold way numbers.
	tags  []uint64 // block number + 1 (addresses end far below 2^64), or 0 for an empty way
	dirty []bool
	next  []uint8
	prev  []uint8
	head  []uint8 // per set

	stats    Stats
	released bool
}

// MaxAssoc is the highest associativity a Cache supports: way numbers and
// the recency links between them are one byte each.
const MaxAssoc = 255

// AccessResult describes the outcome of one block access.
type AccessResult struct {
	Hit          bool
	WasDirtyHit  bool   // the block was already dirty before a write hit
	Evicted      bool   // a valid block was evicted to make room
	EvictedDirty bool   // ... and it was dirty (writeback needed)
	EvictedBlock uint64 // block number of the eviction victim
}

// New creates a cache of sizeBytes split into blockBytes blocks with the
// given associativity (at most MaxAssoc). sizeBytes must be divisible by
// assoc*blockBytes.
func New(name string, sizeBytes, blockBytes int64, assoc int) *Cache {
	if sizeBytes <= 0 || blockBytes <= 0 || assoc <= 0 {
		panic("cache: non-positive geometry")
	}
	if assoc > MaxAssoc {
		panic(fmt.Sprintf("cache %s: associativity %d above the supported maximum %d",
			name, assoc, MaxAssoc))
	}
	if sizeBytes%(blockBytes*int64(assoc)) != 0 {
		panic(fmt.Sprintf("cache %s: size %d not divisible by assoc %d x block %d",
			name, sizeBytes, assoc, blockBytes))
	}
	return &Cache{
		name:       name,
		blockBytes: blockBytes,
		sets:       int(sizeBytes / (blockBytes * int64(assoc))),
		assoc:      assoc,
	}
}

// Name returns the cache's diagnostic name.
func (c *Cache) Name() string { return c.name }

// BlockBytes returns the simulation block size.
func (c *Cache) BlockBytes() int64 { return c.blockBytes }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Stats returns a copy of the accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// Block converts a byte address into this cache's block number.
func (c *Cache) Block(addr uint64) uint64 { return addr / uint64(c.blockBytes) }

// SetOf returns the set block maps to. Consecutive blocks map to
// consecutive sets (wrapping at Sets), which is what lets a range walk
// carry the set along instead of dividing per block.
func (c *Cache) SetOf(block uint64) int { return int(block % uint64(c.sets)) }

// find returns the way array index of block within set, or -1.
func (c *Cache) find(set int, block uint64) int {
	if c.tags == nil {
		return -1
	}
	base := set * c.assoc
	for w, tag := range c.tags[base : base+c.assoc] {
		if tag == block+1 {
			return base + w
		}
	}
	return -1
}

// probe is find in block's own set.
func (c *Cache) probe(block uint64) int { return c.find(c.SetOf(block), block) }

// Contains reports whether the block is resident.
func (c *Cache) Contains(block uint64) bool { return c.probe(block) >= 0 }

// ContainsDirty reports whether the block is resident and modified.
func (c *Cache) ContainsDirty(block uint64) bool {
	i := c.probe(block)
	return i >= 0 && c.dirty[i]
}

// Access performs a read or write of one block, allocating on miss and
// evicting LRU as needed. Coherence with other caches is the caller's job
// (see internal/hw); Access only manages this cache's arrays and stats.
func (c *Cache) Access(block uint64, write bool) AccessResult {
	set := c.SetOf(block)
	if i := c.find(set, block); i >= 0 {
		return AccessResult{Hit: true, WasDirtyHit: c.touch(set, i, write)}
	}
	victim, dirty := c.Fill(set, block, write)
	res := AccessResult{EvictedDirty: dirty}
	if victim != 0 {
		res.Evicted, res.EvictedBlock = true, victim-1
	}
	return res
}

// Hit is Access for a caller that knows block is resident in set (the
// machine's coherence directory says so): a hit is all it can be, and
// anything else is a bug in the caller's bookkeeping.
func (c *Cache) Hit(set int, block uint64, write bool) {
	i := c.find(set, block)
	if i < 0 {
		panic(fmt.Sprintf("cache %s: block %d reported resident in set %d is not there", c.name, block, set))
	}
	c.touch(set, i, write)
}

// Fill is Access for a caller that knows block is not resident in set: it
// allocates the block in the set's victim way without looking at the tags.
// victim is the evicted block + 1, or 0 when the way was empty; dirty says
// the evicted block was modified (its writeback is counted here).
func (c *Cache) Fill(set int, block uint64, write bool) (victim uint64, dirty bool) {
	if c.tags == nil {
		c.makeWays()
	}
	c.stats.Accesses++
	c.stats.Misses++
	c.stats.FillBytes += c.blockBytes
	base := set * c.assoc
	h := c.head[set]
	w := c.prev[base+int(h)]
	if w == h && c.assoc > 1 {
		// A circle of one way: the set's links were never built.
		c.linkSet(set)
		w = 0
	}
	c.head[set] = w
	i := base + int(w)
	// An empty way is clean: Invalidate clears both.
	victim, dirty = c.tags[i], c.dirty[i]
	if dirty {
		c.stats.WriteBackBytes += c.blockBytes
	}
	c.tags[i] = block + 1
	c.dirty[i] = write
	return victim, dirty
}

// wayArrays are the way arrays of one cache, all zero while pooled.
type wayArrays struct {
	tags       []uint64
	dirty      []bool
	next, prev []uint8
	head       []uint8
}

// wayPools holds the way arrays of released caches, one *sync.Pool per
// shape ([2]int{sets, assoc}).
var wayPools sync.Map

func wayPool(sets, assoc int) *sync.Pool {
	if p, ok := wayPools.Load([2]int{sets, assoc}); ok {
		return p.(*sync.Pool)
	}
	p, _ := wayPools.LoadOrStore([2]int{sets, assoc}, new(sync.Pool))
	return p.(*sync.Pool)
}

// makeWays gives a cache its way arrays on its first fill: a released
// cache's, all zero and so indistinguishable from new ones, when the pool
// of its shape holds any.
func (c *Cache) makeWays() {
	if c.released {
		panic(fmt.Sprintf("cache %s: used after Release", c.name))
	}
	if w, ok := wayPool(c.sets, c.assoc).Get().(*wayArrays); ok {
		c.tags, c.dirty, c.next, c.prev, c.head = w.tags, w.dirty, w.next, w.prev, w.head
		return
	}
	n := c.sets * c.assoc
	c.tags, c.dirty = make([]uint64, n), make([]bool, n)
	c.next, c.prev, c.head = make([]uint8, n), make([]uint8, n), make([]uint8, c.sets)
}

// Release ends the cache's life: its way arrays, cleared, go to a pool
// the first fill of any later cache of the same shape takes them from.
// Statistics stay readable; anything that would fill the cache afterwards
// panics, and so does a Hit, which finds nothing resident.
func (c *Cache) Release() {
	c.released = true
	if c.tags == nil {
		return
	}
	w := &wayArrays{tags: c.tags, dirty: c.dirty, next: c.next, prev: c.prev, head: c.head}
	c.tags, c.dirty, c.next, c.prev, c.head = nil, nil, nil, nil, nil
	clear(w.tags)
	clear(w.dirty)
	clear(w.next)
	clear(w.prev)
	clear(w.head)
	wayPool(c.sets, c.assoc).Put(w)
}

// linkSet builds the recency order of a set whose ways are all empty: from
// the head, way assoc-1 down to way 0, the first victim.
func (c *Cache) linkSet(set int) {
	base := set * c.assoc
	next, prev := c.next[base:base+c.assoc], c.prev[base:base+c.assoc]
	top := uint8(c.assoc - 1)
	for w := range next {
		next[w] = uint8(w) - 1
		prev[w] = uint8(w) + 1
	}
	next[0], prev[top] = top, 0
	c.head[set] = top
}

// touch records a hit on way array index i of set: the way moves to the
// front of the recency order and a write marks it dirty. It reports whether
// a written block was dirty already.
func (c *Cache) touch(set, i int, write bool) (wasDirty bool) {
	c.stats.Accesses++
	c.stats.Hits++
	if write {
		wasDirty = c.dirty[i]
		c.dirty[i] = true
	}
	base := set * c.assoc
	w, h := uint8(i-base), c.head[set]
	if w == h {
		return wasDirty
	}
	next, prev := c.next[base:base+c.assoc], c.prev[base:base+c.assoc]
	// Unlink w, then link it between the tail and the old head.
	n, p := next[w], prev[w]
	next[p], prev[n] = n, p
	tail := prev[h]
	next[tail], prev[w] = w, tail
	next[w], prev[h] = h, w
	c.head[set] = w
	return wasDirty
}

// retire re-files the just emptied way w of set among the empty ways at
// the victim end of the recency order, so that the lowest empty way is
// the next victim and the highest the last.
func (c *Cache) retire(set int, w uint8) {
	base := set * c.assoc
	next, prev := c.next[base:base+c.assoc], c.prev[base:base+c.assoc]
	tags := c.tags[base : base+c.assoc]
	n, p := next[w], prev[w]
	next[p], prev[n] = n, p
	h := c.head[set]
	if h == w {
		h = n
	}
	// Walk up from the tail past the empty ways below w; w goes behind
	// the first way that is resident or a higher empty one.
	at, passed := prev[h], 1
	for ; passed < c.assoc && tags[at] == 0 && at < w; passed++ {
		at = prev[at]
	}
	if passed == c.assoc {
		// Every other way is empty and lower (at is the tail again).
		h = w
	}
	behind := next[at]
	next[at], prev[w] = w, at
	next[w], prev[behind] = behind, w
	c.head[set] = h
}

// Invalidate removes the block if present, returning whether it was present
// and whether it was dirty (the caller accounts for the writeback transfer).
func (c *Cache) Invalidate(block uint64) (present, wasDirty bool) {
	set := c.SetOf(block)
	i := c.find(set, block)
	if i < 0 {
		return false, false
	}
	c.stats.Invalidations++
	if c.dirty[i] {
		c.stats.WriteBackBytes += c.blockBytes
		wasDirty = true
	}
	c.tags[i] = 0
	c.dirty[i] = false
	c.retire(set, uint8(i-set*c.assoc))
	return true, wasDirty
}

// Downgrade clears the dirty bit of a resident block (after it supplied data
// to a remote reader), returning whether it was dirty.
func (c *Cache) Downgrade(block uint64) bool {
	i := c.probe(block)
	if i < 0 || !c.dirty[i] {
		return false
	}
	c.dirty[i] = false
	return true
}

// ResidentBytes reports how many bytes of [addr, addr+n) are currently
// resident. Used to quantify pollution of an application working set.
func (c *Cache) ResidentBytes(addr uint64, n int64) int64 {
	if n <= 0 {
		return 0
	}
	first := c.Block(addr)
	last := c.Block(addr + uint64(n) - 1)
	var resident int64
	for b := first; b <= last; b++ {
		if c.Contains(b) {
			lo := b * uint64(c.blockBytes)
			hi := lo + uint64(c.blockBytes)
			if lo < addr {
				lo = addr
			}
			if hi > addr+uint64(n) {
				hi = addr + uint64(n)
			}
			resident += int64(hi - lo)
		}
	}
	return resident
}

// ForEachResident calls fn for every resident block, in way order (the
// machine layer's tests audit the coherence directory against it).
func (c *Cache) ForEachResident(fn func(block uint64, dirty bool)) {
	for i, tag := range c.tags {
		if tag != 0 {
			fn(tag-1, c.dirty[i])
		}
	}
}
