package cache

import "sync"

// Directory is a machine-wide coherence directory: for every block it
// tracks which cache domains hold a copy (a presence bitmask) and which
// domain, if any, holds the block modified. The machine layer (internal/hw)
// is the single mutator of the caches and keeps the directory in sync on
// every fill, eviction, Invalidate and Downgrade. Coherent accesses
// then consult the directory instead of probing every remote cache, making
// the overwhelmingly common no-remote-copy case O(1), and the local cache
// is told whether the access hits (Cache.Hit) or not (Cache.Fill) instead
// of finding out by scanning its tags.
//
// Entries are stored in fixed-size pages keyed by the high block bits. A
// range walk fetches each page once (Page, or PageIfAny when it only
// touches blocks that are cached somewhere) and indexes it per block, and
// keeps its eviction victims' page the same way: one map lookup per run of
// DirPageBlocks blocks, so the directory keeps no lookup cache of its own.
//
// Pages are not reclaimed when their entries empty out: live tracking
// would put a counter update on every presence-bit mutation to save ~1.6%
// of the touched address span (one 8 KiB page per 512 KiB ever cached).
// Directory footprint therefore grows with the addresses a Machine touches
// and is released with the Machine (one per simulated stack): Release hands
// the pages, cleared, to the first touches of later directories.
type Directory struct {
	pages map[uint64]*DirPage
}

// DirEntry is the directory's knowledge of one block. The zero value means
// "cached nowhere, clean".
type DirEntry struct {
	mask  uint64
	owner int16 // 1+domain of the modified copy; 0 = no modified copy
}

// Mask returns the presence bitmask (bit d set: domain d holds a copy).
func (e *DirEntry) Mask() uint64 { return e.mask }

// Owner returns the domain holding the modified copy, or -1.
func (e *DirEntry) Owner() int { return int(e.owner) - 1 }

// SetPresent records a (clean) copy in domain dom.
func (e *DirEntry) SetPresent(dom int) { e.mask |= 1 << uint(dom) }

// SetOwner records a modified copy in domain dom (implies presence).
func (e *DirEntry) SetOwner(dom int) {
	e.mask |= 1 << uint(dom)
	e.owner = int16(dom) + 1
}

// ClearOwner downgrades the modified copy to clean (presence is kept).
func (e *DirEntry) ClearOwner() { e.owner = 0 }

// ClearPresent removes domain dom's copy, dropping ownership if dom held it.
func (e *DirEntry) ClearPresent(dom int) {
	e.mask &^= 1 << uint(dom)
	if int(e.owner) == dom+1 {
		e.owner = 0
	}
}

const (
	dirPageShift = 9
	// DirPageBlocks is how many blocks a DirPage covers: blocks a and b
	// share a page exactly when a|(DirPageBlocks-1) == b|(DirPageBlocks-1).
	DirPageBlocks = 1 << dirPageShift
)

// DirPage holds the entries of a run of consecutive blocks. A range walk
// fetches it once (Directory.Page) and indexes it per block.
type DirPage [DirPageBlocks]DirEntry

// Entry returns the mutable entry for block, which must lie in the page.
func (p *DirPage) Entry(block uint64) *DirEntry { return &p[block&(DirPageBlocks-1)] }

// MaxDomains is the most cache domains a Directory tracks: the width of
// its presence mask.
const MaxDomains = 64

// NewDirectory returns an empty directory over the given number of cache
// domains (at most MaxDomains).
func NewDirectory(domains int) *Directory {
	if domains < 1 || domains > MaxDomains {
		panic("cache: directory needs 1..64 domains")
	}
	return &Directory{pages: make(map[uint64]*DirPage)}
}

// Page returns the page holding block's entry, allocating it on first
// touch, and the last block that page covers.
func (d *Directory) Page(block uint64) (pg *DirPage, last uint64) {
	if pg = d.pages[block>>dirPageShift]; pg == nil {
		pg = d.newPage(block)
	}
	return pg, block | (DirPageBlocks - 1)
}

// pagePool holds the pages of released directories, every entry zero.
var pagePool = sync.Pool{New: func() any { return new(DirPage) }}

// newPage is Page's first touch of a page, kept out of line so that Page
// stays small enough to inline into the range walks.
func (d *Directory) newPage(block uint64) *DirPage {
	if d.pages == nil {
		panic("cache: directory used after Release")
	}
	pg := pagePool.Get().(*DirPage)
	d.pages[block>>dirPageShift] = pg
	return pg
}

// Release ends the directory's life: its pages, cleared, go to a pool the
// first touches of later directories take them from, so a page from the
// pool is as new. Touching a page afterwards panics.
func (d *Directory) Release() {
	for _, pg := range d.pages {
		clear(pg[:])
		pagePool.Put(pg)
	}
	d.pages = nil
}

// PageIfAny is Page without the allocation: the page is nil when no block
// in it was ever cached (every entry would be zero, the entry of a block
// never cached). last is the last block the page covers either way, so a
// walk can skip the whole page.
func (d *Directory) PageIfAny(block uint64) (pg *DirPage, last uint64) {
	return d.pages[block>>dirPageShift], block | (DirPageBlocks - 1)
}

// ForEach calls fn for every block with a non-zero entry, in no particular
// order (the machine layer's tests audit the directory against the caches).
func (d *Directory) ForEach(fn func(block uint64, e DirEntry)) {
	for key, pg := range d.pages {
		for i, e := range pg {
			if e != (DirEntry{}) {
				fn(key<<dirPageShift|uint64(i), e)
			}
		}
	}
}
