// Package mem models process address spaces for the simulator.
//
// Every simulated buffer has a unique simulated virtual address (used by the
// cache model) and real backing bytes (so every transfer mechanism actually
// moves payload, making end-to-end data integrity testable); the bytes are
// zero-on-first-touch, so a buffer nobody reads costs no storage. Address
// spaces are private to a simulated process unless created shared; cross-space
// access is a protocol error that the hardware layer checks, mirroring the
// paper's observation that "a process cannot directly access the address
// space of another process" without kernel help.
package mem

import (
	"encoding/binary"
	"fmt"
)

// spaceStride separates address spaces: each space owns a 1 TiB region, so
// addresses are globally unique and cache-indexable without aliasing.
const spaceStride = 1 << 40

// Space is a simulated virtual address space with a bump allocator.
type Space struct {
	id        int
	name      string
	shared    bool
	pageBytes int64
	next      uint64
}

// World allocates address spaces with distinct address ranges.
type World struct {
	spaces []*Space
	page   int64
}

// NewWorld creates an address-space allocator with the given page size.
func NewWorld(pageBytes int64) *World {
	if pageBytes <= 0 || pageBytes&(pageBytes-1) != 0 {
		panic("mem: page size must be a positive power of two")
	}
	return &World{page: pageBytes}
}

// NewSpace creates a private address space (one per simulated process).
func (w *World) NewSpace(name string) *Space { return w.newSpace(name, false) }

// NewSharedSpace creates a space reachable from every process (System V /
// mmap shared memory, kernel pipe buffers, and the like).
func (w *World) NewSharedSpace(name string) *Space { return w.newSpace(name, true) }

func (w *World) newSpace(name string, shared bool) *Space {
	s := &Space{
		id:        len(w.spaces) + 1,
		name:      name,
		shared:    shared,
		pageBytes: w.page,
	}
	s.next = uint64(s.id) * spaceStride
	w.spaces = append(w.spaces, s)
	return s
}

// Name returns the space's diagnostic name.
func (s *Space) Name() string { return s.name }

// Shared reports whether every process may touch this space directly.
func (s *Space) Shared() bool { return s.shared }

// PageBytes returns the page size.
func (s *Space) PageBytes() int64 { return s.pageBytes }

// Alloc returns a page-aligned buffer of n bytes that reads as zeroes. The
// backing array is made on first content access (see Buffer).
func (s *Space) Alloc(n int64) *Buffer {
	if n < 0 {
		panic("mem: negative allocation")
	}
	addr := s.next
	pages := (n + s.pageBytes - 1) / s.pageBytes
	if pages == 0 {
		pages = 1
	}
	s.next += uint64(pages * s.pageBytes)
	if s.next >= uint64(s.id+1)*spaceStride {
		panic(fmt.Sprintf("mem: space %s exhausted its 1TiB region", s.name))
	}
	b := &Buffer{space: s, addr: addr, length: n}
	b.root = b
	return b
}

// AllocPhantom returns a page-aligned buffer of n bytes whose simulated
// addresses are real but whose backing is a shared scratch window. See the
// Buffer documentation for the restrictions.
func (s *Space) AllocPhantom(n int64) *Buffer {
	b := s.Alloc(0) // reserve the address range cheaply
	pages := (n + s.pageBytes - 1) / s.pageBytes
	if pages == 0 {
		pages = 1
	}
	// Alloc(0) consumed one page; extend the reservation.
	s.next += uint64((pages - 1) * s.pageBytes)
	if s.next >= uint64(s.id+1)*spaceStride {
		panic(fmt.Sprintf("mem: space %s exhausted its 1TiB region", s.name))
	}
	return &Buffer{space: s, addr: b.addr, length: n, window: phantomWindow}
}

// Phantom reports whether the buffer has no real backing.
func (b *Buffer) Phantom() bool { return b.window != nil }

// Buffer is a contiguous allocation: a simulated address range plus real
// backing bytes. Sub-buffers created with Slice share backing.
//
// Backing is lazy: the first content access (Bytes, Region.Bytes,
// FillPattern, a copy) through the allocation or any of its views makes one
// zeroed array for the whole allocation, which every view aliases from then
// on. Until then the buffer is addresses only — the nemesis cells and shm
// slots of a phantom-payload run never pay for 64 KiB of zeroing each. Like
// the rest of a simulated machine, a buffer belongs to one engine's
// machine-domain context; first touches are not synchronised.
//
// Phantom buffers (AllocPhantom) have full simulated address ranges — so
// cache and bus modelling is exact — but share one small backing window per
// space instead of real storage. They exist for communication-skeleton
// workloads (the NAS proxies move hundreds of MiB per iteration) where
// payload content does not matter. Content operations on phantom buffers
// either degrade (copies move window-sized garbage) or panic (Bytes,
// FillPattern, EqualBytes), so they cannot silently corrupt a content test.
type Buffer struct {
	space  *Space
	addr   uint64
	length int64
	// root is the allocation this buffer views (itself for one returned by
	// Alloc, nil for a phantom) and off the view's offset into it; data is
	// the root's backing array, nil until first touched.
	root   *Buffer
	off    int64
	data   []byte
	window []byte // non-nil marks a phantom buffer
}

// bytes returns the view's window of the allocation's backing array,
// materialising the array on first touch.
func (b *Buffer) bytes() []byte {
	r := b.root
	if r.data == nil {
		r.data = make([]byte, r.length)
	}
	return r.data[b.off : b.off+b.length]
}

// phantomWindowBytes bounds the content slice a phantom region exposes; it
// exceeds every chunk size used by the transfer paths.
const phantomWindowBytes = 256 * 1024

// phantomWindow is the scratch backing shared by every phantom buffer in
// the process. Phantom content is meaningless by construction and the copy
// paths skip phantom-backed movement entirely, so the window is only ever
// read — safe to share across concurrently simulated machines (the -race
// experiment runner would flag any future writer).
var phantomWindow = make([]byte, phantomWindowBytes)

// Space returns the owning address space.
func (b *Buffer) Space() *Space { return b.space }

// Addr returns the simulated virtual address of the first byte.
func (b *Buffer) Addr() uint64 { return b.addr }

// Len returns the buffer length in bytes.
func (b *Buffer) Len() int64 { return b.length }

// Bytes returns the live backing slice. Panics on phantom buffers: content
// access to a phantom is a usage bug.
func (b *Buffer) Bytes() []byte {
	if b.Phantom() {
		panic("mem: Bytes() on a phantom buffer")
	}
	return b.bytes()
}

// Slice returns a view of [off, off+n) sharing backing bytes.
func (b *Buffer) Slice(off, n int64) *Buffer {
	if off < 0 || n < 0 || off+n > b.length {
		panic(fmt.Sprintf("mem: slice [%d,%d) outside buffer of %d bytes", off, off+n, b.length))
	}
	if b.Phantom() {
		return &Buffer{space: b.space, addr: b.addr + uint64(off), length: n, window: b.window}
	}
	return &Buffer{space: b.space, addr: b.addr + uint64(off), length: n, root: b.root, off: b.off + off}
}

// FillPattern writes a deterministic byte pattern derived from seed, for
// end-to-end integrity checks. Panics on phantom buffers.
func (b *Buffer) FillPattern(seed uint64) {
	if b.Phantom() {
		panic("mem: FillPattern on a phantom buffer")
	}
	FillPatternBytes(b.bytes(), seed)
}

// FillPatternBytes writes the deterministic xorshift stream into any byte
// slice — the single definition of the pattern every content check in the
// repository compares against. One xorshift step yields the eight
// little-endian bytes of x; writing whole words keeps the pattern
// identical to the historical byte-at-a-time loop while filling large
// sweep buffers an order of magnitude faster.
func FillPatternBytes(data []byte, seed uint64) {
	x := seed*2654435761 + 0x9e3779b97f4a7c15
	n := len(data) &^ 7
	for i := 0; i < n; i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.LittleEndian.PutUint64(data[i:], x)
	}
	if rem := data[n:]; len(rem) > 0 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		for j := range rem {
			rem[j] = byte(x >> (8 * uint(j)))
		}
	}
}

// EqualBytes reports whether two buffers have identical contents.
func EqualBytes(a, b *Buffer) bool {
	if a.Len() != b.Len() {
		return false
	}
	ab, bb := a.Bytes(), b.Bytes()
	for i := range ab {
		if ab[i] != bb[i] {
			return false
		}
	}
	return true
}

// physRun returns the length of the physically contiguous run that starts
// at addr, capped at remaining, assuming the OS allocates physical memory
// in runs of runPages pages aligned to run boundaries. The I/OAT backend
// must issue one request per such run (paper §4.2: "submitting copies to
// I/OAT requires an access to the physical device for every physically
// contiguous chunk").
func (s *Space) physRun(addr, remaining uint64, runPages int) uint64 {
	if runPages <= 0 {
		runPages = 1
	}
	runBytes := uint64(runPages) * uint64(s.pageBytes)
	return min(runBytes-addr%runBytes, remaining)
}

// Region is a view into a buffer used to describe scatter/gather
// (noncontiguous) data, mirroring KNEM's "vectorial buffers".
type Region struct {
	Buf *Buffer
	Off int64
	Len int64
}

// Addr returns the simulated address of the region's first byte.
func (r Region) Addr() uint64 { return r.Buf.Addr() + uint64(r.Off) }

// Pages returns the number of pages spanned by the region.
func (r Region) Pages() int64 {
	if r.Len == 0 {
		return 0
	}
	page := uint64(r.Buf.space.pageBytes)
	first := r.Addr() / page
	last := (r.Addr() + uint64(r.Len) - 1) / page
	return int64(last-first) + 1
}

// Bytes returns the live backing slice of the region. For phantom buffers
// it returns (up to) a window-sized scratch slice — enough for the chunked
// transfer paths to "move" representative bytes without real storage.
func (r Region) Bytes() []byte {
	if r.Buf.Phantom() {
		n := r.Len
		if max := int64(len(r.Buf.window)); n > max {
			n = max
		}
		return r.Buf.window[:n]
	}
	return r.Buf.bytes()[r.Off : r.Off+r.Len]
}

// IOVec is an ordered list of regions (struct iovec analogue).
type IOVec []Region

// TotalLen returns the summed region lengths.
func (v IOVec) TotalLen() int64 {
	var n int64
	for _, r := range v {
		n += r.Len
	}
	return n
}

// Validate checks that every region lies within its buffer.
func (v IOVec) Validate() error {
	for i, r := range v {
		if r.Buf == nil {
			return fmt.Errorf("mem: iovec[%d] has nil buffer", i)
		}
		if r.Off < 0 || r.Len < 0 || r.Off+r.Len > r.Buf.Len() {
			return fmt.Errorf("mem: iovec[%d] [%d,%d) outside buffer of %d bytes",
				i, r.Off, r.Off+r.Len, r.Buf.Len())
		}
	}
	return nil
}

// VecOf wraps a whole buffer as a single-region IOVec.
func VecOf(b *Buffer) IOVec {
	return IOVec{{Buf: b, Off: 0, Len: b.Len()}}
}

// CopyBytes copies real payload bytes from src to dst regions (lengths must
// match). It models data movement content-wise only — timing is charged
// separately by internal/hw. When either side is phantom-backed no bytes
// move at all: phantom content is meaningless by construction, so a copy
// into or out of one can only produce (or consume) garbage, and skipping
// the movement keeps communication-skeleton sweeps free of memcpy cost.
// A source nobody has touched reads as zeroes, so copying it clears dst
// and materialises neither side's backing (an untouched dst already
// reads as zeroes): an eager cell that only ever carried phantom payload
// stages into an unexpected-message temp without either getting storage.
func CopyBytes(dst, src Region) {
	if dst.Len != src.Len {
		panic(fmt.Sprintf("mem: CopyBytes length mismatch %d != %d", dst.Len, src.Len))
	}
	if dst.Buf.Phantom() || src.Buf.Phantom() {
		return
	}
	if src.Buf.root.data == nil {
		if dst.Buf.root.data != nil {
			clear(dst.Bytes())
		}
		return
	}
	copy(dst.Bytes(), src.Bytes())
}
