package mem

import (
	"testing"
	"testing/quick"
)

func TestAllocDistinctAddresses(t *testing.T) {
	w := NewWorld(4096)
	s1 := w.NewSpace("p0")
	s2 := w.NewSpace("p1")
	a := s1.Alloc(100)
	b := s1.Alloc(100)
	c := s2.Alloc(100)
	if a.Addr() == b.Addr() {
		t.Fatal("two allocations share an address")
	}
	if b.Addr()-a.Addr() < 4096 {
		t.Fatal("allocations not page-separated")
	}
	if a.Addr()/(1<<40) == c.Addr()/(1<<40) {
		t.Fatal("different spaces share an address region")
	}
}

func TestAllocPageAligned(t *testing.T) {
	w := NewWorld(4096)
	s := w.NewSpace("p")
	for _, n := range []int64{1, 4095, 4096, 4097, 1 << 20} {
		b := s.Alloc(n)
		if b.Addr()%4096 != 0 {
			t.Fatalf("Alloc(%d) addr %#x not page aligned", n, b.Addr())
		}
		if b.Len() != n || int64(len(b.Bytes())) != n {
			t.Fatalf("Alloc(%d) wrong length", n)
		}
	}
}

func TestSliceSharesBacking(t *testing.T) {
	w := NewWorld(4096)
	b := w.NewSpace("p").Alloc(256)
	sub := b.Slice(64, 32)
	if sub.Addr() != b.Addr()+64 || sub.Len() != 32 {
		t.Fatalf("slice addr/len wrong: %#x/%d", sub.Addr(), sub.Len())
	}
	sub.Bytes()[0] = 0xAB
	if b.Bytes()[64] != 0xAB {
		t.Fatal("slice does not share backing")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range slice should panic")
		}
	}()
	b.Slice(250, 10)
}

func TestFillPatternDeterministicAndDistinct(t *testing.T) {
	w := NewWorld(4096)
	a := w.NewSpace("p").Alloc(1024)
	b := w.NewSpace("q").Alloc(1024)
	a.FillPattern(7)
	b.FillPattern(7)
	if !EqualBytes(a, b) {
		t.Fatal("same seed should produce same pattern")
	}
	b.FillPattern(8)
	if EqualBytes(a, b) {
		t.Fatal("different seeds should differ")
	}
}

func TestPhysSegments(t *testing.T) {
	w := NewWorld(4096)
	s := w.NewSpace("p")
	b := s.Alloc(64 * 1024)    // 16 pages
	segs := physSegments(b, 8) // 32 KiB runs
	var total int64
	for _, n := range segs {
		if n <= 0 {
			t.Fatalf("non-positive segment %d", n)
		}
		total += n
	}
	if total != b.Len() {
		t.Fatalf("segments sum to %d, want %d", total, b.Len())
	}
	if len(segs) < 2 || len(segs) > 3 {
		t.Fatalf("64KiB buffer over 32KiB runs should give 2-3 segments, got %d", len(segs))
	}
}

// Property: physical segments always partition the buffer exactly, and each
// segment except possibly the first and last is a full run.
func TestPhysSegmentsPartitionProperty(t *testing.T) {
	w := NewWorld(4096)
	s := w.NewSpace("p")
	prop := func(nRaw uint32, runRaw uint8) bool {
		n := int64(nRaw%(1<<22)) + 1
		run := int(runRaw%16) + 1
		b := s.Alloc(n)
		segs := physSegments(b, run)
		var total int64
		runBytes := int64(run) * 4096
		for i, seg := range segs {
			total += seg
			if i > 0 && i < len(segs)-1 && seg != runBytes {
				return false
			}
			if seg > runBytes {
				return false
			}
		}
		return total == n
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// physSegments lists the physically contiguous runs backing b: the walk
// PhysDescriptors makes over each side of a pair, materialised.
func physSegments(b *Buffer, runPages int) []int64 {
	var segs []int64
	for addr, left := b.addr, uint64(b.length); left > 0; {
		n := b.space.physRun(addr, left, runPages)
		segs = append(segs, int64(n))
		addr += n
		left -= n
	}
	return segs
}

// Property: a pair's descriptor count is the number of pieces in the
// merge of both sides' physical runs (the count as it was first written,
// over materialised segment lists).
func TestPhysDescriptorsMergeRuns(t *testing.T) {
	s := NewWorld(4096).NewSpace("p")
	a, b := s.Alloc(1<<20), s.Alloc(1<<20)
	prop := func(dOff, sOff, nRaw uint32, runRaw uint8) bool {
		n := int64(nRaw%(1<<19)) + 1
		rp := RegionPair{
			Dst: Region{Buf: a, Off: int64(dOff % (1 << 19)), Len: n},
			Src: Region{Buf: b, Off: int64(sOff % (1 << 19)), Len: n},
		}
		run := int(runRaw % 17) // 0 means one page
		dSegs := physSegments(a.Slice(rp.Dst.Off, n), run)
		sSegs := physSegments(b.Slice(rp.Src.Off, n), run)
		want := 0
		var dRem, sRem int64
		for i, j := 0, 0; i < len(dSegs) || j < len(sSegs); want++ {
			if dRem == 0 && i < len(dSegs) {
				dRem, i = dSegs[i], i+1
			}
			if sRem == 0 && j < len(sSegs) {
				sRem, j = sSegs[j], j+1
			}
			m := min(dRem, sRem)
			dRem -= m
			sRem -= m
		}
		return rp.PhysDescriptors(run) == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// overlayCopy moves src into dst the way the kernel, KNEM and I/OAT copy
// loops do: one CopyBytes per OverlayEach pair, each at most maxChunk bytes.
func overlayCopy(t *testing.T, dst, src IOVec, maxChunk int64) {
	t.Helper()
	OverlayEach(dst, src, maxChunk, func(pair RegionPair) {
		if maxChunk > 0 && pair.Src.Len > maxChunk {
			t.Fatalf("pair of %d bytes exceeds maxChunk %d", pair.Src.Len, maxChunk)
		}
		CopyBytes(pair.Dst, pair.Src)
	})
}

func TestOverlayRoundTrip(t *testing.T) {
	w := NewWorld(4096)
	s := w.NewSpace("p")
	src := s.Alloc(1000)
	src.FillPattern(42)
	dst := s.Alloc(1000)

	// Mismatched region boundaries: src in 3 regions, dst in 4.
	sv := IOVec{
		{Buf: src, Off: 0, Len: 100},
		{Buf: src, Off: 100, Len: 650},
		{Buf: src, Off: 750, Len: 250},
	}
	dv := IOVec{
		{Buf: dst, Off: 0, Len: 10},
		{Buf: dst, Off: 10, Len: 500},
		{Buf: dst, Off: 510, Len: 489},
		{Buf: dst, Off: 999, Len: 1},
	}
	if err := sv.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := dv.Validate(); err != nil {
		t.Fatal(err)
	}
	overlayCopy(t, dv, sv, 0)
	if !EqualBytes(src, dst) {
		t.Fatal("OverlayEach pairs did not reproduce source bytes")
	}
}

// Property: copying the OverlayEach pairs of random splits of the same buffer
// pair, in chunks of any non-zero bound, reproduces the source exactly.
func TestOverlaySplitProperty(t *testing.T) {
	w := NewWorld(4096)
	s := w.NewSpace("p")
	prop := func(sizeRaw uint16, cutsRaw [6]uint16, chunkRaw uint16, seed uint64) bool {
		n := int64(sizeRaw%4096) + 1
		src := s.Alloc(n)
		src.FillPattern(seed)
		dst := s.Alloc(n)
		split := func(cuts []uint16) IOVec {
			offs := []int64{0, n}
			for _, c := range cuts {
				offs = append(offs, int64(c)%n)
			}
			// insertion-sort the small slice
			for i := 1; i < len(offs); i++ {
				for j := i; j > 0 && offs[j] < offs[j-1]; j-- {
					offs[j], offs[j-1] = offs[j-1], offs[j]
				}
			}
			var v IOVec
			for i := 0; i+1 < len(offs); i++ {
				if l := offs[i+1] - offs[i]; l > 0 {
					v = append(v, Region{Buf: src, Off: offs[i], Len: l})
				}
			}
			return v
		}
		sv := split(cutsRaw[:3])
		dv := IOVec{{Buf: dst, Off: 0, Len: n}}
		overlayCopy(t, dv, sv, int64(chunkRaw%4096)+1)
		return EqualBytes(src, dst)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// SliceInto cuts logical windows across region boundaries, skipping
// whole regions before the window, and appends into the caller's scratch:
// reused, a window walk and the OverlayEach over it allocate nothing.
func TestSliceIntoReusesScratch(t *testing.T) {
	s := NewWorld(4096).NewSpace("p")
	a, b := s.Alloc(100), s.Alloc(300)
	v := IOVec{{Buf: a, Off: 0, Len: 100}, {Buf: b, Off: 50, Len: 200}}
	got := v.SliceInto(nil, 90, 30)
	want := IOVec{{Buf: a, Off: 90, Len: 10}, {Buf: b, Off: 50, Len: 20}}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("window [90,120): %+v, want %+v", got, want)
	}
	if got := v.SliceInto(nil, 100, 200); len(got) != 1 || got[0] != (Region{Buf: b, Off: 50, Len: 200}) {
		t.Fatalf("window [100,300): %+v", got)
	}
	dst := s.Alloc(300)
	scratch := make(IOVec, 0, 2)
	allocs := testing.AllocsPerRun(20, func() {
		for off := int64(0); off < 300; off += 64 {
			n := min(64, 300-off)
			scratch = v.SliceInto(scratch[:0], off, n)
			OverlayEach(IOVec{{Buf: dst, Off: off, Len: n}}, scratch, 16, func(RegionPair) {})
		}
	})
	if allocs != 0 {
		t.Fatalf("a reused window walk allocates %v objects", allocs)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a window past the vector's end did not panic")
		}
	}()
	v.SliceInto(nil, 290, 20)
}

func TestIOVecValidate(t *testing.T) {
	w := NewWorld(4096)
	b := w.NewSpace("p").Alloc(100)
	bad := IOVec{{Buf: b, Off: 90, Len: 20}}
	if err := bad.Validate(); err == nil {
		t.Fatal("overflowing region validated")
	}
	if err := (IOVec{{Buf: nil, Off: 0, Len: 1}}).Validate(); err == nil {
		t.Fatal("nil buffer validated")
	}
}

// pages is the page count of the whole of b.
func pages(b *Buffer) int64 { return VecOf(b)[0].Pages() }

func TestPages(t *testing.T) {
	w := NewWorld(4096)
	s := w.NewSpace("p")
	if got := pages(s.Alloc(1)); got != 1 {
		t.Fatalf("1B buffer pages = %d, want 1", got)
	}
	if got := pages(s.Alloc(4097)); got != 2 {
		t.Fatalf("4097B buffer pages = %d, want 2", got)
	}
	if got := pages(s.Alloc(0)); got != 0 {
		t.Fatalf("0B buffer pages = %d, want 0", got)
	}
	b := s.Alloc(3 * 4096)
	if got := (Region{Buf: b, Off: 4095, Len: 2}).Pages(); got != 2 {
		t.Fatalf("a region across a page boundary spans %d pages, want 2", got)
	}
}

// TestFillPatternMatchesByteReference pins the word-wise FillPattern to the
// original byte-at-a-time definition: integrity tests depend on two fills
// with the same seed producing the same bytes across versions.
func TestFillPatternMatchesByteReference(t *testing.T) {
	ref := func(data []byte, seed uint64) {
		x := seed*2654435761 + 0x9e3779b97f4a7c15
		for i := range data {
			if i%8 == 0 {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
			}
			data[i] = byte(x >> (8 * (uint(i) % 8)))
		}
	}
	w := NewWorld(4096)
	s := w.NewSpace("p")
	for _, n := range []int64{1, 7, 8, 9, 100, 4096, 12345} {
		for _, seed := range []uint64{0, 1, 42, 1 << 40} {
			b := s.Alloc(n)
			b.FillPattern(seed)
			want := make([]byte, n)
			ref(want, seed)
			for i := range want {
				if b.Bytes()[i] != want[i] {
					t.Fatalf("n=%d seed=%d: byte %d = %#x, reference %#x",
						n, seed, i, b.Bytes()[i], want[i])
				}
			}
		}
	}
}
