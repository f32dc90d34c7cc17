package mem

import "testing"

func TestPhantomAllocAddressesReal(t *testing.T) {
	w := NewWorld(4096)
	s := w.NewSpace("p")
	a := s.AllocPhantom(10 << 20) // 10 MiB of simulated addresses
	b := s.Alloc(100)
	if !a.Phantom() || b.Phantom() {
		t.Fatal("phantom flags wrong")
	}
	if a.Len() != 10<<20 {
		t.Fatalf("len = %d", a.Len())
	}
	// The address reservation must be real: the next allocation lands
	// beyond the phantom range.
	if b.Addr() < a.Addr()+uint64(a.Len()) {
		t.Fatalf("phantom did not reserve addresses: next alloc at %#x inside [%#x,%#x)",
			b.Addr(), a.Addr(), a.Addr()+uint64(a.Len()))
	}
}

func TestPhantomContentOpsGuarded(t *testing.T) {
	w := NewWorld(4096)
	a := w.NewSpace("p").AllocPhantom(4096)
	expectPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s on phantom should panic", name)
			}
		}()
		fn()
	}
	expectPanic("Bytes", func() { a.Bytes() })
	expectPanic("FillPattern", func() { a.FillPattern(1) })
}

func TestPhantomRegionBytesBounded(t *testing.T) {
	w := NewWorld(4096)
	a := w.NewSpace("p").AllocPhantom(10 << 20)
	r := Region{Buf: a, Off: 1 << 20, Len: 5 << 20}
	got := r.Bytes()
	if int64(len(got)) > phantomWindowBytes {
		t.Fatalf("phantom region exposed %d bytes, window is %d", len(got), phantomWindowBytes)
	}
	small := Region{Buf: a, Off: 0, Len: 100}
	if len(small.Bytes()) != 100 {
		t.Fatalf("small phantom region len = %d", len(small.Bytes()))
	}
}

func TestPhantomCopyAndSliceWork(t *testing.T) {
	w := NewWorld(4096)
	s := w.NewSpace("p")
	a := s.AllocPhantom(1 << 20)
	b := s.AllocPhantom(1 << 20)
	// Copies between phantoms must not panic and must respect lengths.
	CopyBytes(Region{Buf: b, Off: 0, Len: 1 << 20}, Region{Buf: a, Off: 0, Len: 1 << 20})
	sub := a.Slice(4096, 8192)
	if !sub.Phantom() || sub.Addr() != a.Addr()+4096 || sub.Len() != 8192 {
		t.Fatal("phantom slice metadata wrong")
	}
	// Mixed phantom/real copy, chunk-sized (how the transfer paths use it).
	real := s.Alloc(64 * 1024)
	CopyBytes(Region{Buf: real, Off: 0, Len: 64 * 1024}, Region{Buf: a, Off: 0, Len: 64 * 1024})
	CopyBytes(Region{Buf: b, Off: 0, Len: 64 * 1024}, Region{Buf: real, Off: 0, Len: 64 * 1024})
}

func TestPhantomPagesAndSegments(t *testing.T) {
	w := NewWorld(4096)
	a := w.NewSpace("p").AllocPhantom(64 * 1024)
	if got := pages(a); got != 16 {
		t.Fatalf("phantom pages = %d, want 16", got)
	}
	var total int64
	for _, seg := range physSegments(a, 8) {
		total += seg
	}
	if total != a.Len() {
		t.Fatalf("phantom segments sum to %d", total)
	}
}
