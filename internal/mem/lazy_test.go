package mem

import (
	"runtime"
	"testing"
)

// A buffer that is only ever addressed — allocated, sliced, measured,
// walked for pages and physical runs — never gets a backing array: the
// nemesis cells and shm slots of a phantom-payload run stay free.
func TestUntouchedBufferHasNoBacking(t *testing.T) {
	s := NewWorld(4096).NewSpace("p")
	const n, size = 64, 1 << 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	bufs := make([]*Buffer, n)
	for i := range bufs {
		b := s.Alloc(size)
		v := b.Slice(4096, 8192).Slice(100, 200)
		if v.Addr() != b.Addr()+4196 || v.Len() != 200 || pages(b) != size/4096 {
			t.Fatalf("view [%#x,+%d) of a %d-page buffer at %#x", v.Addr(), v.Len(), pages(b), b.Addr())
		}
		physSegments(b, 4)
		VecOf(b).SliceInto(nil, 10, 20)
		bufs[i] = b
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > size {
		t.Fatalf("%d untouched 1 MiB buffers allocated %d bytes", n, got)
	}
	for _, b := range bufs {
		if b.data != nil {
			t.Fatal("an untouched buffer has a backing array")
		}
	}
}

// The first content access — through the allocation or through any view of
// it, by whichever accessor — makes one zeroed array for the whole
// allocation, and every view, older or newer, aliases it.
func TestFirstTouchMaterialisesOneSharedBacking(t *testing.T) {
	touch := map[string]func(parent, view *Buffer){
		"parent.Bytes":  func(p, v *Buffer) { p.Bytes() },
		"view.Bytes":    func(p, v *Buffer) { v.Bytes() },
		"parent.Region": func(p, v *Buffer) { Region{Buf: p, Off: 8, Len: 8}.Bytes() },
		"view.Region":   func(p, v *Buffer) { Region{Buf: v, Off: 8, Len: 8}.Bytes() },
		"view.CopyBytes.dst": func(p, v *Buffer) {
			src := p.Space().Alloc(8)
			src.Bytes() // a touched, all-zero source
			CopyBytes(Region{Buf: v, Len: 8}, Region{Buf: src, Len: 8})
		},
	}
	for name, first := range touch {
		s := NewWorld(4096).NewSpace("p")
		parent := s.Alloc(256)
		early := parent.Slice(64, 64) // taken before the backing exists
		first(parent, early)
		late := parent.Slice(96, 32).Slice(0, 16) // taken after; overlaps early
		for i, x := range parent.Bytes() {
			if x != 0 {
				t.Fatalf("%s: byte %d of a fresh buffer reads %#x", name, i, x)
			}
		}
		if len(parent.Bytes()) != 256 || len(early.Bytes()) != 64 || len(late.Bytes()) != 16 {
			t.Fatalf("%s: lengths %d/%d/%d", name, len(parent.Bytes()), len(early.Bytes()), len(late.Bytes()))
		}
		late.Bytes()[3] = 0xAB
		if early.Bytes()[35] != 0xAB || parent.Bytes()[99] != 0xAB ||
			(Region{Buf: early, Off: 32, Len: 8}).Bytes()[3] != 0xAB {
			t.Fatalf("%s: a write through one view is not seen through the others", name)
		}
	}

	// FillPattern on a view writes the view's window of the shared array
	// and nothing else.
	s := NewWorld(4096).NewSpace("p")
	parent := s.Alloc(256)
	view := parent.Slice(64, 64)
	view.FillPattern(7)
	want := make([]byte, 64)
	FillPatternBytes(want, 7)
	for i, x := range parent.Bytes() {
		switch {
		case i >= 64 && i < 128 && x != want[i-64]:
			t.Fatalf("byte %d = %#x, want pattern byte %#x", i, x, want[i-64])
		case (i < 64 || i >= 128) && x != 0:
			t.Fatalf("byte %d outside the filled view = %#x", i, x)
		}
	}
}

// A copy out of an untouched allocation moves zeroes: into an untouched
// destination it materialises neither side, into a touched one it clears
// the destination's range and nothing more.
func TestCopyFromUntouchedSourceClears(t *testing.T) {
	s := NewWorld(4096).NewSpace("p")
	src, dst := s.Alloc(64), s.Alloc(64)
	CopyBytes(Region{Buf: dst, Off: 8, Len: 16}, Region{Buf: src, Off: 0, Len: 16})
	if src.data != nil || dst.data != nil {
		t.Fatal("a copy between untouched buffers made a backing array")
	}
	dst.FillPattern(3)
	want := append([]byte(nil), dst.Bytes()...)
	clear(want[8:24])
	CopyBytes(Region{Buf: dst, Off: 8, Len: 16}, Region{Buf: src, Off: 0, Len: 16})
	if src.data != nil {
		t.Fatal("an untouched source got a backing array")
	}
	for i, x := range dst.Bytes() {
		if x != want[i] {
			t.Fatalf("byte %d = %#x after copying zeroes into [8,24), want %#x", i, x, want[i])
		}
	}
}
