package cache

import (
	"strings"
	"testing"
)

// TestReleasedCacheFillsLikeFresh: a cache that fills from the way arrays
// a released one handed back (same shape) chooses exactly as a cache on
// new arrays does.
func TestReleasedCacheFillsLikeFresh(t *testing.T) {
	choosesLikeFresh(t, 11, func(used *Cache) *Cache {
		used.Release()
		return New("recycled", int64(used.sets*used.assoc)*used.blockBytes, used.blockBytes, used.assoc)
	})
}

// TestReleasedDirectoryPagesStartEmpty: a page another directory released
// reads as never touched.
func TestReleasedDirectoryPagesStartEmpty(t *testing.T) {
	old := NewDirectory(4)
	for b := uint64(0); b < 4*DirPageBlocks; b += 3 {
		pg, _ := old.Page(b)
		pg.Entry(b).SetOwner(int(b % 4))
	}
	old.Release()
	d := NewDirectory(4)
	for b := uint64(0); b < 4*DirPageBlocks; b += DirPageBlocks {
		pg, last := d.Page(b)
		for i := range pg {
			if pg[i] != (DirEntry{}) {
				t.Fatalf("page of blocks %d-%d: entry %d = %+v on first touch", b, last, i, pg[i])
			}
		}
	}
}

// mustPanic runs f and fails unless it panics with a message containing
// want.
func mustPanic(t *testing.T, what, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("%s after Release did not panic", what)
		}
		if msg, _ := r.(string); !strings.Contains(msg, want) {
			t.Fatalf("%s after Release panicked with %v, want it to mention %q", what, r, want)
		}
	}()
	f()
}

func TestReleasedCachePanics(t *testing.T) {
	for _, filled := range []bool{false, true} {
		c := newSmall()
		if filled {
			c.Access(1, true)
		}
		c.Release()
		mustPanic(t, "Access", "used after Release", func() { c.Access(1, false) })
		mustPanic(t, "Fill", "used after Release", func() { c.Fill(0, 4, false) })
		mustPanic(t, "Hit", "not there", func() { c.Hit(c.SetOf(1), 1, false) })
		if filled && c.Stats().Misses != 1 {
			t.Fatalf("statistics after Release = %+v, want the fill's", c.Stats())
		}
	}
}

func TestReleasedDirectoryPanics(t *testing.T) {
	d := NewDirectory(2)
	d.Page(0)
	d.Release()
	mustPanic(t, "Page", "used after Release", func() { d.Page(0) })
}
