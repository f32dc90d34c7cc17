package registry

import (
	"slices"
	"sync"
	"testing"
)

type item struct {
	name  string
	order int
}

func newTable(entries ...item) *Registry[item] {
	r := New("pkg", "thing", func(e item) (string, int) { return e.name, e.order })
	for _, e := range entries {
		r.Register(e)
	}
	return r
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

func TestRegisterRejectsEmptyAndDuplicateNames(t *testing.T) {
	r := newTable(item{"a", 1})
	mustPanic(t, "empty name", func() { r.Register(item{"", 2}) })
	mustPanic(t, "duplicate name", func() { r.Register(item{"a", 3}) })
	if got := r.Names(); !slices.Equal(got, []string{"a"}) {
		t.Errorf("a rejected registration changed the table: %v", got)
	}
}

// Entries sort by order, then by name among equal orders (experiments
// multipair and thresholds share one), whatever the registration order.
func TestEntriesSortByOrderThenName(t *testing.T) {
	r := newTable(item{"thresholds", 10}, item{"late", 20}, item{"first", 0}, item{"multipair", 10})
	want := []string{"first", "multipair", "thresholds", "late"}
	if got := r.Names(); !slices.Equal(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	all := r.All()
	if len(all) != len(want) {
		t.Fatalf("All() has %d entries, want %d", len(all), len(want))
	}
	for i, e := range all {
		if e.name != want[i] {
			t.Errorf("All()[%d] = %q, Names()[%d] = %q", i, e.name, i, want[i])
		}
		got, err := r.Lookup(e.name)
		if err != nil || got != e {
			t.Errorf("Lookup(%q) = %v, %v; want %v", e.name, got, err, e)
		}
	}
}

func TestLookupErrorListsEveryName(t *testing.T) {
	r := newTable(item{"c", 2}, item{"a", 0}, item{"b", 1})
	_, err := r.Lookup("x")
	if err == nil {
		t.Fatal("Lookup of an unknown name did not error")
	}
	if want := `pkg: unknown thing "x" (have a|b|c)`; err.Error() != want {
		t.Errorf("error = %q, want %q", err, want)
	}
}

func TestReadersGetTheirOwnSlices(t *testing.T) {
	r := newTable(item{"a", 0}, item{"b", 1})
	r.Names()[0] = "z"
	r.All()[0] = item{"z", 9}
	if _, err := r.Lookup("a"); err != nil {
		t.Errorf("writing a returned slice changed the table: %v", err)
	}
}

// After registration the table is read-only: concurrent readers need no
// lock (run under -race).
func TestConcurrentReads(t *testing.T) {
	r := newTable(item{"a", 0}, item{"b", 1}, item{"c", 1})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if _, err := r.Lookup("c"); err != nil {
					t.Error(err)
					return
				}
				if _, err := r.Lookup("nope"); err == nil {
					t.Error("Lookup of an unknown name did not error")
					return
				}
				if len(r.All()) != 3 || len(r.Names()) != 3 {
					t.Error("wrong table size")
					return
				}
			}
		}()
	}
	wg.Wait()
}
