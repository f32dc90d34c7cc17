package hw

import (
	"testing"

	"knemesis/internal/mem"
	"knemesis/internal/topo"
	"knemesis/internal/units"
)

// traffic runs a fixed mix of untimed copies and DMA walks across the dies
// of a new E5345 and returns the machine with every operation's traffic.
func traffic() (*Machine, []Traffic) {
	m := newMachine()
	const size = 3 * units.MiB
	a := m.Mem.NewSharedSpace("a").AllocPhantom(size)
	b := m.Mem.NewSharedSpace("b").AllocPhantom(size)
	var out []Traffic
	for i, core := range []topo.CoreID{0, 2, 4, 1, 6, 0} {
		n := int64(size >> (i % 3))
		dst, src := mem.Region{Buf: b, Len: n}, mem.Region{Buf: a, Len: n}
		if i%2 == 1 {
			dst, src = src, dst
		}
		out = append(out, m.CopyRange(nil, core, dst, src, CopyOpts{NoTime: true}))
		out = append(out, Traffic{BusBytes: m.DMASnoopSource(a.Addr(), n/2)})
	}
	return m, out
}

// TestReleasedMachineIsSpent: a machine built after another released its
// caches and directory computes the same traffic as the first did; the
// released one keeps its statistics and panics on any further cache or
// coherence operation.
func TestReleasedMachineIsSpent(t *testing.T) {
	m, first := traffic()
	stats, misses := m.TotalL2Stats(), m.L2MissLines()
	m.Release()
	if m.TotalL2Stats() != stats || m.L2MissLines() != misses {
		t.Fatal("Release changed the machine's statistics")
	}
	m2, again := traffic()
	for i := range first {
		if again[i] != first[i] {
			t.Fatalf("op %d on a machine after a Release: %+v, first machine %+v", i, again[i], first[i])
		}
	}
	if m2.TotalL2Stats() != stats {
		t.Fatalf("stats %+v, first machine %+v", m2.TotalL2Stats(), stats)
	}

	buf := m.Mem.NewSharedSpace("late").AllocPhantom(64 * units.KiB)
	r := mem.Region{Buf: buf, Len: buf.Len()}
	for name, use := range map[string]func(){
		"TouchRange":        func() { m.TouchRange(nil, 0, buf.Addr(), buf.Len(), false, true) },
		"CopyRange":         func() { m.CopyRange(nil, 2, r, r, CopyOpts{NoTime: true}) },
		"DMASnoopSource":    func() { m.DMASnoopSource(buf.Addr(), buf.Len()) },
		"DMAInvalidateDest": func() { m.DMAInvalidateDest(buf.Addr(), buf.Len()) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a released machine did not panic", name)
				}
			}()
			use()
		}()
	}
}
