package imb

import (
	"slices"
	"testing"

	"knemesis/internal/comm"
	_ "knemesis/internal/mpi" // registers the sim engine
	"knemesis/internal/units"
)

// The drivers list in this order in imb's -bench help and every
// unknown-bench error, and each name runs its own driver.
func TestBenchRegistry(t *testing.T) {
	want := []struct{ name, table string }{
		{"pingpong", "PingPong"},
		{"multi-pingpong", "Multi-PingPong(2 pairs)"},
		{"sendrecv", "Sendrecv"},
		{"exchange", "Exchange"},
		{"alltoall", "Alltoall"},
		{"bcast", "Bcast"},
		{"allreduce", "Allreduce"},
	}
	var names []string
	for _, w := range want {
		names = append(names, w.name)
	}
	if got := Benches.Names(); !slices.Equal(got, names) {
		t.Fatalf("Benches.Names() = %v, want %v", got, names)
	}
	for _, w := range want {
		b, err := Benches.Lookup(w.name)
		if err != nil {
			t.Fatal(err)
		}
		j, err := comm.NewJob("sim", comm.JobSpec{Ranks: 4})
		if err != nil {
			t.Fatal(err)
		}
		table, err := b.Run(j, []int64{4 * units.KiB})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		var got string
		switch r := table.(type) {
		case Result:
			got = r.Bench
		case MultiResult:
			got = r.Bench
		default:
			t.Fatalf("%s: table is a %T", w.name, table)
		}
		if got != w.table {
			t.Errorf("%s ran %q, want %q", w.name, got, w.table)
		}
	}
}
