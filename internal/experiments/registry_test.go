package experiments

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

func TestExperimentRegistryRoundTrip(t *testing.T) {
	want := []string{"fig3", "fig4", "fig5", "fig6", "fig7", "table1", "table2",
		"multipair", "thresholds", "ablation", "collective-aware", "rt", "topology", "skew"}
	ids := Experiments.Names()
	if len(ids) != len(want) {
		t.Fatalf("registered experiments = %v, want %v", ids, want)
	}
	for i, id := range ids {
		if id != want[i] {
			t.Errorf("Experiments.Names()[%d] = %q, want %q", i, id, want[i])
		}
		e, err := Experiments.Lookup(id)
		if err != nil {
			t.Fatalf("Experiments.Lookup(%q): %v", id, err)
		}
		if e.ID != id {
			t.Errorf("Experiments.Lookup(%q).ID = %q", id, e.ID)
		}
		if e.Title == "" {
			t.Errorf("%q has no title", id)
		}
		if e.Run == nil {
			t.Errorf("%q has no Run", id)
		}
	}
	if _, err := Experiments.Lookup("fig99"); err == nil {
		t.Error("Experiments.Lookup of unknown id did not error")
	}
	if _, err := Run(context.Background(), "fig99", Env{}); err == nil {
		t.Error("Run of unknown id did not error")
	}
}

func TestForEachOrderAndErrors(t *testing.T) {
	// Results land in index order regardless of pool width.
	for _, workers := range []int{1, 3, 8, 100} {
		got := make([]int, 20)
		if err := forEach(context.Background(), workers, len(got), func(i int) error {
			got[i] = i * i
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: slot %d = %d, want %d", workers, i, v, i*i)
			}
		}
	}

	// First error by job index wins, matching serial semantics.
	sentinel3 := errors.New("job 3")
	err := forEach(context.Background(), 4, 10, func(i int) error {
		if i >= 3 {
			return fmt.Errorf("job %d", i)
		}
		return nil
	})
	if err == nil || err.Error() != sentinel3.Error() {
		t.Errorf("forEach error = %v, want %v", err, sentinel3)
	}

	// Zero jobs is a no-op.
	if err := forEach(context.Background(), 4, 0, func(int) error { t.Error("called"); return nil }); err != nil {
		t.Fatal(err)
	}
}

// The acceptance bar of the concurrent runner: sharding across a worker
// pool must produce output byte-identical to the serial path, because every
// stack is a self-contained deterministic simulation.
func TestConcurrentRunnerMatchesSerial(t *testing.T) {
	for _, id := range []string{"fig4", "fig7"} {
		if serial, wide := rendered(shared[Figure](t, id)), rendered(wideRun(t, id)); serial != wide {
			t.Errorf("%s: concurrent output differs from serial:\n--- serial ---\n%s--- concurrent ---\n%s",
				id, serial, wide)
		}
	}
}

// Every registry entry's shared run renders something non-empty — the
// smoke test a new experiment gets for free.
func TestEveryExperimentRunsReduced(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry sweep skipped in -short mode")
	}
	for _, e := range Experiments.All() {
		res := shared[Result](t, e.ID)
		if rendered(res) == "" {
			t.Errorf("%s: empty rendering", e.ID)
		}
		if files, err := res.Files(); err != nil || len(files) == 0 {
			t.Errorf("%s: Files: %d files, %v", e.ID, len(files), err)
		}
	}
}
