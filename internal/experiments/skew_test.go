package experiments

import (
	"context"
	"testing"
)

// TestSkewGolden pins the simulated table byte-for-byte: the perturbation
// layer is seeded-deterministic, so any drift in a perturbed timing — not
// just formatting — fails here. (The rt fastbox rows are wall-clock and
// deliberately excluded from the render.) Refresh after an intentional
// model change with
//
//	go test ./internal/experiments -run TestSkewGolden -update
func TestSkewGolden(t *testing.T) {
	checkGolden(t, "skew", []byte(rendered(shared[skewResult](t, "skew"))))
}

// Cells shard one self-contained perturbed simulation each across the
// worker pool; the table must be byte-identical at any width. The -j8 side
// runs the simulated cells only: the rt rows are never rendered.
func TestSkewParallelDeterminism(t *testing.T) {
	cells, err := skewCells(context.Background(), testEnv(8))
	if err != nil {
		t.Fatal(err)
	}
	if serial, parallel := rendered(shared[skewResult](t, "skew")), rendered(cells); serial != parallel {
		t.Errorf("skew artefact differs between -j1 and -j8:\n--- j1\n%s--- j8\n%s", serial, parallel)
	}
}

// The experiment's point, asserted not just rendered: every perturbation
// arm slows at least one forced protocol versus the clean baseline, and
// the rt fastbox rows carry real traffic with a sane hit rate. It reads the
// shared run; TestSkewParallelDeterminism proves a wider pool renders the same.
func TestSkewShape(t *testing.T) {
	res := shared[skewResult](t, "skew")
	sizes := DefaultSkewSizes()
	if want := len(SkewArms()) * len(sizes); len(res.SkewRows) != want {
		t.Fatalf("got %d sim rows, want %d", len(res.SkewRows), want)
	}
	slowed := map[string]bool{}
	for _, row := range res.SkewRows {
		if row.EagerUS <= 0 || row.RndvUS <= 0 {
			t.Errorf("%s/%d: non-positive time (eager %v, rndv %v)",
				row.Arm, row.Size, row.EagerUS, row.RndvUS)
		}
		if row.EagerX > 1.001 || row.RndvX > 1.001 {
			slowed[row.Arm] = true
		}
	}
	for _, arm := range SkewArms() {
		if arm.Name == "none" {
			continue
		}
		if !slowed[arm.Name] {
			t.Errorf("arm %q never slowed either protocol — perturbation is a no-op", arm.Name)
		}
	}
	if len(res.RTRows) != len(skewRTArms()) {
		t.Fatalf("got %d rt rows, want %d", len(res.RTRows), len(skewRTArms()))
	}
	for _, row := range res.RTRows {
		if row.Msgs <= 0 {
			t.Errorf("rt arm %q moved no eager messages", row.Arm)
		}
		if row.HitRate < 0 || row.HitRate > 1 {
			t.Errorf("rt arm %q hit rate %v outside [0, 1]", row.Arm, row.HitRate)
		}
	}
}
