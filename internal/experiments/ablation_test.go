package experiments

import (
	"bytes"
	"testing"
)

func TestModelAblationDirections(t *testing.T) {
	rows := shared[AblationSet](t, "ablation")
	if len(rows) != 3 {
		t.Fatalf("ablation rows = %d, want 3", len(rows))
	}
	for _, r := range rows {
		// Every modelled cost slows its backend down: removing it must
		// speed the measurement up.
		if r.Without <= r.With {
			t.Errorf("%s: disabling the mechanism should raise throughput (with=%.0f without=%.0f)",
				r.Mechanism, r.With, r.Without)
		}
	}
	// The dirty-intervention mechanism is the big one: without it, the
	// default LMT's cross-die collapse (Fig. 5) disappears.
	if ratio := rows[0].Without / rows[0].With; ratio < 1.5 {
		t.Errorf("dirty-stall ablation ratio %.2f too small to explain Fig. 5", ratio)
	}
	var buf bytes.Buffer
	RenderAblation(&buf, rows)
	if buf.Len() == 0 {
		t.Fatal("empty ablation rendering")
	}
}

func TestCollectiveAwareEngagesEarlier(t *testing.T) {
	if testing.Short() {
		t.Skip("8-rank alltoall study skipped in -short mode")
	}
	// The shared A2ASizes are 32 KiB and 256 KiB.
	fig := shared[Figure](t, "collective-aware")
	auto := seriesByLabel(t, fig, "IOATAuto (per-pair DMAmin)").Points[1].Throughput
	hinted := seriesByLabel(t, fig, "IOATAuto + collective hint").Points[1].Throughput
	always := seriesByLabel(t, fig, "I/OAT always (reference)").Points[1].Throughput
	// At 256 KiB the plain auto policy stays on CPU copies; the hint drops
	// the threshold to 1MiB/7 ≈ 146KiB, so the hinted policy should track
	// the always-offload reference.
	if hinted <= auto && always > auto {
		t.Errorf("hint did not engage: auto=%.0f hinted=%.0f always=%.0f", auto, hinted, always)
	}
	diff := hinted - always
	if diff < 0 {
		diff = -diff
	}
	if diff/always > 0.15 {
		t.Errorf("hinted policy (%.0f) should track always-offload (%.0f) at 256KiB", hinted, always)
	}
}
