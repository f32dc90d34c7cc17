package experiments

import (
	"context"
	"testing"

	"knemesis/internal/core"
	"knemesis/internal/topo"
	"knemesis/internal/units"
)

func TestMultipairRegistered(t *testing.T) {
	if _, err := Experiments.Lookup("multipair"); err != nil {
		t.Fatal(err)
	}
}

// multipairRow finds one sweep cell.
func multipairRow(t *testing.T, rows []MultipairRow, backend, placement string, pairs int, size int64) MultipairRow {
	t.Helper()
	for _, r := range rows {
		if r.Backend == backend && r.Placement == placement && r.Pairs == pairs && r.Size == size {
			return r
		}
	}
	t.Fatalf("no row %s/%s/%d pairs/%s", backend, placement, pairs, units.FormatSize(size))
	return MultipairRow{}
}

// multipairRows runs the contention sweep on m at one size.
func multipairRows(t *testing.T, m *topo.Machine, size int64) []MultipairRow {
	t.Helper()
	env := DefaultEnv(m)
	env.MultiSizes = []int64{size}
	res, err := multipair(context.Background(), env)
	if err != nil {
		t.Fatal(err)
	}
	return res.MultiRows
}

// The headline contention result: at 1 MiB with 4 cross-die pairs the
// default two-copy LMT saturates the shared bus and collapses below 2x its
// solo aggregate, while the single-copy KNEM and CMA backends stay
// cache-resident and keep scaling above 3x.
func TestMultipairContentionCrossover(t *testing.T) {
	size := int64(1 * units.MiB)
	rows := shared[multipairResult](t, "multipair").MultiRows
	def := multipairRow(t, rows, "default", "cross", 4, size)
	if def.ScaleVsSolo >= 2.0 {
		t.Errorf("default LMT at 4 cross-die pairs scales %.2fx, want < 2x (bus collapse)", def.ScaleVsSolo)
	}
	if def.BusUtil < 0.9 {
		t.Errorf("collapsed default LMT shows bus utilization %.2f, want >= 0.9 (saturated)", def.BusUtil)
	}
	for _, backend := range []string{"knem", "cma"} {
		r := multipairRow(t, rows, backend, "cross", 4, size)
		if r.ScaleVsSolo <= 3.0 {
			t.Errorf("%s LMT at 4 cross-die pairs scales %.2fx, want > 3x (graceful degradation)", backend, r.ScaleVsSolo)
		}
	}
}

// The sweep must cover every registered backend at N = 1, 2, 4 pairs under
// both placements on the 8-core testbed, and the rendered artefact must be
// byte-identical between the serial shared run and a wide worker pool.
func TestMultipairCoverageAndWorkerDeterminism(t *testing.T) {
	res := shared[multipairResult](t, "multipair")
	if serial, wide := rendered(res), rendered(wideRun(t, "multipair")); serial != wide {
		t.Fatalf("multipair render differs between -j 1 and -j 8:\n--- j1\n%s\n--- j8\n%s", serial, wide)
	}
	for _, kind := range core.Names() {
		for _, placement := range []string{"shared", "cross"} {
			for _, pairs := range MultiPairCounts() {
				row := multipairRow(t, res.MultiRows, string(kind), placement, pairs, 1*units.MiB)
				if row.AggMiBps <= 0 {
					t.Errorf("%s/%s/%d pairs: degenerate aggregate %.0f", kind, placement, pairs, row.AggMiBps)
				}
				if pairs == 1 && row.ScaleVsSolo != 1.0 {
					t.Errorf("%s/%s solo row scale = %.2f, want 1.00", kind, placement, row.ScaleVsSolo)
				}
			}
		}
	}
}

// Pair counts the machine cannot host are skipped, not errored: the 4-core
// X5460 caps at 2 pairs either way, and the single-domain Nehalem preset has
// no cross-die placement at all.
func TestMultipairSkipsImpossiblePlacements(t *testing.T) {
	rows := multipairRows(t, topo.XeonX5460(), 128*units.KiB)
	for _, r := range rows {
		if r.Pairs > 2 {
			t.Errorf("x5460 hosted %d pairs (%s/%s), impossible on 4 cores", r.Pairs, r.Backend, r.Placement)
		}
	}
	rows = multipairRows(t, topo.NehalemStyle(), 128*units.KiB)
	for _, r := range rows {
		if r.Placement == "cross" {
			t.Errorf("nehalem preset produced a cross-die row (%s, %d pairs)", r.Backend, r.Pairs)
		}
	}
}
