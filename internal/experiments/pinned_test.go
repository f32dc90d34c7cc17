package experiments

import (
	"fmt"
	"sort"
	"testing"

	"knemesis/internal/units"
)

// pinnedSim holds the simulated values that no other gate pins, bit for
// bit: the four measured §3.5 crossovers, the 1 MiB multipair cells other
// than the 4-pair cross-die row, and the Figure 7 Alltoall cells whose
// configuration (all 8 E5345 cores, a 4 KiB eager threshold for the KNEM
// backends) differs from the benchmark's. bench/simtable.go pins the
// remaining figure cells. Keys name the workload and metric; a model change
// that moves one of these values is deliberate and updates the literal in
// the same change.
var pinnedSim = map[string]float64{
	"thresholds crossover-bytes:Xeon E5345 (2x4 cores, 4MiB L2 per pair)/different dies": 3145728,
	"thresholds crossover-bytes:Xeon E5345 (2x4 cores, 4MiB L2 per pair)/shared cache":   1572864,
	"thresholds crossover-bytes:Xeon X5460 (4 cores, 6MiB L2 per pair)/different dies":   4194304,
	"thresholds crossover-bytes:Xeon X5460 (4 cores, 6MiB L2 per pair)/shared cache":     2097152,

	"multipair aggMiB/s:cma/cross/1pair":              5188.891125819853,
	"multipair aggMiB/s:cma/cross/2pair":              10372.507660148769,
	"multipair aggMiB/s:cma/shared/1pair":             5198.350001429632,
	"multipair aggMiB/s:cma/shared/2pair":             10385.560389723312,
	"multipair aggMiB/s:cma/shared/4pair":             20754.46962766615,
	"multipair aggMiB/s:default/cross/1pair":          1253.6535903032793,
	"multipair aggMiB/s:default/cross/2pair":          2090.0957969177816,
	"multipair aggMiB/s:default/shared/1pair":         3602.2239475047136,
	"multipair aggMiB/s:default/shared/2pair":         5068.910976676918,
	"multipair aggMiB/s:default/shared/4pair":         8884.070175806324,
	"multipair aggMiB/s:knem/cross/1pair":             5178.358030286414,
	"multipair aggMiB/s:knem/cross/2pair":             10351.748604693414,
	"multipair aggMiB/s:knem/shared/1pair":            5187.563212835381,
	"multipair aggMiB/s:knem/shared/2pair":            10364.032970210235,
	"multipair aggMiB/s:knem/shared/4pair":            20711.483719294654,
	"multipair aggMiB/s:vmsplice-writev/cross/1pair":  957.4879768266667,
	"multipair aggMiB/s:vmsplice-writev/cross/2pair":  1626.5238488870937,
	"multipair aggMiB/s:vmsplice-writev/shared/1pair": 1958.0000057238865,
	"multipair aggMiB/s:vmsplice-writev/shared/2pair": 3774.6016397173375,
	"multipair aggMiB/s:vmsplice-writev/shared/4pair": 7624.56353813464,
	"multipair aggMiB/s:vmsplice/cross/1pair":         3618.528606252567,
	"multipair aggMiB/s:vmsplice/cross/2pair":         7234.073042500617,
	"multipair aggMiB/s:vmsplice/shared/1pair":        3625.332746332345,
	"multipair aggMiB/s:vmsplice/shared/2pair":        7245.245787600364,
	"multipair aggMiB/s:vmsplice/shared/4pair":        14482.385774164863,

	"fig7/default aggMiB/s@256KiB":   1425.034719240535,
	"fig7/knem aggMiB/s@256KiB":      2281.3043660800645,
	"fig7/knem-ioat aggMiB/s@32KiB":  2047.0932084749031,
	"fig7/knem-ioat aggMiB/s@256KiB": 3496.9889063369847,
}

// pinnedSimValues reads the shared thresholds, multipair and fig7 runs and
// returns every value they produce under pinnedSim's key scheme.
func pinnedSimValues(t *testing.T) map[string]float64 {
	t.Helper()
	got := map[string]float64{}
	for _, r := range shared[ThresholdSet](t, "thresholds") {
		got[fmt.Sprintf("thresholds crossover-bytes:%s/%s", r.Machine, r.Placement)] = float64(r.MeasuredCrossover)
	}
	for _, r := range shared[multipairResult](t, "multipair").MultiRows {
		got[fmt.Sprintf("multipair aggMiB/s:%s/%s/%dpair", r.Backend, r.Placement, r.Pairs)] = r.AggMiBps
	}
	// fig7's default LMT keeps the stock threshold; both KNEM curves run
	// under the 4 KiB one.
	fig7 := shared[Figure](t, "fig7")
	for name, label := range map[string]string{"default": "default LMT", "knem": "KNEM LMT", "knem-ioat": "KNEM LMT with I/OAT"} {
		for _, pt := range seriesByLabel(t, fig7, label).Points {
			got[fmt.Sprintf("fig7/%s aggMiB/s@%s", name, units.FormatSize(pt.Size))] = pt.Throughput
		}
	}
	return got
}

func TestPinnedSimValues(t *testing.T) {
	got := pinnedSimValues(t)
	keys := make([]string, 0, len(pinnedSim))
	for k := range pinnedSim {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		v, ok := got[k]
		switch {
		case !ok:
			t.Errorf("%s: not produced", k)
		case v != pinnedSim[k]:
			t.Errorf("%s = %v, pinned %v", k, v, pinnedSim[k])
		}
	}
}
