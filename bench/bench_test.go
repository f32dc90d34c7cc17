package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestMedianAndPercentileRule(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of odd count = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of even count = %v, want 2.5", got)
	}
	sorted := make([]float64, 100)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	// The mean of nearest ranks 45..55 and 85..95 of 1..100.
	if p50, p90 := percentile(sorted, 0.5), percentile(sorted, 0.9); p50 != 50 || p90 != 90 {
		t.Errorf("p50, p90 of 1..100 = %v, %v, want 50, 90", p50, p90)
	}
	// A gap at the median does not make the percentile jump across it.
	gap := append(append([]float64(nil), sorted[:50]...), 1000, 1001)
	if p50 := percentile(gap, 0.5); p50 > 250 {
		t.Errorf("p50 next to a gap = %v, want a value between the two sides, near the low one", p50)
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	// Python: statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) = [2.75, 5.5, 8.25].
	if got, want := iqrShare([]float64{3, 1, 2, 4, 6, 5, 7, 9, 8, 10}), (8.25-2.75)/5.5; !near(got, want) {
		t.Errorf("iqrShare = %v, want %v", got, want)
	}
}

func TestHostStateSlowdownAndDiscardRule(t *testing.T) {
	if straddlesFlip(0.040, 0.049) || straddlesFlip(0.049, 0.040) {
		t.Error("sides 22% apart must be kept")
	}
	if !straddlesFlip(0.040, 0.051) || !straddlesFlip(0.051, 0.040) {
		t.Error("sides 27% apart must be dropped")
	}
	// A host that doubles its probe time after round 2. Round r ran
	// between probes[r] and probes[r+1].
	probes := []float64{0.040, 0.042, 0.038, 0.080, 0.084, 0.076}
	slow, kept := hostState(probes, &probe{nominal: 0.040})
	wantSlow := []float64{
		1.0, // median(40; 42 38) = 40
		1.0, // median(40 42; 38 80) = 41... see below
		1.5, // median(42 38; 80 84) = 61 -> the straddling round
		2.0, // median(38 80; 84 76) = 78... see below
		2.0, // median(80 84; 76) = 80
	}
	wantSlow[1], wantSlow[2], wantSlow[3] = 0.041/0.040, 0.061/0.040, 0.078/0.040
	wantKept := []bool{true, false, false, false, true}
	// Rounds 1 and 3 see the jump in their outer probes (means 41 vs 59 and
	// 59 vs 80): only rounds wholly on one side of it are kept.
	for r := range wantSlow {
		if !near(slow[r], wantSlow[r]) || kept[r] != wantKept[r] {
			t.Errorf("round %d: slowdown %v kept %v, want %v %v", r, slow[r], kept[r], wantSlow[r], wantKept[r])
		}
	}

	// A state detector believes only readings under its threshold.
	detector := &probe{nominal: 0.040, stateBelow: 0.6}
	if detector.slowdown(0.030) != 1 || detector.slowdown(0.070) != 1 || !near(detector.slowdown(0.016), 0.4) {
		t.Error("a 0.6 detector must pass 30 and 70 ms of 40 as nominal and 16 ms as 0.4")
	}

	// Medians over kept rounds, each round divided by its own slowdown: a
	// host twice as slow in round 1 must not move the normalised numbers,
	// and a dropped round must not count.
	m := &measured{w: &workload{name: "synthetic", ops: 100}}
	m.rounds = []roundStat{
		{secs: 1, p50: 0.010, p90: 0.020, slow: 1, kept: true},
		{secs: 2, p50: 0.020, p90: 0.040, slow: 2, kept: true},
		{secs: 9, p50: 0.090, p90: 0.090, slow: 1.5, failed: 1},
	}
	_, keptRounds := m.filter(false)
	if len(keptRounds) != 2 {
		t.Fatalf("kept %d rounds, want 2", len(keptRounds))
	}
	tm := m.timing(keptRounds)
	if !near(tm.opsPerS, 100) || !near(tm.p50us, 10000) || !near(tm.p90us, 20000) {
		t.Errorf("normalised timing = %+v, want 100 ops/s, p50 10000 us, p90 20000 us", tm)
	}
	if !near(tm.rawOpsPerS, 75) {
		t.Errorf("raw ops/s = %v, want the median of 100 and 50", tm.rawOpsPerS)
	}
	if attempted, failed := m.counts(); attempted != 300 || failed != 1 {
		t.Errorf("counts = %d, %d: a dropped round's ops and failures still count", attempted, failed)
	}
	// Where the rule would spare fewer than a third, every round counts.
	m.rounds[1].kept = false
	m.rounds = append(m.rounds, roundStat{secs: 1, slow: 1})
	if _, keptRounds = m.filter(false); len(keptRounds) != 4 {
		t.Errorf("1 of 4 rounds spared: kept %d, want all 4", len(keptRounds))
	}
}

func TestSeedFixesGeneratedInputs(t *testing.T) {
	if a, b := simOrders(7, 71, 3), simOrders(7, 71, 3); !reflect.DeepEqual(a, b) {
		t.Error("sim-figs: the same seed gave two op orders")
	}
	if a, b := simOrders(7, 71, 3), simOrders(8, 71, 3); reflect.DeepEqual(a, b) {
		t.Error("sim-figs: two seeds gave the same op order")
	}
	a, b, c := newRTInstance(256, 1, 1, 7), newRTInstance(256, 1, 1, 7), newRTInstance(256, 1, 1, 8)
	a.stamp(a.send, 3, 4)
	b.stamp(b.send, 3, 4)
	c.stamp(c.send, 3, 4)
	if !bytes.Equal(a.send, b.send) || bytes.Equal(a.send, c.send) {
		t.Error("rt: the payload pattern must be a function of the seed")
	}
	copy(a.recv, a.send)
	if !a.stampsMatch() {
		t.Error("rt: an intact echo must pass the pattern check")
	}
	a.recv[len(a.recv)-1] ^= 1
	if a.stampsMatch() {
		t.Error("rt: a corrupted last word must fail the pattern check")
	}
	if x, y := knemdJobNumbers(7, 400), knemdJobNumbers(7, 400); !reflect.DeepEqual(x, y) {
		t.Error("knemd: the same seed gave two job sequences")
	}
	if x, y := knemdJobNumbers(7, 400), knemdJobNumbers(8, 400); reflect.DeepEqual(x, y) {
		t.Error("knemd: two seeds gave the same job sequence")
	}
}

func TestSpanSelfTime(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "op", Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Name: "submit", Start: ms(10), End: ms(30)},
		{ID: 3, Parent: 1, Name: "await", Start: ms(20), End: ms(60)}, // overlaps submit by 10 ms
		{ID: 4, Parent: 1, Name: "result", Start: ms(90), End: ms(120)},
		{ID: 5, Parent: 3, Name: "stage", Start: ms(25), End: ms(45)},
	}
	self := selfTimes(spans)
	// The children cover [10,60) and [90,100) of the op: 60 ms, counted once.
	for id, want := range map[int]time.Duration{1: ms(40), 2: ms(20), 3: ms(20), 4: ms(30), 5: ms(20)} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
}

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func TestNamesMatchBenchmarkJSON(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields()
	var f benchmarkFile
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	var listed []string
	for _, w := range f.Workloads {
		listed = append(listed, w.Name)
		if w.Why == "" || len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(names, listed) {
		t.Errorf("workloads: bench has %v, BENCHMARK.json has %v", names, listed)
	}
	if !reflect.DeepEqual(endToEndMetrics, f.EndToEnd) {
		t.Errorf("end_to_end: bench prints %+v, BENCHMARK.json lists %+v", endToEndMetrics, f.EndToEnd)
	}
	if !reflect.DeepEqual(perLayerMetrics(), f.PerLayer) {
		t.Errorf("per_layer: bench prints %+v, BENCHMARK.json lists %+v", perLayerMetrics(), f.PerLayer)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the name grammar", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, n := range names {
		check(n)
	}
	for _, d := range append(append([]metricDef(nil), endToEndMetrics...), perLayerMetrics()...) {
		check(d.Name)
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q is outside the unit grammar", d.Name, d.Unit)
		}
		if d.Better != lower && d.Better != higher {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
	}
	if n := len(perLayerMetrics()); n > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", n)
	}
	for _, d := range endToEndMetrics {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v must be in (0, 0.25]", d.Name, d.Bound)
		}
	}

	// The result line has exactly the contract's keys.
	line, err := json.Marshal(result{Metrics: map[string]value{}})
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(line, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("result line lacks %q", k)
		}
		delete(keys, k)
	}
	if len(keys) != 0 {
		t.Errorf("result line has extra keys %v", keys)
	}
}

// Every sim-figs op has an expected output, and the table has no others.
func TestSimTableCoversTheOpMix(t *testing.T) {
	cases := simCases()
	if len(cases) != len(simTable) {
		t.Errorf("%d ops, %d table entries", len(cases), len(simTable))
	}
	for _, c := range cases {
		if v, ok := simTable[c.name]; !ok || v <= 0 {
			t.Errorf("op %s has no expected MiB/s", c.name)
		}
	}
}

// p90 needs ten samples beyond it in every round of every workload.
func TestEveryRoundCanReportP90(t *testing.T) {
	for _, w := range workloads() {
		if highestPercentile(w.ops) < 0.9 {
			t.Errorf("%s: a round of %d ops cannot report p90", w.name, w.ops)
		}
	}
}
