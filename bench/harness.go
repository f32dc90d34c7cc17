package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// workload is one closed-loop op mix. Work is fixed, never time: a run is
// set-up and then a fixed number of rounds of ops ops each; the number of
// rounds is rate * the seconds asked for, so that a run measures for about
// that long on the nominal host.
type workload struct {
	name string
	why  string // one line for BENCHMARK.json: what the workload stresses
	ops  int    // ops per round
	// procs is the GOMAXPROCS the workload runs at; 0 leaves the default
	// (every vCPU).
	procs int
	// rate is rounds per requested second, sized so that one round with
	// its probe and GC takes 1/rate seconds on the nominal host.
	rate     float64
	newProbe func(dir string) (*probe, error)
	// setup builds the workload's state (worlds, daemon, inputs, filled
	// caches). The harness follows it with one untimed warm-up round.
	setup func(env *runEnv) (instance, error)
}

// runEnv is what a workload's set-up may depend on.
type runEnv struct {
	seed   uint64
	rounds int
	dir    string // scratch directory inside the checkout, on the real disk
}

// instance is a set-up workload. round runs the workload's ops ops of round
// r, stores each op's latency in seconds in lat, and returns the round's
// wall time and how many ops failed their output check. A non-nil tracer
// asks for spans around the calls the ops make.
type instance interface {
	round(r int, lat []float64, tr *tracer) (secs float64, failed int)
	close()
}

// roundStat is what one timed round measured. slow and kept are filled in
// from the run's probe series once the run is over (hostState).
type roundStat struct {
	secs       float64
	p50, p90   float64 // op latency percentiles of the round, seconds
	failed     int
	traced     bool
	mallocs    uint64
	allocBytes uint64
	slow       float64 // host slowdown the round saw
	kept       bool    // false: the round straddled a host-state flip
}

// setupReps is how many times a run sets the workload up; setup_s is the
// median, so that one slow set-up does not decide it.
const setupReps = 5

// minKeptShare is the share of rounds that must survive the flip rule for
// the rule to be applied at all. On a host that flips all the time the few
// rounds it spares are no better than the rest, so below this share every
// round counts (and host.rounds_discarded says how restless the host was).
const minKeptShare = 1.0 / 3

// measured is one run's raw material; metrics are derived from it.
type measured struct {
	w      *workload
	probe  *probe
	setups []float64 // set-up times divided by the set-up phase's slowdown
	rounds []roundStat
	probes []float64 // probes[r] ran before round r, probes[r+1] after it
	tracer *tracer
	// own holds layer metrics the workload itself supplies (its daemon's
	// validity ratios), overriding the layer probes' values.
	own map[string]float64
}

// runRounds sets the workload up setupReps times, then runs rounds timed
// rounds, each bracketed by host probes with an untimed GC in between. With
// traced set, odd rounds record spans, so that traced and untraced rounds
// alternate under the same host conditions.
func runRounds(w *workload, env *runEnv, traced bool) (*measured, error) {
	if highestPercentile(w.ops) < 0.9 {
		return nil, fmt.Errorf("%s: a round of %d ops cannot report p90", w.name, w.ops)
	}
	if w.procs > 0 {
		runtime.GOMAXPROCS(w.procs)
	}
	p, err := w.newProbe(env.dir)
	if err != nil {
		return nil, err
	}
	if p.close != nil {
		defer p.close()
	}
	m := &measured{w: w, probe: p}
	if traced {
		m.tracer = newTracer()
	}
	lat := make([]float64, w.ops)

	var inst instance
	reps := setupReps
	if traced {
		reps = 1 // the traced run does not report setup_s
	}
	p.measure() // discard the first, cold probe
	setupProbes := []float64{p.measure()}
	for k := 0; k < reps; k++ {
		if inst != nil {
			inst.close()
		}
		runtime.GC()
		t0 := time.Now()
		if inst, err = w.setup(env); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		if _, failed := inst.round(env.rounds, lat, nil); failed > 0 {
			inst.close()
			return nil, fmt.Errorf("%s: %d ops of the warm-up round failed their output check", w.name, failed)
		}
		m.setups = append(m.setups, time.Since(t0).Seconds())
		runtime.GC()
		setupProbes = append(setupProbes, p.measure())
	}
	defer inst.close()
	for k := range m.setups {
		m.setups[k] /= p.slowdown(median(setupProbes))
	}
	m.probes = setupProbes[len(setupProbes)-1:]

	sorted := make([]float64, w.ops)
	var ms0, ms1 runtime.MemStats
	for r := 0; r < env.rounds; r++ {
		st := roundStat{traced: traced && r%2 == 1}
		var tr *tracer
		if st.traced {
			tr = m.tracer
		}
		runtime.ReadMemStats(&ms0)
		st.secs, st.failed = inst.round(r, lat, tr)
		runtime.ReadMemStats(&ms1)
		st.mallocs, st.allocBytes = ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc
		copy(sorted, lat)
		sort.Float64s(sorted)
		st.p50, st.p90 = percentile(sorted, 0.5), percentile(sorted, 0.9)
		runtime.GC()
		m.probes = append(m.probes, p.measure())
		m.rounds = append(m.rounds, st)
	}
	slow, kept := hostState(m.probes, p)
	for r := range m.rounds {
		m.rounds[r].slow, m.rounds[r].kept = slow[r], kept[r]
	}
	if o, ok := inst.(interface{ layerMetrics() map[string]float64 }); ok {
		m.own = o.layerMetrics()
	}
	return m, nil
}

// hostState turns a run's probe series into what each round saw of the
// host. Round r ran between probes[r] and probes[r+1]. One probe is a noisy
// sample and the host mostly moves slowly, so a round's slowdown is the
// median of the four probes nearest to it (two before, two after) over the
// nominal probe time (or 1, for a probe that only detects a state); a round whose two
// sides differ by more than flipThreshold straddled a host-state flip and is
// not kept.
func hostState(probes []float64, p *probe) (slow []float64, kept []bool) {
	for r := 0; r+1 < len(probes); r++ {
		before := probes[max(0, r-1) : r+1]
		after := probes[r+1 : min(len(probes), r+3)]
		slow = append(slow, p.slowdown(median(append(append([]float64(nil), before...), after...))))
		kept = append(kept, !straddlesFlip(p.slowdown(mean(before)), p.slowdown(mean(after))))
	}
	return slow, kept
}

// filter returns the rounds matching traced, and of those the ones kept by
// the flip rule (all of them where the rule spares fewer than minKeptShare).
func (m *measured) filter(traced bool) (all, kept []roundStat) {
	for _, r := range m.rounds {
		if r.traced != traced {
			continue
		}
		all = append(all, r)
		if r.kept {
			kept = append(kept, r)
		}
	}
	if float64(len(kept)) < minKeptShare*float64(len(all)) {
		kept = all
	}
	return all, kept
}

// timing is the medians over rounds of one set of rounds: normalised by
// each round's bracket slowdown, and raw.
type timing struct {
	opsPerS, p50us, p90us          float64
	rawOpsPerS, rawP50us, rawP90us float64
}

func (m *measured) timing(rounds []roundStat) timing {
	var thr, p50, p90, rthr, rp50, rp90 []float64
	n := float64(m.w.ops)
	for _, r := range rounds {
		thr = append(thr, n/(r.secs/r.slow))
		p50 = append(p50, r.p50/r.slow*1e6)
		p90 = append(p90, r.p90/r.slow*1e6)
		rthr = append(rthr, n/r.secs)
		rp50 = append(rp50, r.p50*1e6)
		rp90 = append(rp90, r.p90*1e6)
	}
	return timing{median(thr), median(p50), median(p90), median(rthr), median(rp50), median(rp90)}
}

// counts returns ops attempted and failed over every timed round, dropped
// ones included: a wrong answer in a dropped round is still a wrong answer.
func (m *measured) counts() (attempted, failed int) {
	for _, r := range m.rounds {
		attempted += m.w.ops
		failed += r.failed
	}
	return attempted, failed
}

// scratchDir makes the run's private directory under .bench_build in the
// current directory (the checkout), so nothing is written outside it.
func scratchDir() (string, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(".bench_build", "run-*")
}
