// Command simbench runs the repository's benchmark workloads — the Figure
// 3-7 sweeps, the §3.5 threshold study, the multipair contention sweep and
// (since BENCH_5) the real-runtime fast-path workloads — outside `go test`,
// measures wall-clock cost per workload, and records the results in a typed
// JSON artefact. BENCH_5.json at the repository root is the committed
// baseline (BENCH_3.json remains the sim-only artefact from the PR that
// recorded it); CI re-runs the workloads and compares:
//
//   - simulation-result drift beyond the tolerance FAILS the build (the
//     model changed; regenerate the baseline deliberately with -out),
//   - measured rt performance (perf metrics) and wall-time regressions
//     only WARN (they are hardware-dependent) — but an rt deadlock,
//     panic or error still fails the run.
//
// Usage:
//
//	simbench -out BENCH_5.json            # write/refresh the committed baseline
//	simbench -check BENCH_5.json          # compare a fresh run to the baseline
//	simbench -rt=false -check BENCH_3.json  # sim-only workloads vs the old artefact
//
// Since schema 3 the artefact records the host context (Go version,
// GOMAXPROCS, CPU count, OS/arch) it was written on. -check compares
// measured metrics (Perf, wall time) only like-for-like: when the baseline
// host differs from the current one those comparisons are skipped with a
// note, while the deterministic Sim metrics are always enforced.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"knemesis/internal/core"
	"knemesis/internal/experiments"
	"knemesis/internal/imb"
	"knemesis/internal/knem"
	"knemesis/internal/mpi"
	"knemesis/internal/nemesis"
	"knemesis/internal/profiling"
	"knemesis/internal/topo"
	"knemesis/internal/units"
)

// File is the typed BENCH_N.json artefact.
type File struct {
	Schema int `json:"schema"`
	// Host records the machine context the artefact was written on. A zero
	// Host (legacy schema ≤2 artefacts) means unknown; -check then falls
	// back to comparing measured metrics unconditionally.
	Host Host `json:"host"`
	// Suites records suite-level wall-clock measurements (e.g. the full
	// `go test -bench` and experiments-test runs before and after a perf
	// PR). simbench preserves this section across -out regenerations; the
	// numbers are filled in by the PR that measures them.
	Suites    []Suite    `json:"suites"`
	Workloads []Workload `json:"workloads"`
}

// Host identifies the machine and toolchain an artefact's measured metrics
// were taken on. Sim metrics are host-independent by construction; Perf and
// wall-time numbers are only comparable between equal Hosts.
type Host struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

func currentHost() Host {
	return Host{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
	}
}

// Suite is one recorded before/after wall-time comparison.
type Suite struct {
	Name        string  `json:"name"`
	BaselineSec float64 `json:"baseline_sec"`
	CurrentSec  float64 `json:"current_sec"`
	Speedup     float64 `json:"speedup"`
}

// Workload is one benchmark workload: its wall-clock cost on the machine
// that wrote the file plus its deterministic simulation metrics and/or its
// measured (hardware-dependent) performance metrics.
type Workload struct {
	Name    string             `json:"name"`
	WallSec float64            `json:"wall_sec"`
	Sim     map[string]float64 `json:"sim,omitempty"`
	// Perf holds measured real-runtime metrics (msgs/s, MiB/s). Unlike Sim
	// they vary with the machine and run, so -check only warns on drift —
	// but the workloads still run under the gate, so a deadlock, crash or
	// collapse in the rt engine fails CI.
	Perf map[string]float64 `json:"perf,omitempty"`
}

// simTolerance is the relative simulation-result drift that fails -check.
const simTolerance = 0.20

// perfWarnTolerance is the relative measured-performance drift (in either
// direction) that triggers a warning; measured metrics never fail -check.
const perfWarnTolerance = 0.5

// wallWarnFactor is the total wall-time growth that triggers the warning.
const wallWarnFactor = 1.5

func main() {
	var (
		out        = flag.String("out", "", "write the benchmark artefact to this file")
		check      = flag.String("check", "", "run the workloads and compare against this baseline file")
		withSim    = flag.Bool("sim", true, "include the simulation sweep workloads (figures, thresholds, multipair)")
		withRT     = flag.Bool("rt", true, "include the real-runtime (rt) workloads")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	if err := checkFlags(*out, *check, *withSim, *withRT); err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(2)
	}

	stopProf, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fatal(err)
	}

	cur := File{Schema: 3, Host: currentHost(), Workloads: runWorkloads(*withSim, *withRT)}
	if err := stopProf(); err != nil {
		fmt.Fprintln(os.Stderr, "simbench: profile:", err)
	}

	if *out != "" {
		// Preserve the hand-recorded suite section across regenerations.
		if old, err := readFile(*out); err == nil {
			cur.Suites = old.Suites
		}
		buf, err := json.MarshalIndent(cur, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (%d workloads)\n", *out, len(cur.Workloads))
		return
	}

	base, err := readFile(*check)
	if err != nil {
		fatal(err)
	}
	if err := compare(base, cur); err != nil {
		fatal(err)
	}
	fmt.Printf("simbench: %d workloads match %s within %.0f%%\n",
		len(cur.Workloads), *check, simTolerance*100)
}

// checkFlags rejects flag combinations that cannot do what they say. With
// both workload sets off nothing would run, and -check would pass against
// any baseline: compare only walks the workloads that ran.
func checkFlags(out, check string, withSim, withRT bool) error {
	if (out == "") == (check == "") {
		return fmt.Errorf("exactly one of -out or -check is required")
	}
	if !withSim && !withRT {
		return fmt.Errorf("-sim=false -rt=false selects no workloads")
	}
	return nil
}

func readFile(path string) (File, error) {
	var f File
	buf, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(buf, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// compare fails on simulation drift and warns on wall-time growth and on
// measured-performance (Perf) drift. Measured comparisons (Perf, wall time)
// only happen like-for-like: a baseline written on a different host (or a
// legacy artefact with no host record, treated as comparable for backwards
// compatibility) suppresses them, never the Sim checks.
func compare(base, cur File) error {
	likeForLike := base.Host == (Host{}) || base.Host == cur.Host
	if !likeForLike {
		fmt.Fprintf(os.Stderr,
			"simbench: note: baseline host %+v differs from current %+v; skipping measured-metric and wall-time comparisons\n",
			base.Host, cur.Host)
	}
	baseWl := make(map[string]Workload, len(base.Workloads))
	for _, w := range base.Workloads {
		baseWl[w.Name] = w
	}
	var drift []string
	var baseWall, curWall float64
	for _, w := range cur.Workloads {
		curWall += w.WallSec
		b, ok := baseWl[w.Name]
		if !ok {
			drift = append(drift, fmt.Sprintf("%s: not in baseline (regenerate with -out)", w.Name))
			continue
		}
		baseWall += b.WallSec
		delete(baseWl, w.Name)
		if likeForLike {
			for _, name := range sortedKeys(w.Perf) {
				got, want := w.Perf[name], b.Perf[name]
				if want > 0 && !within(got, want, perfWarnTolerance) {
					fmt.Fprintf(os.Stderr,
						"simbench: WARNING: %s %s: %.3g, baseline %.3g (measured metric, informational only)\n",
						w.Name, name, got, want)
				}
			}
		}
		for _, name := range sortedKeys(w.Sim) {
			got := w.Sim[name]
			want, ok := b.Sim[name]
			if !ok {
				drift = append(drift, fmt.Sprintf("%s %s: metric not in baseline", w.Name, name))
				continue
			}
			if !within(got, want, simTolerance) {
				drift = append(drift, fmt.Sprintf("%s %s: %g, baseline %g (%.1f%% off)",
					w.Name, name, got, want, 100*relDelta(got, want)))
			}
		}
		// A pinned result must not silently vanish from the check.
		for _, name := range sortedKeys(b.Sim) {
			if _, ok := w.Sim[name]; !ok {
				drift = append(drift, fmt.Sprintf("%s %s: metric in baseline but not produced", w.Name, name))
			}
		}
	}
	for name := range baseWl {
		drift = append(drift, fmt.Sprintf("%s: in baseline but not produced", name))
	}
	if len(drift) > 0 {
		sort.Strings(drift)
		for _, d := range drift {
			fmt.Fprintln(os.Stderr, "simbench: DRIFT:", d)
		}
		return fmt.Errorf("%d simulation results drifted more than %.0f%% from the baseline",
			len(drift), simTolerance*100)
	}
	if likeForLike && baseWall > 0 && curWall > wallWarnFactor*baseWall {
		fmt.Fprintf(os.Stderr,
			"simbench: WARNING: wall time %.2fs vs baseline %.2fs (>%.1fx slower; timings are informational only)\n",
			curWall, baseWall, wallWarnFactor)
	}
	return nil
}

func relDelta(got, want float64) float64 {
	d := got - want
	if d < 0 {
		d = -d
	}
	if want < 0 {
		want = -want
	}
	if want == 0 {
		if d == 0 {
			return 0
		}
		return 1
	}
	return d / want
}

func within(got, want, tol float64) bool { return relDelta(got, want) <= tol }

func sortedKeys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// --- workloads -----------------------------------------------------------

// pingSizes mirrors bench_test.go's reduced sweep.
var pingSizes = []int64{256 * units.KiB, 1 * units.MiB, 4 * units.MiB}

// rt perf workload scale: fixed work so runs are comparable as seconds.
const (
	rtMsgRateRounds = 200_000
	rtStreamMsgs    = 150
	rtStreamBytes   = int(4 * units.MiB)
)

func runWorkloads(withSim, withRT bool) []Workload {
	var out []Workload
	add := func(name string, run func() (map[string]float64, error)) {
		start := time.Now()
		sim, err := run()
		if err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		out = append(out, Workload{
			Name:    name,
			WallSec: time.Since(start).Seconds(),
			Sim:     sim,
		})
	}
	addPerf := func(name string, run func() (map[string]float64, error)) {
		start := time.Now()
		perf, err := run()
		if err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		out = append(out, Workload{
			Name:    name,
			WallSec: time.Since(start).Seconds(),
			Perf:    perf,
		})
	}
	addRT := func() {
		// Real-runtime fast-path workloads: message rate at fastbox sizes,
		// stream bandwidth at rendezvous sizes, per large-message mode.
		for _, size := range []int{64, 256} {
			size := size
			addPerf(fmt.Sprintf("rt/msgrate/%dB", size), func() (map[string]float64, error) {
				pt, err := experiments.RTMsgRate("single-copy", size, rtMsgRateRounds)
				if err != nil {
					return nil, err
				}
				return map[string]float64{"msgs/s": pt.MsgsPerS}, nil
			})
		}
		for _, mode := range []string{"eager", "single-copy", "offload"} {
			mode := mode
			addPerf("rt/streambw/4MiB/"+mode, func() (map[string]float64, error) {
				pt, err := experiments.RTStreamBW(mode, rtStreamBytes, rtStreamMsgs)
				if err != nil {
					return nil, err
				}
				return map[string]float64{"MiB/s": pt.MiBps}, nil
			})
		}
	}

	if !withSim {
		addRT()
		return out
	}

	type ppCase struct {
		name   string
		opt    core.Options
		shared bool
	}
	ppCases := []ppCase{
		{"fig3/vmsplice/shared", core.Options{Kind: core.VmspliceLMT}, true},
		{"fig3/vmsplice/cross", core.Options{Kind: core.VmspliceLMT}, false},
		{"fig3/writev/shared", core.Options{Kind: core.VmspliceWritevLMT}, true},
		{"fig3/writev/cross", core.Options{Kind: core.VmspliceWritevLMT}, false},
		{"fig4/default", core.Options{Kind: core.DefaultLMT}, true},
		{"fig4/knem", core.Options{Kind: core.KnemLMT, IOAT: core.IOATOff}, true},
		{"fig4/knem-ioat", core.Options{Kind: core.KnemLMT, IOAT: core.IOATAlways}, true},
		{"fig5/default", core.Options{Kind: core.DefaultLMT}, false},
		{"fig5/knem", core.Options{Kind: core.KnemLMT, IOAT: core.IOATOff}, false},
		{"fig5/knem-ioat", core.Options{Kind: core.KnemLMT, IOAT: core.IOATAlways}, false},
	}
	for _, md := range []knem.Mode{knem.SyncCopy, knem.AsyncKThread, knem.SyncIOAT, knem.AsyncIOAT} {
		md := md
		ppCases = append(ppCases, ppCase{
			name: fmt.Sprintf("fig6/%v", md),
			opt:  core.Options{Kind: core.KnemLMT, ForceKnemMode: &md},
		})
	}
	for _, cs := range ppCases {
		cs := cs
		add(cs.name, func() (map[string]float64, error) { return pingPong(cs.opt, cs.shared) })
	}

	for _, cs := range []struct {
		name string
		opt  core.Options
		cfg  nemesis.Config
	}{
		{"fig7/default", core.Options{Kind: core.DefaultLMT}, nemesis.Config{}},
		{"fig7/knem", core.Options{Kind: core.KnemLMT, IOAT: core.IOATOff}, nemesis.Config{EagerMax: 4 * units.KiB}},
		{"fig7/knem-ioat", core.Options{Kind: core.KnemLMT, IOAT: core.IOATAlways}, nemesis.Config{EagerMax: 4 * units.KiB}},
	} {
		cs := cs
		add(cs.name, func() (map[string]float64, error) { return alltoall(cs.opt, cs.cfg) })
	}

	add("thresholds", thresholds)
	add("multipair", multipair)
	if withRT {
		addRT()
	}
	return out
}

func pingPong(opt core.Options, shared bool) (map[string]float64, error) {
	m := topo.XeonE5345()
	var c0, c1 topo.CoreID
	if shared {
		c0, c1 = m.PairSharedCache()
	} else {
		c0, c1 = m.PairDifferentDies()
	}
	st := core.NewStack(m, []topo.CoreID{c0, c1}, opt, nemesis.Config{})
	res, err := imb.RunPingPong(mpi.NewSimJob(st), pingSizes)
	if err != nil {
		return nil, err
	}
	sim := make(map[string]float64, len(res.Points))
	for _, pt := range res.Points {
		sim["MiB/s@"+units.FormatSize(pt.Size)] = pt.Throughput
	}
	return sim, nil
}

func alltoall(opt core.Options, cfg nemesis.Config) (map[string]float64, error) {
	m := topo.XeonE5345()
	st := core.NewStack(m, m.AllCores(), opt, cfg)
	res, err := imb.RunAlltoall(mpi.NewSimJob(st), []int64{32 * units.KiB, 256 * units.KiB})
	if err != nil {
		return nil, err
	}
	sim := make(map[string]float64, len(res.Points))
	for _, pt := range res.Points {
		sim["aggMiB/s@"+units.FormatSize(pt.Size)] = pt.Throughput
	}
	return sim, nil
}

func thresholds() (map[string]float64, error) {
	set, err := experiments.Thresholds()
	if err != nil {
		return nil, err
	}
	sim := make(map[string]float64, len(set))
	for _, r := range set {
		sim[fmt.Sprintf("crossover-bytes:%s/%s", r.Machine, r.Placement)] = float64(r.MeasuredCrossover)
	}
	return sim, nil
}

func multipair() (map[string]float64, error) {
	env := experiments.DefaultEnv(topo.XeonE5345())
	env.MultiSizes = []int64{1 * units.MiB} // the contention-crossover size
	rows, err := experiments.MultipairRows(env)
	if err != nil {
		return nil, err
	}
	sim := make(map[string]float64, len(rows))
	for _, r := range rows {
		sim[fmt.Sprintf("aggMiB/s:%s/%s/%dpair", r.Backend, r.Placement, r.Pairs)] = r.AggMiBps
	}
	return sim, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "simbench:", err)
	os.Exit(1)
}
