package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metricDef is one catalogue entry, in BENCHMARK.json's own form (only
// end-to-end metrics have a bound); bench_test.go holds the two together.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEndMetrics are what a user of each workload sees, every timing the
// median over kept rounds of the round's value divided by the slowdown the
// probes around it saw. Bound is the relative worsening that is a regression.
// A bound has to stay above the single-run spread of the least steady
// workload (rt-small and knemd-cold read an IQR of 6-12 % of the median here,
// the other three 1-4 %; README.md), or the benchmark cannot tell a build
// from itself.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"ops_per_s", "1/s", higher, 0.20},
	{"op_p50_us", "us", lower, 0.20},
	{"op_p90_us", "us", lower, 0.20},
}

// perLayerMetrics is the traced run's catalogue: harness and host first,
// then one block per layer. README.md says which end-to-end metric each
// should move, on which workload.
func perLayerMetrics() []metricDef {
	out := []metricDef{
		{Name: "raw_ops_per_s", Unit: "1/s", Better: higher},
		{Name: "raw_op_p50_us", Unit: "us", Better: lower},
		{Name: "raw_op_p90_us", Unit: "us", Better: lower},
		{Name: "trace_overhead_pct", Unit: "%", Better: lower},
		{Name: "allocs_per_op", Unit: "count", Better: lower},
		{Name: "alloc_kib_per_op", Unit: "KiB", Better: lower},
		{Name: "host.probe_ms_p50", Unit: "ms", Better: lower},
		{Name: "host.probe_spread", Unit: "ratio", Better: lower},
		{Name: "host.rounds_discarded", Unit: "count", Better: lower},
		{Name: "host.memmove_gibps", Unit: "GiB/s", Better: higher},
		{Name: "host.fsync_us_p50", Unit: "us", Better: lower},

		{Name: "sim.events_per_op", Unit: "count", Better: lower},
		{Name: "sim.host_ns_per_event", Unit: "ns", Better: lower},
		{Name: "sim.engine_ns_per_event", Unit: "ns", Better: lower},
		{Name: "sim.handoff_ns", Unit: "ns", Better: lower},
		{Name: "sim.mp_slowdown", Unit: "ratio", Better: lower},
		{Name: "hw.copyrange_ns_per_line", Unit: "ns", Better: lower},
		{Name: "hw.bus_util.fig5-default", Unit: "ratio", Better: lower},
		{Name: "cache.access_ns_per_line", Unit: "ns", Better: lower},
		{Name: "cache.hit_ratio", Unit: "ratio", Better: higher},
		{Name: "nemesis.eager_msgs", Unit: "count", Better: lower},
		{Name: "nemesis.rndv_msgs", Unit: "count", Better: lower},
		{Name: "nemesis.bytes_sent", Unit: "bytes", Better: lower},
	}
	for _, b := range layerBackends {
		out = append(out, metricDef{Name: "core.host_us_per_xfer." + b, Unit: "us", Better: lower})
	}
	for _, b := range layerBackends {
		for _, pl := range []string{"shared", "cross"} {
			out = append(out, metricDef{Name: "core.sim_mibps." + b + "." + pl, Unit: "MiB/s", Better: higher})
		}
	}
	return append(out,
		metricDef{Name: "rt.fastbox_ns_per_msg", Unit: "ns", Better: lower},
		metricDef{Name: "rt.fastbox_hit_ratio", Unit: "ratio", Better: higher},
		metricDef{Name: "rt.allocs_per_msg", Unit: "count", Better: lower},
		metricDef{Name: "rt.queue_ns_per_msg", Unit: "ns", Better: lower},
		metricDef{Name: "rt.unexpected_ns_per_msg", Unit: "ns", Better: lower},
		metricDef{Name: "rt.rndv_us_per_msg.eager", Unit: "us", Better: lower},
		metricDef{Name: "rt.rndv_us_per_msg.single-copy", Unit: "us", Better: lower},
		metricDef{Name: "rt.rndv_us_per_msg.offload", Unit: "us", Better: lower},
		metricDef{Name: "rt.rndv_us_per_msg.single-copy.256KiB", Unit: "us", Better: lower},
		metricDef{Name: "rt.copy_efficiency", Unit: "ratio", Better: higher},
		metricDef{Name: "rt.rndv_msgs", Unit: "count", Better: lower},
		metricDef{Name: "rt.bytes_moved", Unit: "bytes", Better: lower},

		metricDef{Name: "serve.api.canon_key_us", Unit: "us", Better: lower},
		metricDef{Name: "serve.cache.get_ns", Unit: "ns", Better: lower},
		metricDef{Name: "serve.http_us_p50", Unit: "us", Better: lower},
		metricDef{Name: "serve.execute_us_p50", Unit: "us", Better: lower},
		metricDef{Name: "serve.store.put_artefact_us_p50", Unit: "us", Better: lower},
		metricDef{Name: "serve.store.wal_append_us_p50", Unit: "us", Better: lower},
		metricDef{Name: "serve.store.wal_entries_per_job", Unit: "count", Better: lower},
		metricDef{Name: "serve.store.growth_slowdown", Unit: "ratio", Better: higher},
		metricDef{Name: "serve.scheduler.dispatch_us", Unit: "us", Better: lower},
		metricDef{Name: "serve.stage.queued_us_p50", Unit: "us", Better: lower},
		metricDef{Name: "serve.stage.admitted_us_p50", Unit: "us", Better: lower},
		metricDef{Name: "serve.stage.running_us_p50", Unit: "us", Better: lower},
		metricDef{Name: "serve.cache_hit_ratio", Unit: "ratio", Better: higher},
		metricDef{Name: "serve.shed_ratio", Unit: "ratio", Better: lower},
	)
}

// tracedShare is the part of the requested seconds a traced run spends on
// rounds; the layer probes take the rest.
const tracedShare = 0.7

// roundsFor turns the seconds asked for into a fixed number of rounds.
func roundsFor(w *workload, seconds int, traced bool) int {
	r := w.rate * float64(seconds)
	if traced {
		// Traced and untraced rounds alternate, so an even count.
		return max(4, 2*int(math.Round(r*tracedShare/2)))
	}
	return max(3, int(math.Round(r)))
}

// runInfo is printed (as one JSON line) before the result line of every
// run: where and how the numbers were taken.
type runInfo struct {
	Workload        string     `json:"workload"`
	Seed            uint64     `json:"seed"`
	Traced          bool       `json:"traced"`
	Rounds          int        `json:"rounds"`
	RoundsDiscarded int        `json:"rounds_discarded"`
	OpsPerRound     int        `json:"ops_per_round"`
	Probe           string     `json:"probe"`
	ProbeNominalMS  float64    `json:"probe_nominal_ms"`
	ProbeMedianMS   float64    `json:"probe_median_ms"`
	ElapsedS        float64    `json:"elapsed_s"`
	TraceFile       string     `json:"trace_file,omitempty"`
	Host            hostRecord `json:"host"`
}

// runOne runs one workload in this process and returns the result line.
func runOne(w *workload, seed uint64, seconds int, traced bool, dump bool) (result, error) {
	began := time.Now()
	dir, err := scratchDir()
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)
	env := &runEnv{seed: seed, rounds: roundsFor(w, seconds, traced), dir: dir}
	m, err := runRounds(w, env, traced)
	if err != nil {
		return result{}, err
	}
	if dump {
		m.dumpRounds()
	}
	info := runInfo{
		Workload: w.name, Seed: seed, Traced: traced, Rounds: len(m.rounds), OpsPerRound: w.ops,
		Probe: m.probe.name, ProbeNominalMS: m.probe.nominal * 1e3, ProbeMedianMS: median(m.probes) * 1e3,
		Host: currentHost(dir),
	}
	for _, r := range m.rounds {
		if !r.kept {
			info.RoundsDiscarded++
		}
	}
	res := result{Metrics: map[string]value{}}
	res.Attempted, res.Failed = m.counts()
	res.Correct = res.Failed == 0
	var values map[string]float64
	defs := endToEndMetrics
	if traced {
		defs = perLayerMetrics()
		if values, err = m.perLayer(dir, info.RoundsDiscarded); err != nil {
			return result{}, err
		}
		info.TraceFile = filepath.Join(".bench_build", "trace-"+w.name+".json")
		if err := m.tracer.writeChrome(info.TraceFile); err != nil {
			return result{}, fmt.Errorf("writing the trace: %w", err)
		}
		printSpanSummary(m.tracer.spans)
	} else {
		values = m.endToEnd()
	}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return result{}, fmt.Errorf("%s: metric %s was not measured", w.name, d.Name)
		}
		res.Metrics[d.Name] = value{Value: v, Unit: d.Unit}
	}
	info.ElapsedS = time.Since(began).Seconds()
	line, _ := json.Marshal(info) // plain struct of strings and numbers
	fmt.Println(string(line))
	return res, nil
}

func (m *measured) endToEnd() map[string]float64 {
	_, kept := m.filter(false)
	t := m.timing(kept)
	return map[string]float64{
		"setup_s":   median(m.setups),
		"ops_per_s": t.opsPerS,
		"op_p50_us": t.p50us,
		"op_p90_us": t.p90us,
	}
}

// perLayer assembles the traced run's metrics: the harness's own from the
// untraced and traced rounds, then every layer's probes (each call a span).
func (m *measured) perLayer(dir string, discarded int) (map[string]float64, error) {
	all, kept := m.filter(false)
	_, keptTraced := m.filter(true)
	untraced, traced := m.timing(kept), m.timing(keptTraced)
	out := map[string]float64{
		"raw_ops_per_s":         untraced.rawOpsPerS,
		"raw_op_p50_us":         untraced.rawP50us,
		"raw_op_p90_us":         untraced.rawP90us,
		"trace_overhead_pct":    100 * (untraced.rawOpsPerS - traced.rawOpsPerS) / untraced.rawOpsPerS,
		"host.probe_ms_p50":     median(m.probes) * 1e3,
		"host.probe_spread":     relSpread(m.probes),
		"host.rounds_discarded": float64(discarded),
	}
	var mallocs, bytes uint64
	for _, r := range all {
		mallocs += r.mallocs
		bytes += r.allocBytes
	}
	ops := float64(len(all) * m.w.ops)
	out["allocs_per_op"] = float64(mallocs) / ops
	out["alloc_kib_per_op"] = float64(bytes) / 1024 / ops
	// Throughput of the run's last rounds over its first: a store that
	// slows as it grows shows here on the knemd workloads.
	decile := max(1, len(all)/10)
	out["serve.store.growth_slowdown"] = m.timing(all[len(all)-decile:]).rawOpsPerS / m.timing(all[:decile]).rawOpsPerS

	root := m.tracer.begin("layer-probes", 0, 0)
	defer m.tracer.end(root)
	if err := simLayers(m.tracer, root, out); err != nil {
		return nil, fmt.Errorf("sim layer probes: %w", err)
	}
	runtime.GC()
	if err := rtLayers(m.tracer, root, out); err != nil {
		return nil, fmt.Errorf("rt layer probes: %w", err)
	}
	runtime.GC()
	if err := serveLayers(dir, m.tracer, root, out); err != nil {
		return nil, fmt.Errorf("serve layer probes: %w", err)
	}
	// On the knemd workloads the validity ratios and the WAL entry count
	// are the workload's own daemon's over its timed rounds (cold: no
	// hits, four entries; warm: all hits, two entries).
	for name, v := range m.own {
		out[name] = v
	}
	return out, nil
}

func printSpanSummary(spans []span) {
	fmt.Fprintf(os.Stderr, "%-40s %8s %12s %12s\n", "span", "count", "total ms", "self ms")
	for _, s := range summarise(spans) {
		fmt.Fprintf(os.Stderr, "%-40s %8d %12.2f %12.2f\n", s.Name, s.Count, s.TotalMillis, s.SelfMillis)
	}
}

// dumpRounds prints the run's raw series: one line per round.
func (m *measured) dumpRounds() {
	fmt.Fprintln(os.Stderr, "round traced kept probe_before_ms probe_after_ms round_s op_p50_us op_p90_us failed slowdown")
	for i, r := range m.rounds {
		fmt.Fprintf(os.Stderr, "%d %v %v %.3f %.3f %.5f %.1f %.1f %d %.4f\n",
			i, r.traced, r.kept, m.probes[i]*1e3, m.probes[i+1]*1e3, r.secs, r.p50*1e6, r.p90*1e6, r.failed, r.slow)
	}
}

// runSeconds is BENCHMARK.json's run_seconds: with it a run of any workload,
// set-up and layer probes included, ends within 25 s on the nominal host,
// which keeps the driver's 114 runs and two builds inside its cap.
const runSeconds = 15

// printCatalogue prints BENCHMARK.json from the same tables the runs print
// their metrics from.
func printCatalogue() error {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	var f struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	f.Command, f.Paths, f.RunSeconds = []string{"bash", "bench/run.sh"}, []string{"bench"}, runSeconds
	for _, w := range workloads() {
		f.Workloads = append(f.Workloads, wl{w.name, w.why})
	}
	f.EndToEnd, f.PerLayer = endToEndMetrics, perLayerMetrics()
	buf, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(buf))
	return nil
}
