// Command knemd is the always-on experiment service: it accepts canonical
// JobSpec envelopes (see internal/serve/api) over HTTP/JSON, schedules
// them through the class-aware admission controller — sim jobs fan out
// across a bounded worker pool, rt jobs run one at a time on a reserved
// quota — answers repeated submissions from the result cache, and persists
// typed JSON artefacts with a long-pollable progress ledger.
//
// Serve mode:
//
//	knemd -addr 127.0.0.1:8077 -store /var/lib/knemd
//	curl -d '{"kind":"comm","bench":"pingpong"}' http://127.0.0.1:8077/v1/jobs
//
// Selftest mode starts an in-process daemon on a loopback port, replays an
// MMPP-modulated burst of mixed specs against it with the loadgen client,
// and reports jobs/s, latency percentiles, shed rate and cache hit rate as
// a simbench-style artefact:
//
//	knemd -selftest -out BENCH_9.json     # record the baseline
//	knemd -selftest -check BENCH_9.json   # CI drift gate
//
// Under -check the correctness/shape metrics (errors, rt overlap, envelope
// audits, accounting identity, cache effectiveness) are enforced; the
// throughput and latency numbers are measured metrics and only warn, and
// only like-for-like (same host record).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"syscall"
	"time"

	"knemesis/internal/serve"
	"knemesis/internal/serve/api"
	"knemesis/internal/serve/loadgen"
	"knemesis/internal/serve/store"
	"knemesis/internal/units"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:8077", "serve address")
		storeRoot  = flag.String("store", "", "ledger directory holding wal.jsonl, records and artefacts (empty = in memory only)")
		simWorkers = flag.Int("sim-workers", runtime.GOMAXPROCS(0), "concurrently running sim jobs")
		rtCores    = flag.Int("rt-cores", 1, "core quota reserved for the rt lane")
		queueCap   = flag.Int("queue-cap", 256, "backlog cap before submissions are shed (429)")
		cacheSize  = flag.Int("cache", 256, "result cache entries")
		deadline   = flag.Duration("deadline", 2*time.Minute, "default per-job deadline")

		recovery        = flag.String("recovery", serve.RecoveryRequeue, "crash-recovery policy for interrupted jobs (requeue|fail)")
		retryMax        = flag.Int("retry-max", 2, "transparent retries of transiently failed jobs (negative disables)")
		retryBackoff    = flag.Duration("retry-backoff", 200*time.Millisecond, "base of the exponential retry backoff")
		quarantineAfter = flag.Int("quarantine-after", 3, "panics per spec before its key is quarantined (negative disables)")

		selftest = flag.Bool("selftest", false, "run the in-process load-generation selftest and exit")
		jobs     = flag.Int("jobs", 200, "selftest: total submissions")
		seed     = flag.Uint64("seed", 1, "selftest: arrival/mix stream seed")
		out      = flag.String("out", "", "selftest: write the BENCH artefact to this file")
		check    = flag.String("check", "", "selftest: compare against this baseline artefact")
	)
	flag.Parse()

	cfg := serve.Config{
		SimWorkers: *simWorkers,
		RTCores:    *rtCores,
		QueueCap:   *queueCap,
		CacheSize:  *cacheSize,
		Deadline:   *deadline,
		StoreRoot:  *storeRoot,

		Recovery:        *recovery,
		RetryMax:        *retryMax,
		RetryBackoff:    *retryBackoff,
		QuarantineAfter: *quarantineAfter,
	}
	if *selftest {
		os.Exit(runSelftest(cfg, *jobs, *seed, *out, *check))
	}
	if err := serveForever(cfg, *addr); err != nil {
		fmt.Fprintln(os.Stderr, "knemd:", err)
		os.Exit(1)
	}
}

// serveForever runs the daemon until SIGINT/SIGTERM, then drains: no new
// submissions, queued jobs cancelled, running jobs finished (cut after a
// 30s grace period).
func serveForever(cfg serve.Config, addr string) error {
	d, err := serve.NewDaemon(cfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: serve.Handler(d)}
	fmt.Printf("knemd: serving on http://%s\n", ln.Addr())

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case sig := <-stop:
		fmt.Printf("knemd: %v: draining\n", sig)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	d.Drain(ctx)
	srv.Shutdown(ctx)
	st := d.Stats()
	fmt.Printf("knemd: drained: %d done, %d failed, %d cancelled, %d shed\n",
		st.Done, st.Failed, st.Cancelled, st.Shed)
	return nil
}

// --- selftest + BENCH_9 artefact -----------------------------------------

// File mirrors the simbench BENCH_N.json schema so the CI gating story is
// uniform: Sim metrics are enforced, Perf metrics warn, measured
// comparisons are like-for-like on the Host record.
type File struct {
	Schema    int        `json:"schema"`
	Host      Host       `json:"host"`
	Workloads []Workload `json:"workloads"`
}

type Host struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

type Workload struct {
	Name    string             `json:"name"`
	WallSec float64            `json:"wall_sec"`
	Sim     map[string]float64 `json:"sim,omitempty"`
	Perf    map[string]float64 `json:"perf,omitempty"`
}

const (
	simTolerance      = 0.20
	perfWarnTolerance = 0.5
)

func currentHost() Host {
	return Host{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
	}
}

func runSelftest(cfg serve.Config, jobs int, seed uint64, out, check string) int {
	if (out == "") == (check == "") {
		fmt.Fprintln(os.Stderr, "knemd: -selftest needs exactly one of -out or -check")
		return 2
	}
	d, err := serve.NewDaemon(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "knemd:", err)
		return 1
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "knemd:", err)
		return 1
	}
	srv := &http.Server{Handler: serve.Handler(d)}
	go srv.Serve(ln)
	base := "http://" + ln.Addr().String()

	t0 := time.Now()
	rep, err := loadgen.Run(loadgen.Config{BaseURL: base, Jobs: jobs, Seed: seed})
	wall := time.Since(t0).Seconds()
	if err != nil {
		fmt.Fprintln(os.Stderr, "knemd: selftest:", err)
		return 1
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	d.Drain(ctx)
	srv.Shutdown(ctx)
	st := d.Stats()

	accounting := 1.0
	if int64(rep.Done+rep.Failed+rep.Cancelled+rep.Shed) != int64(rep.Jobs) {
		accounting = 0
	}
	cacheEffective := 0.0
	if st.CacheHits > 0 {
		cacheEffective = 1
	}
	cur := File{Schema: 3, Host: currentHost(), Workloads: []Workload{{
		Name:    "knemd-selftest",
		WallSec: wall,
		Sim: map[string]float64{
			// Shape/correctness metrics: enforced by -check.
			"errors":            float64(rep.Failed),
			"rt_overlap_max":    float64(st.RTMaxObserved),
			"rt_audit_failures": float64(st.RTAuditFailures),
			"accounting_ok":     accounting,
			"cache_effective":   cacheEffective,
		},
		Perf: map[string]float64{
			// Measured service metrics: warn-only.
			"jobs_per_sec":   rep.JobsPerSec,
			"p50_ms":         rep.P50Ms,
			"p99_ms":         rep.P99Ms,
			"shed_rate":      rep.ShedRate,
			"cache_hit_rate": rep.CacheHitRate,
		},
	}}}

	fmt.Printf("knemd: selftest: %d jobs in %.2fs: %d done (%d cached), %d failed, %d cancelled, %d shed\n",
		rep.Jobs, wall, rep.Done, rep.Cached, rep.Failed, rep.Cancelled, rep.Shed)
	fmt.Printf("knemd: selftest: %.1f jobs/s, p50 %.1fms, p99 %.1fms, shed %.1f%%, cache hit %.1f%%, rt overlap max %d\n",
		rep.JobsPerSec, rep.P50Ms, rep.P99Ms, 100*rep.ShedRate, 100*rep.CacheHitRate, st.RTMaxObserved)

	recWl, err := runRecoveryWorkload()
	if err != nil {
		fmt.Fprintln(os.Stderr, "knemd: selftest: recovery workload:", err)
		return 1
	}
	cur.Workloads = append(cur.Workloads, recWl)
	fmt.Printf("knemd: selftest: recovery: replay %.1fms, %g re-queued, %g cache-answered, %g lost, %g errors\n",
		recWl.Perf["replay_ms"], recWl.Sim["recovery_requeued"], recWl.Sim["recovery_cached"],
		recWl.Sim["recovery_lost"], recWl.Sim["recovery_errors"])

	if out != "" {
		buf, err := json.MarshalIndent(cur, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "knemd:", err)
			return 1
		}
		if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "knemd:", err)
			return 1
		}
		fmt.Printf("knemd: wrote %s\n", out)
		return 0
	}

	buf, err := os.ReadFile(check)
	if err != nil {
		fmt.Fprintln(os.Stderr, "knemd:", err)
		return 1
	}
	var baseFile File
	if err := json.Unmarshal(buf, &baseFile); err != nil {
		fmt.Fprintf(os.Stderr, "knemd: %s: %v\n", check, err)
		return 1
	}
	if err := compare(baseFile, cur); err != nil {
		fmt.Fprintln(os.Stderr, "knemd:", err)
		return 1
	}
	fmt.Printf("knemd: selftest matches %s\n", check)
	return 0
}

// runRecoveryWorkload measures the crash-recovery path on a synthetic
// pre-crash ledger: nDone completed jobs with durable artefacts, nCached
// interrupted duplicates of completed keys (recovery must answer them from
// the rebuilt cache) and nRequeue interrupted unique jobs (recovery must
// re-run them to byte-identical artefacts). The counts are exact, so the
// Sim metrics gate recovery correctness; the replay/recovery times are
// measured Perf metrics.
func runRecoveryWorkload() (Workload, error) {
	const nDone, nCached, nRequeue = 4, 3, 3
	root, err := os.MkdirTemp("", "knemd-recovery-*")
	if err != nil {
		return Workload{}, err
	}
	defer os.RemoveAll(root)

	doneSpec := func(i int) api.Spec {
		return api.Spec{Kind: api.KindComm, Bench: "pingpong", Sizes: []int64{4*units.KiB + int64(i)*units.KiB}}
	}
	uniqSpec := func(i int) api.Spec {
		return api.Spec{Kind: api.KindComm, Bench: "pingpong", Sizes: []int64{128*units.KiB + int64(i)*units.KiB}}
	}
	canon := func(spec api.Spec) (api.Spec, string, error) {
		c, err := spec.Canonicalize()
		if err != nil {
			return api.Spec{}, "", err
		}
		key, err := c.CacheKey()
		return c, key, err
	}

	// Craft the dead daemon's ledger. IDs follow the daemon's own scheme so
	// the reopened sequence resumes above them.
	st, _, err := store.Open(root)
	if err != nil {
		return Workload{}, err
	}
	seq := 0
	nextID := func() string { seq++; return fmt.Sprintf("job-%06d", seq) }
	var cachedIDs, requeueIDs []string
	for i := 0; i < nDone; i++ {
		c, key, err := canon(doneSpec(i))
		if err != nil {
			return Workload{}, err
		}
		files, err := serve.Execute(context.Background(), c, nil)
		if err != nil {
			return Workload{}, err
		}
		id := nextID()
		st.Create(id, key, c.Class(), c.CanonicalJSON(), store.Queued)
		st.Advance(id, store.Running, "")
		if err := st.PutArtefact(id, files); err != nil {
			return Workload{}, err
		}
		st.Finish(id, store.Done, "", id, "")
	}
	for i := 0; i < nCached; i++ {
		c, key, err := canon(doneSpec(i))
		if err != nil {
			return Workload{}, err
		}
		id := nextID()
		cachedIDs = append(cachedIDs, id)
		st.Create(id, key, c.Class(), c.CanonicalJSON(), store.Queued)
		st.Advance(id, store.Admitted, "")
	}
	for i := 0; i < nRequeue; i++ {
		c, key, err := canon(uniqSpec(i))
		if err != nil {
			return Workload{}, err
		}
		id := nextID()
		requeueIDs = append(requeueIDs, id)
		st.Create(id, key, c.Class(), c.CanonicalJSON(), store.Queued)
		st.Advance(id, store.Running, "")
	}
	st.Close()

	// Reopen as the daemon would after a crash and let recovery resolve
	// everything the "kill" left behind.
	t0 := time.Now()
	d, err := serve.NewDaemon(serve.Config{SimWorkers: 2, StoreRoot: root})
	if err != nil {
		return Workload{}, err
	}
	select {
	case <-d.ReadyCh():
	case <-time.After(2 * time.Minute):
		return Workload{}, fmt.Errorf("recovery never completed")
	}

	recErrors := 0.0
	for _, id := range cachedIDs {
		rec, ok := d.Store().Get(id)
		if !ok || rec.State != store.Done || !rec.Cached {
			recErrors++
		}
	}
	for i, id := range requeueIDs {
		rec := awaitTerminal(d, id)
		if rec.State != store.Done {
			recErrors++
			continue
		}
		c, _, err := canon(uniqSpec(i))
		if err != nil {
			return Workload{}, err
		}
		direct, err := serve.Execute(context.Background(), c, nil)
		if err != nil {
			return Workload{}, err
		}
		got, err := d.Store().Artefact(id, "result.json")
		if err != nil || string(got) != string(direct["result.json"]) {
			recErrors++ // recovered artefact diverges from a direct run
		}
	}
	wall := time.Since(t0).Seconds()
	stats := d.Stats()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	d.Drain(ctx)
	d.Close()

	return Workload{
		Name:    "knemd-recovery",
		WallSec: wall,
		Sim: map[string]float64{
			// Exact-count correctness metrics: enforced by -check.
			"recovery_requeued":     float64(stats.Recovery.Requeued),
			"recovery_cached":       float64(stats.Recovery.CachedAnswered),
			"recovery_crash_failed": float64(stats.Recovery.CrashFailed),
			"recovery_lost":         float64(nDone + nCached + nRequeue - stats.Recovery.ReplayRecords),
			"recovery_errors":       recErrors,
			"replay_entries":        float64(stats.Recovery.ReplayEntries),
		},
		Perf: map[string]float64{
			// Measured recovery latencies: warn-only.
			"replay_ms":    stats.Recovery.ReplayMS,
			"recovery_sec": wall,
		},
	}, nil
}

// awaitTerminal long-polls the ledger until the record is terminal.
func awaitTerminal(d *serve.Daemon, id string) store.Record {
	deadline := time.Now().Add(2 * time.Minute)
	since := 0
	for {
		rec, ok := d.Store().Wait(id, since, 5*time.Second)
		if !ok || rec.State.Terminal() || time.Now().After(deadline) {
			return rec
		}
		since = rec.Version
	}
}

// compare enforces the Sim (shape/correctness) metrics and warns on Perf
// drift, like-for-like hosts only — the simbench gating contract.
func compare(base, cur File) error {
	likeForLike := base.Host == (Host{}) || base.Host == cur.Host
	if !likeForLike {
		fmt.Fprintln(os.Stderr, "knemd: note: baseline host differs; skipping measured-metric comparisons")
	}
	baseWl := make(map[string]Workload, len(base.Workloads))
	for _, w := range base.Workloads {
		baseWl[w.Name] = w
	}
	var drift []string
	for _, w := range cur.Workloads {
		b, ok := baseWl[w.Name]
		if !ok {
			drift = append(drift, fmt.Sprintf("%s: not in baseline (regenerate with -out)", w.Name))
			continue
		}
		for _, name := range sortedKeys(w.Sim) {
			got := w.Sim[name]
			want, ok := b.Sim[name]
			if !ok {
				drift = append(drift, fmt.Sprintf("%s %s: metric not in baseline", w.Name, name))
				continue
			}
			if !within(got, want, simTolerance) {
				drift = append(drift, fmt.Sprintf("%s %s: %g, baseline %g", w.Name, name, got, want))
			}
		}
		for _, name := range sortedKeys(b.Sim) {
			if _, ok := w.Sim[name]; !ok {
				drift = append(drift, fmt.Sprintf("%s %s: metric in baseline but not produced", w.Name, name))
			}
		}
		if likeForLike {
			for _, name := range sortedKeys(w.Perf) {
				got, want := w.Perf[name], b.Perf[name]
				if want > 0 && !within(got, want, perfWarnTolerance) {
					fmt.Fprintf(os.Stderr,
						"knemd: WARNING: %s %s: %.3g, baseline %.3g (measured metric, informational only)\n",
						w.Name, name, got, want)
				}
			}
		}
	}
	if len(drift) > 0 {
		sort.Strings(drift)
		for _, d := range drift {
			fmt.Fprintln(os.Stderr, "knemd: DRIFT:", d)
		}
		return fmt.Errorf("%d selftest results drifted from the baseline", len(drift))
	}
	return nil
}

// within reports |got-want| within frac of want; a zero baseline demands a
// zero measurement (the shape metrics pin exact counts).
func within(got, want, frac float64) bool {
	if want == 0 {
		return got == 0
	}
	return math.Abs(got-want) <= frac*math.Abs(want)
}

func sortedKeys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
