package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"knemesis/internal/serve/api"
	"knemesis/internal/serve/scheduler"
	"knemesis/internal/serve/store"
	"knemesis/internal/units"
)

// tinySpec is a fast sim job (~1 ms of wall clock on the sim engine).
func tinySpec(size int64) api.Spec {
	return api.Spec{Kind: api.KindComm, Bench: "pingpong", Sizes: []int64{size}}
}

// slowSpec is a sim job taking several hundred ms: the blocker for the
// cancellation and deadline tests.
func slowSpec() api.Spec {
	sizes := make([]int64, 8)
	for i := range sizes {
		sizes[i] = 32*units.MiB + int64(i)*units.MiB
	}
	return api.Spec{Kind: api.KindComm, Bench: "pingpong", Sizes: sizes}
}

func newTestDaemon(t *testing.T, cfg Config) *Daemon {
	t.Helper()
	d, err := NewDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// await blocks until the record is terminal.
func await(t *testing.T, d *Daemon, id string) store.Record {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	since := 0
	for {
		rec, ok := d.Store().Wait(id, since, time.Second)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if rec.State.Terminal() {
			return rec
		}
		since = rec.Version
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, rec.State)
		}
	}
}

func TestHTTPLifecycleAndByteIdenticalArtefact(t *testing.T) {
	d := newTestDaemon(t, Config{SimWorkers: 2})
	srv := httptest.NewServer(Handler(d))
	defer srv.Close()

	spec := tinySpec(4 * units.KiB)
	body, _ := json.Marshal(spec)
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %s", resp.Status)
	}
	var sub api.SubmitResult
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if sub.ID == "" || sub.Cached {
		t.Fatalf("submit result = %+v", sub)
	}

	// Long-poll the progress API to done.
	since := 0
	var rec store.Record
	for {
		r, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/events?since=%d&wait=5", srv.URL, sub.ID, since))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(r.Body).Decode(&rec); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if rec.State.Terminal() {
			break
		}
		since = rec.Version
	}
	if rec.State != store.Done {
		t.Fatalf("job finished %s: %s", rec.State, rec.Error)
	}
	// The full transition history must be queued -> admitted -> running -> done.
	want := []store.State{store.Queued, store.Admitted, store.Running, store.Done}
	if len(rec.Transitions) != len(want) {
		t.Fatalf("transitions = %+v", rec.Transitions)
	}
	for i, tr := range rec.Transitions {
		if tr.State != want[i] {
			t.Fatalf("transition %d = %s, want %s", i, tr.State, want[i])
		}
	}

	// The artefact must be byte-identical to a direct engine run of the
	// same canonical spec.
	r, err := http.Get(srv.URL + "/v1/jobs/" + sub.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(r.Body)
	r.Body.Close()
	canon, err := spec.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := Execute(context.Background(), canon, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, direct["result.json"]) {
		t.Fatalf("daemon artefact diverges from direct run:\n--- daemon\n%s\n--- direct\n%s", got, direct["result.json"])
	}

	// Artefact listing and stats endpoints answer.
	r, _ = http.Get(srv.URL + "/v1/jobs/" + sub.ID + "/artefacts")
	var names []string
	json.NewDecoder(r.Body).Decode(&names)
	r.Body.Close()
	if len(names) != 1 || names[0] != "result.json" {
		t.Fatalf("artefact names = %v", names)
	}
	r, _ = http.Get(srv.URL + "/v1/stats")
	var st api.Stats
	json.NewDecoder(r.Body).Decode(&st)
	r.Body.Close()
	if st.Done != 1 {
		t.Fatalf("stats = %+v", st)
	}
	r, _ = http.Get(srv.URL + "/v1/healthz")
	if r.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %s", r.Status)
	}
	r.Body.Close()
}

// TestArtefactRepliesPinned pins the status and body of every artefact read
// and of a cache hit's submission: the owner's files through a record that
// names it, and a miss answered "no such job" only for an id the ledger does
// not hold.
func TestArtefactRepliesPinned(t *testing.T) {
	d := newTestDaemon(t, Config{SimWorkers: 1})
	srv := httptest.NewServer(Handler(d))
	defer srv.Close()
	c, key := mustCanon(t, tinySpec(4*units.KiB))
	st := d.Store()
	st.Create("job-000001", key, c.Class(), c.CanonicalJSON(), store.Queued)
	if err := st.PutArtefact("job-000001", map[string][]byte{"result.json": []byte("{}\n"), "fig.csv": []byte("a\n")}); err != nil {
		t.Fatal(err)
	}
	st.Finish("job-000001", store.Done, "", "job-000001", "")
	st.Create("job-000002", key, c.Class(), c.CanonicalJSON(), store.Queued)
	st.Finish("job-000002", store.Done, "", "job-000001", "answered from the key's owner")
	st.Create("job-000003", "other", c.Class(), c.CanonicalJSON(), store.Queued)
	st.Finish("job-000003", store.Failed, "boom", "", "")

	body, _ := json.Marshal(tinySpec(4 * units.KiB))
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	hit := fmt.Sprintf("{\n  \"id\": \"job-000001\",\n  \"state\": \"done\",\n  \"cached\": true,\n  \"key\": %q\n}\n", key)
	if resp.StatusCode != http.StatusOK || string(got) != hit {
		t.Fatalf("cache hit = %d %q, want 200 %q", resp.StatusCode, got, hit)
	}

	notFound := func(what string) string { return fmt.Sprintf("{\n  \"error\": %q\n}\n", what) }
	for _, tc := range []struct {
		path, body string
		status     int
	}{
		{"job-000001/result", "{}\n", http.StatusOK},
		{"job-000001/artefacts/fig.csv", "a\n", http.StatusOK},
		{"job-000001/artefacts", "[\n  \"fig.csv\",\n  \"result.json\"\n]\n", http.StatusOK},
		{"job-000002/result", "{}\n", http.StatusOK},
		{"job-000002/artefacts", "[\n  \"fig.csv\",\n  \"result.json\"\n]\n", http.StatusOK},
		{"job-000001/artefacts/nope.csv", notFound("no such artefact"), http.StatusNotFound},
		{"job-000002/artefacts/nope.csv", notFound("no such artefact"), http.StatusNotFound},
		{"job-000003/result", notFound("no such artefact"), http.StatusNotFound},
		{"job-000003/artefacts", notFound("no artefacts"), http.StatusNotFound},
		{"job-000009/result", notFound("no such job"), http.StatusNotFound},
		{"job-000009/artefacts", notFound("no such job"), http.StatusNotFound},
		{"job-000009/artefacts/fig.csv", notFound("no such job"), http.StatusNotFound},
	} {
		r, err := http.Get(srv.URL + "/v1/jobs/" + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(r.Body)
		r.Body.Close()
		if r.StatusCode != tc.status || string(got) != tc.body {
			t.Errorf("GET %s = %d %q, want %d %q", tc.path, r.StatusCode, got, tc.status, tc.body)
		}
	}
}

// TestStagedArtefactServedOnlyOnceDone: the files a running job staged
// are not served, under its id or under one the ledger does not hold,
// until its done finish has been applied.
func TestStagedArtefactServedOnlyOnceDone(t *testing.T) {
	d := newTestDaemon(t, Config{SimWorkers: 1, StoreRoot: t.TempDir()})
	defer d.Close()
	srv := httptest.NewServer(Handler(d))
	defer srv.Close()
	st := d.Store()
	st.Create("job-000001", "k", api.ClassSim, nil, store.Queued)
	st.Advance("job-000001", store.Admitted, "")
	st.Advance("job-000001", store.Running, "")
	files := map[string][]byte{"result.json": []byte("{}\n")}
	for _, id := range []string{"job-000001", "job-000009"} {
		if err := st.PutArtefact(id, files); err != nil {
			t.Fatal(err)
		}
	}
	check := func(when, path string, status int, body string) {
		t.Helper()
		r, err := http.Get(srv.URL + "/v1/jobs/" + path)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(r.Body)
		r.Body.Close()
		if r.StatusCode != status || string(got) != body {
			t.Errorf("%s: GET %s = %d %q, want %d %q", when, path, r.StatusCode, got, status, body)
		}
	}
	notFound := func(what string) string { return fmt.Sprintf("{\n  \"error\": %q\n}\n", what) }
	check("running", "job-000001/result", http.StatusNotFound, notFound("no such artefact"))
	check("running", "job-000001/artefacts", http.StatusNotFound, notFound("no artefacts"))
	check("no record", "job-000009/result", http.StatusNotFound, notFound("no such job"))
	check("no record", "job-000009/artefacts", http.StatusNotFound, notFound("no such job"))
	st.Finish("job-000001", store.Done, "", "job-000001", "")
	check("done", "job-000001/result", http.StatusOK, "{}\n")
	check("done", "job-000001/artefacts", http.StatusOK, "[\n  \"result.json\"\n]\n")
	check("done", "job-000009/result", http.StatusNotFound, notFound("no such job"))
}

func TestCachedResubmitSkipsEngine(t *testing.T) {
	d := newTestDaemon(t, Config{SimWorkers: 2})
	spec := tinySpec(8 * units.KiB)

	rec1, err := d.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	rec1 = await(t, d, rec1.ID)
	if rec1.State != store.Done || rec1.Cached {
		t.Fatalf("first run = %+v", rec1)
	}
	hits := d.Stats().CacheHits
	jobs := len(d.Store().List(""))

	// A repeat is the run it repeats: the resubmission is answered with the
	// first run's record, done and marked cached, the hit counter moves and
	// the ledger does not grow.
	rec2, err := d.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if rec2.ID != rec1.ID || !rec2.Cached || rec2.State != store.Done || rec2.ArtefactID != rec1.ID {
		t.Fatalf("cached resubmit = %+v, want the record of %s", rec2, rec1.ID)
	}
	if d.Stats().CacheHits != hits+1 {
		t.Fatalf("cache hits = %d, want %d", d.Stats().CacheHits, hits+1)
	}
	if n := len(d.Store().List("")); n != jobs {
		t.Fatalf("a cache hit grew the ledger from %d to %d records", jobs, n)
	}
	if again, err := d.Submit(spec); err != nil || again.ID != rec1.ID || !again.Cached {
		t.Fatalf("second resubmission = %+v, %v, want the record of %s", again, err, rec1.ID)
	}
	if rec, _ := d.Store().Get(rec1.ID); rec.Cached {
		t.Fatal("answering a hit marked the owner's ledger record cached")
	}

	// A semantically equal but differently spelled spec also hits.
	explicit := spec
	explicit.Engine = "sim"
	explicit.Ranks = 2
	explicit.Machine = "e5345"
	explicit.LMT = "default"
	rec3, err := d.Submit(explicit)
	if err != nil {
		t.Fatal(err)
	}
	if !rec3.Cached || rec3.ID != rec1.ID {
		t.Fatalf("semantically equal spec = %+v, want a hit on %s", rec3, rec1.ID)
	}
}

// TestStatsCountRunsAndHits pins what the counters of a fresh daemon mean:
// submitted is the accepted runs plus the cache hits, and done counts runs
// only, since a hit creates no job.
func TestStatsCountRunsAndHits(t *testing.T) {
	d := newTestDaemon(t, Config{SimWorkers: 2})
	const runs, repeats = 3, 5
	var ids []string
	for i := 0; i < runs; i++ {
		rec, err := d.Submit(tinySpec(int64(1+i) * units.KiB))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, await(t, d, rec.ID).ID)
	}
	for i := 0; i < repeats; i++ {
		rec, err := d.Submit(tinySpec(int64(1+i%runs) * units.KiB))
		if err != nil || !rec.Cached || rec.ID != ids[i%runs] {
			t.Fatalf("repeat %d = %+v, %v", i, rec, err)
		}
	}
	st := d.Stats()
	if st.Submitted != runs+st.CacheHits || st.CacheHits != repeats || st.Done != runs {
		t.Fatalf("stats = submitted %d, cache hits %d, done %d; want %d, %d, %d",
			st.Submitted, st.CacheHits, st.Done, runs+repeats, repeats, runs)
	}
}

// TestConcurrentSimSubmissionsByteIdentical is the PR's headline gate: a
// live daemon absorbs hundreds of concurrent sim submissions over HTTP and
// every artefact is byte-identical to a direct engine run of its spec.
func TestConcurrentSimSubmissionsByteIdentical(t *testing.T) {
	n := 500
	if testing.Short() {
		n = 60
	}
	d := newTestDaemon(t, Config{SimWorkers: 8, QueueCap: n + 8})
	srv := httptest.NewServer(Handler(d))
	defer srv.Close()
	client := &http.Client{Timeout: 5 * time.Minute}

	// n distinct specs (distinct sizes -> distinct cache keys): every one
	// must run, none may be answered from the cache.
	ids := make([]string, n)
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(tinySpec(units.KiB + int64(i)*64))
			resp, err := client.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				buf, _ := io.ReadAll(resp.Body)
				errs <- fmt.Errorf("submit %d: %s: %s", i, resp.Status, buf)
				return
			}
			var sub api.SubmitResult
			if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
				errs <- err
				return
			}
			ids[i] = sub.ID
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	for i, id := range ids {
		rec := await(t, d, id)
		if rec.State != store.Done {
			t.Fatalf("job %d (%s) finished %s: %s", i, id, rec.State, rec.Error)
		}
		got, err := d.Store().Artefact(id, "result.json")
		if err != nil {
			t.Fatal(err)
		}
		canon, err := tinySpec(units.KiB + int64(i)*64).Canonicalize()
		if err != nil {
			t.Fatal(err)
		}
		direct, err := Execute(context.Background(), canon, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, direct["result.json"]) {
			t.Fatalf("job %d: daemon artefact diverges from direct run", i)
		}
	}
	if hits := d.Stats().CacheHits; hits != 0 {
		t.Fatalf("distinct specs produced %d cache hits", hits)
	}
}

// TestRTJobsNeverOverlap drives a mix of rt and sim jobs and asserts the
// in-process probe — incremented around actual engine execution, not
// scheduler bookkeeping — never saw two rt jobs at once.
func TestRTJobsNeverOverlap(t *testing.T) {
	d := newTestDaemon(t, Config{SimWorkers: 4, QueueCap: 64})
	var ids []string
	for i := 0; i < 6; i++ {
		rec, err := d.Submit(api.Spec{Kind: api.KindComm, Engine: "rt", Bench: "pingpong",
			Sizes: []int64{4 * units.KiB, units.KiB * int64(8+i)}})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, rec.ID)
		rec, err = d.Submit(tinySpec(units.KiB * int64(16+i)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, rec.ID)
	}
	for _, id := range ids {
		if rec := await(t, d, id); rec.State != store.Done {
			t.Fatalf("job %s finished %s: %s", id, rec.State, rec.Error)
		}
	}
	st := d.Stats()
	if st.RTMaxObserved != 1 {
		t.Fatalf("rt overlap probe saw %d concurrent rt jobs, want exactly 1", st.RTMaxObserved)
	}
	if st.RTAuditFailures != 0 {
		t.Fatalf("%d rt envelope audits failed", st.RTAuditFailures)
	}
}

// A job cut by its deadline fails with ctx.Err() and the engine's state
// dump. A spec's deadline may only shorten the daemon's: one far above it,
// even one that overflows a time.Duration, runs under the daemon's.
func TestDeadlineExceededEmbedsStateDump(t *testing.T) {
	for _, tc := range []struct {
		daemon time.Duration // Config.Deadline (0 = the default)
		spec   float64       // the spec's deadline_sec
	}{{0, 0.05}, {50 * time.Millisecond, 1e10}} {
		d := newTestDaemon(t, Config{SimWorkers: 1, Deadline: tc.daemon})
		spec := slowSpec()
		spec.DeadlineSec = tc.spec
		rec, err := d.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		rec = await(t, d, rec.ID)
		if rec.State != store.Failed {
			t.Fatalf("deadline_sec %g under a daemon deadline of %v: job finished %s", tc.spec, tc.daemon, rec.State)
		}
		if !strings.Contains(rec.Error, context.DeadlineExceeded.Error()) {
			t.Fatalf("error does not carry ctx.Err(): %s", rec.Error)
		}
		if !strings.Contains(rec.Error, "sim engine:") {
			t.Fatalf("error does not embed the engine state dump: %s", rec.Error)
		}
	}
}

func TestCancelQueuedAndRunning(t *testing.T) {
	d := newTestDaemon(t, Config{SimWorkers: 1, QueueCap: 8})
	blocker, err := d.Submit(slowSpec())
	if err != nil {
		t.Fatal(err)
	}
	queued, err := d.Submit(tinySpec(2 * units.KiB))
	if err != nil {
		t.Fatal(err)
	}

	// The queued job cancels instantly and never runs.
	if !d.Cancel(queued.ID) {
		t.Fatal("Cancel(queued) = false")
	}
	rec := await(t, d, queued.ID)
	if rec.State != store.Cancelled {
		t.Fatalf("queued job finished %s", rec.State)
	}
	for _, tr := range rec.Transitions {
		if tr.State == store.Running {
			t.Fatal("cancelled-while-queued job ran")
		}
	}

	// The running job is cut mid-engine and carries the state dump.
	if !d.Cancel(blocker.ID) {
		t.Fatal("Cancel(running) = false")
	}
	rec = await(t, d, blocker.ID)
	if rec.State != store.Cancelled {
		t.Fatalf("running job finished %s: %s", rec.State, rec.Error)
	}
	if !strings.Contains(rec.Error, context.Canceled.Error()) {
		t.Fatalf("cancel error does not carry ctx.Err(): %s", rec.Error)
	}

	// Cancelling a finished job is a no-op.
	if d.Cancel(blocker.ID) {
		t.Fatal("Cancel of a finished job reported true")
	}
}

func TestPreCancelledSubmission(t *testing.T) {
	// Cancel fired between Submit returning and the job being admitted:
	// with the lone worker busy, the target is still queued.
	d := newTestDaemon(t, Config{SimWorkers: 1, QueueCap: 8})
	blocker, err := d.Submit(slowSpec())
	if err != nil {
		t.Fatal(err)
	}
	victim, err := d.Submit(slowSpec())
	if err != nil {
		t.Fatal(err)
	}
	d.Cancel(victim.ID)
	rec := await(t, d, victim.ID)
	if rec.State != store.Cancelled {
		t.Fatalf("pre-cancelled job finished %s", rec.State)
	}
	d.Cancel(blocker.ID)
	await(t, d, blocker.ID)
}

func TestGracefulShutdownDrains(t *testing.T) {
	d := newTestDaemon(t, Config{SimWorkers: 1, QueueCap: 8})
	srv := httptest.NewServer(Handler(d))
	defer srv.Close()

	// One running rt job (drained to completion, envelope audit enforced
	// by the runner) and one queued job (cancelled by the drain).
	running, err := d.Submit(api.Spec{Kind: api.KindComm, Engine: "rt", Bench: "sendrecv",
		Ranks: 4, Sizes: []int64{256 * units.KiB, units.MiB}})
	if err != nil {
		t.Fatal(err)
	}
	// A second rt job queues behind the exclusive lane.
	queued, err := d.Submit(api.Spec{Kind: api.KindComm, Engine: "rt", Bench: "pingpong",
		Sizes: []int64{512 * units.KiB}})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	d.Drain(ctx)

	if rec, _ := d.Store().Get(running.ID); rec.State != store.Done {
		t.Fatalf("running rt job drained to %s: %s", rec.State, rec.Error)
	}
	if rec, _ := d.Store().Get(queued.ID); rec.State != store.Cancelled {
		t.Fatalf("queued job drained to %s", rec.State)
	}
	if st := d.Stats(); st.RTAuditFailures != 0 {
		t.Fatalf("rt quiescence violated: %d envelope audit failures", st.RTAuditFailures)
	}

	// Draining daemon rejects new work: 503 over HTTP, ErrDraining in-process.
	if _, err := d.Submit(tinySpec(units.KiB)); err != scheduler.ErrDraining {
		t.Fatalf("post-drain Submit error = %v", err)
	}
	body, _ := json.Marshal(tinySpec(units.KiB))
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submit status = %s", resp.Status)
	}
}

func TestQueueFullSheds429(t *testing.T) {
	d := newTestDaemon(t, Config{SimWorkers: 1, QueueCap: 1})
	srv := httptest.NewServer(Handler(d))
	defer srv.Close()

	blocker, err := d.Submit(slowSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Submit(tinySpec(2 * units.KiB)); err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(tinySpec(3 * units.KiB))
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit status = %s", resp.Status)
	}
	if st := d.Stats(); st.Shed != 1 {
		t.Fatalf("shed count = %d", st.Shed)
	}
	// A shed submission leaves no ledger record behind.
	if n := len(d.Store().List("")); n != 2 {
		t.Fatalf("ledger has %d records after shed, want 2", n)
	}
	d.Cancel(blocker.ID)
	await(t, d, blocker.ID)
}

// A sim spec whose topology holds a host the simulator cannot model is a
// bad request: refused before it reaches a runner, so it neither panics
// nor leaves a record.
func TestOversizedSimHostIsBadRequest(t *testing.T) {
	d := newTestDaemon(t, Config{SimWorkers: 1})
	srv := httptest.NewServer(Handler(d))
	defer srv.Close()

	spec := api.Spec{Kind: api.KindComm, Topology: `graph big { n0 [cores=130]; }`}
	body, _ := json.Marshal(spec)
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "simulator models at most 128") {
		t.Fatalf("submit = %s %s, want 400 naming the limit", resp.Status, msg)
	}
	if n := len(d.Store().List("")); n != 0 {
		t.Fatalf("ledger has %d records after a refused spec, want 0", n)
	}
}

// TestConcurrentHammer exercises submit/cancel/status/list concurrently —
// run under -race in CI, it is the data-race gate on the daemon surface —
// and then checks the result cache's accounting: every submission that
// reached the lookup is one hit or one miss, and the cache holds one entry
// per key some run completed.
func TestConcurrentHammer(t *testing.T) {
	d := newTestDaemon(t, Config{SimWorkers: 4, QueueCap: 256})
	srv := httptest.NewServer(Handler(d))
	defer srv.Close()
	client := &http.Client{Timeout: time.Minute}

	const workers = 8
	per := 8
	if testing.Short() {
		per = 4
	}
	var looked atomic.Int64 // submissions answered 200, 202 or 429
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				body, _ := json.Marshal(tinySpec(units.KiB * int64(1+(w*per+i)%32)))
				resp, err := client.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				var sub api.SubmitResult
				json.NewDecoder(resp.Body).Decode(&sub)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK, http.StatusAccepted, http.StatusTooManyRequests:
					looked.Add(1)
				}
				switch {
				case resp.StatusCode == http.StatusTooManyRequests:
					continue
				case resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK:
					t.Errorf("submit status %s", resp.Status)
					return
				}
				// Interleave cancels, status reads and listings.
				if i%3 == 0 {
					r, err := client.Post(srv.URL+"/v1/jobs/"+sub.ID+"/cancel", "", nil)
					if err == nil {
						r.Body.Close()
					}
				}
				r, err := client.Get(srv.URL + "/v1/jobs/" + sub.ID)
				if err == nil {
					r.Body.Close()
				}
				if i%5 == 0 {
					r, err := client.Get(srv.URL + "/v1/jobs?state=running")
					if err == nil {
						r.Body.Close()
					}
				}
			}
		}(w)
	}
	wg.Wait()

	// Everything the hammer left behind must reach a terminal state.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	d.Drain(ctx)
	st := d.Stats()
	if st.Queued != 0 || st.Running != 0 {
		t.Fatalf("post-drain stats = %+v", st)
	}
	for _, rec := range d.Store().List("") {
		if !rec.State.Terminal() {
			t.Fatalf("record %s left in %s", rec.ID, rec.State)
		}
	}
	if st.RTMaxObserved > 1 {
		t.Fatalf("rt overlap during hammer: %d", st.RTMaxObserved)
	}
	if st.CacheHits+st.CacheMisses != looked.Load() {
		t.Fatalf("cache hits %d + misses %d != %d submissions that reached the lookup",
			st.CacheHits, st.CacheMisses, looked.Load())
	}
	owned := make(map[string]bool)
	for _, rec := range d.Store().List(store.Done) {
		if rec.ArtefactID == rec.ID {
			owned[rec.Key] = true
		}
	}
	if st.CacheEntries != len(owned) {
		t.Fatalf("cache entries = %d, want %d: one per key a run completed", st.CacheEntries, len(owned))
	}
}

// TestEveryRepeatHitsBeyondOldCapacity gives more keys owners than the
// 256 entries the result cache once held: the ledger is the cache and
// bounds nothing of its own, so every repeat is a hit on its owner and the
// ledger does not grow.
func TestEveryRepeatHitsBeyondOldCapacity(t *testing.T) {
	const n = 300
	d := newTestDaemon(t, Config{})
	spec := func(i int) api.Spec { return tinySpec(units.KiB + int64(i)*64) }
	owners := make([]string, n)
	for i := range owners {
		c, key := mustCanon(t, spec(i))
		owners[i] = fmt.Sprintf("job-%06d", 1001+i)
		d.Store().Create(owners[i], key, c.Class(), c.CanonicalJSON(), store.Queued)
		if err := d.Store().PutArtefact(owners[i], map[string][]byte{"result.json": []byte(key)}); err != nil {
			t.Fatal(err)
		}
		d.Store().Finish(owners[i], store.Done, "", owners[i], "")
	}
	for i, owner := range owners {
		rec, err := d.Submit(spec(i))
		if err != nil || !rec.Cached || rec.ID != owner {
			t.Fatalf("repeat %d = %s (cached %v), %v, want a hit on %s", i, rec.ID, rec.Cached, err, owner)
		}
	}
	if got := len(d.Store().List("")); got != n {
		t.Fatalf("repeats grew the ledger from %d to %d records", n, got)
	}
	if st := d.Stats(); st.CacheEntries != n || st.CacheHits != n || st.CacheMisses != 0 {
		t.Fatalf("stats = %d entries, %d hits, %d misses; want %d, %d, 0",
			st.CacheEntries, st.CacheHits, st.CacheMisses, n, n)
	}
}
