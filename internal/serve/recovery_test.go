package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"knemesis/internal/experiments"
	"knemesis/internal/perturb"
	"knemesis/internal/serve/api"
	"knemesis/internal/serve/store"
	"knemesis/internal/sim"
	"knemesis/internal/units"
)

// Test experiments for the panic-isolation paths: one that always panics
// and one that panics exactly once per reset. Registered here, they are
// canonicalizable specs like any paper experiment, so the daemon's whole
// submit→schedule→execute pipeline is exercised, not a mock.
var flakyCalls atomic.Int64

type testResult struct{ name string }

func (r testResult) Render(w io.Writer) { fmt.Fprintf(w, "%s ok\n", r.name) }
func (r testResult) Files() (map[string][]byte, error) {
	return map[string][]byte{"result.json": []byte(`{"experiment":"` + r.name + `"}` + "\n")}, nil
}

func init() {
	experiments.Experiments.Register(experiments.Experiment{
		ID: "test-panic-always", Title: "serve test: panics every run", Order: 99,
		Run: func(ctx context.Context, env experiments.Env) (experiments.Result, error) {
			panic("test-panic-always detonated")
		},
	})
	experiments.Experiments.Register(experiments.Experiment{
		ID: "test-flaky-once", Title: "serve test: panics on the first run only", Order: 99,
		Run: func(ctx context.Context, env experiments.Env) (experiments.Result, error) {
			if flakyCalls.Add(1) == 1 {
				panic("transient flake")
			}
			return testResult{name: "test-flaky-once"}, nil
		},
	})
	// A perturbation that makes one rank of a sim job panic on its own
	// simulated process, mid-run, at its first receive.
	perturb.Kinds.Register(perturb.Kind{
		Name: "test-rank-panic", Help: "serve test: rank 1 panics at its first receive", Order: 99,
		Sim: func(t *perturb.SimTarget, set *perturb.SimSet, in perturb.Inst) error {
			set.RecvDelay = func(rank int, op uint64) sim.Time {
				if rank == 1 {
					panic("rank 1 detonated")
				}
				return 0
			}
			return nil
		},
	})
}

// mustCanon canonicalizes a spec and derives its cache key.
func mustCanon(t *testing.T, spec api.Spec) (api.Spec, string) {
	t.Helper()
	c, err := spec.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	key, err := c.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	return c, key
}

// awaitReady polls until the daemon's crash recovery completes.
func awaitReady(t *testing.T, d *Daemon) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for !d.Ready() {
		if time.Now().After(deadline) {
			t.Fatal("daemon never became ready")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCrashRecoveryRequeueAndCacheAnswer is the recovery policy's core
// contract: a ledger holding one completed run, one interrupted duplicate of
// it and one interrupted unique job is reopened, and the daemon must answer
// the duplicate from the rebuilt cache, re-run the unique job to a
// byte-identical artefact, and resume the ID sequence above the replay.
func TestCrashRecoveryRequeueAndCacheAnswer(t *testing.T) {
	root := t.TempDir()
	doneSpec, doneKey := mustCanon(t, tinySpec(4*units.KiB))
	uniqSpec, uniqKey := mustCanon(t, tinySpec(8*units.KiB))
	doneFiles, err := Execute(context.Background(), doneSpec, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Craft the pre-crash ledger: job-000001 done with its artefact,
	// job-000002 admitted (same key), job-000003 running (unique key).
	st, _, err := store.Open(root)
	if err != nil {
		t.Fatal(err)
	}
	st.Create("job-000001", doneKey, doneSpec.Class(), doneSpec.CanonicalJSON(), store.Queued)
	st.Advance("job-000001", store.Admitted, "")
	st.Advance("job-000001", store.Running, "")
	if err := st.PutArtefact("job-000001", doneFiles); err != nil {
		t.Fatal(err)
	}
	st.Finish("job-000001", store.Done, "", "job-000001", "")
	st.Create("job-000002", doneKey, doneSpec.Class(), doneSpec.CanonicalJSON(), store.Queued)
	st.Advance("job-000002", store.Admitted, "")
	st.Create("job-000003", uniqKey, uniqSpec.Class(), uniqSpec.CanonicalJSON(), store.Queued)
	st.Advance("job-000003", store.Admitted, "")
	st.Advance("job-000003", store.Running, "")
	st.Close()

	d := newTestDaemon(t, Config{SimWorkers: 2, StoreRoot: root})
	defer d.Close()
	awaitReady(t, d)

	// The interrupted duplicate was answered from the rebuilt cache without
	// re-running: done, cached, artefact owned by the pre-crash run.
	rec2, ok := d.Store().Get("job-000002")
	if !ok || rec2.State != store.Done || !rec2.Cached || rec2.ArtefactID != "job-000001" {
		t.Fatalf("cache-answered job = %+v (ok %v)", rec2, ok)
	}

	// The unique interrupted job was re-queued and re-ran to completion,
	// with the crash-recovery transition on its ledger trail and an
	// artefact byte-identical to a direct engine run.
	rec3 := await(t, d, "job-000003")
	if rec3.State != store.Done {
		t.Fatalf("requeued job finished %s: %s", rec3.State, rec3.Error)
	}
	requeued := false
	for _, tr := range rec3.Transitions {
		if strings.Contains(tr.Note, "crash-recovered: re-queued") {
			requeued = true
		}
	}
	if !requeued {
		t.Fatalf("no crash-recovery transition on the requeued job: %+v", rec3.Transitions)
	}
	got, err := d.Store().Artefact("job-000003", "result.json")
	if err != nil {
		t.Fatal(err)
	}
	direct, err := Execute(context.Background(), uniqSpec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, direct["result.json"]) {
		t.Fatal("recovered artefact diverges from a direct run")
	}

	// Recovery stats surface what happened; the ID sequence resumes above
	// the replayed records so recovered and new jobs can never collide.
	stats := d.Stats()
	if !stats.Ready || stats.Recovery.ReplayRecords != 3 ||
		stats.Recovery.Requeued != 1 || stats.Recovery.CachedAnswered != 1 ||
		stats.Recovery.CrashFailed != 0 || stats.Recovery.TornTail {
		t.Fatalf("recovery stats = %+v", stats.Recovery)
	}
	rec4, err := d.Submit(tinySpec(16 * units.KiB))
	if err != nil {
		t.Fatal(err)
	}
	if rec4.ID != "job-000004" {
		t.Fatalf("post-recovery ID = %s, want job-000004", rec4.ID)
	}
	await(t, d, rec4.ID)

	// A resubmission of the pre-crash spec still hits the rebuilt cache.
	hit, err := d.Submit(tinySpec(4 * units.KiB))
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Cached || hit.ArtefactID != "job-000001" {
		t.Fatalf("pre-crash key missed the rebuilt cache: %+v", hit)
	}
}

// TestOwnerStableAcrossRestart pins which of two completed runs of one key
// owns it: the one whose done finish was applied first, whatever order the
// runs were created in, and the same one after a restart replays the log.
func TestOwnerStableAcrossRestart(t *testing.T) {
	root := t.TempDir()
	spec, key := mustCanon(t, tinySpec(4*units.KiB))
	files, err := Execute(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	d := newTestDaemon(t, Config{StoreRoot: root})
	for _, id := range []string{"job-000101", "job-000102"} {
		d.Store().Create(id, key, spec.Class(), spec.CanonicalJSON(), store.Queued)
		if err := d.Store().PutArtefact(id, files); err != nil {
			t.Fatal(err)
		}
	}
	d.Store().Finish("job-000102", store.Done, "", "job-000102", "")
	d.Store().Finish("job-000101", store.Done, "", "job-000101", "")
	live, err := d.Submit(tinySpec(4 * units.KiB))
	if err != nil || !live.Cached || live.ID != "job-000102" {
		t.Fatalf("live repeat = %s (cached %v), %v, want a hit on job-000102, the first finished", live.ID, live.Cached, err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d = newTestDaemon(t, Config{StoreRoot: root})
	defer d.Close()
	awaitReady(t, d)
	again, err := d.Submit(tinySpec(4 * units.KiB))
	if err != nil || !again.Cached || again.ID != live.ID {
		t.Fatalf("repeat after restart = %s (cached %v), %v, want a hit on %s", again.ID, again.Cached, err, live.ID)
	}
}

// TestCrashRecoveryFailsUncanonicalizableSpec covers the one way recovery
// gives up on an interrupted job: its logged spec names an experiment this
// build no longer registers, so it cannot be re-queued and is crash-failed.
func TestCrashRecoveryFailsUncanonicalizableSpec(t *testing.T) {
	root := t.TempDir()
	st, _, err := store.Open(root)
	if err != nil {
		t.Fatal(err)
	}
	gone := []byte(`{"kind":"experiment","experiment":"test-no-longer-registered"}`)
	st.Create("job-000001", "0123456789abcdef", "sim", gone, store.Queued)
	st.Advance("job-000001", store.Running, "")
	st.Close()

	d := newTestDaemon(t, Config{StoreRoot: root})
	defer d.Close()
	awaitReady(t, d)

	rec, _ := d.Store().Get("job-000001")
	if rec.State != store.Failed ||
		!strings.Contains(rec.Error, "crash-interrupted: replayed spec no longer canonicalizes") {
		t.Fatalf("uncanonicalizable interrupted job = %+v", rec)
	}
	if stats := d.Stats(); stats.Recovery.CrashFailed != 1 || stats.Recovery.Requeued != 0 {
		t.Fatalf("recovery stats = %+v", stats.Recovery)
	}
}

// TestRecoveryIgnoresOwnerOfOldKey reopens a ledger whose interrupted job
// was logged under a key that a finished run with other bytes owns — what a
// CodeVersion bump or a canonicalisation change leaves behind. Recovery
// must re-derive the key from the spec, so the job is re-queued and re-run
// rather than answered with the old owner's bytes, and the re-run then owns
// that key: a repeat of the spec hits it, before and after a restart.
func TestRecoveryIgnoresOwnerOfOldKey(t *testing.T) {
	root := t.TempDir()
	spec, key := mustCanon(t, tinySpec(4*units.KiB))
	const oldKey = "old-key"
	st, _, err := store.Open(root)
	if err != nil {
		t.Fatal(err)
	}
	st.Create("job-000001", oldKey, spec.Class(), spec.CanonicalJSON(), store.Queued)
	st.Advance("job-000001", store.Running, "")
	if err := st.PutArtefact("job-000001", map[string][]byte{"result.json": []byte("stale\n")}); err != nil {
		t.Fatal(err)
	}
	st.Finish("job-000001", store.Done, "", "job-000001", "")
	st.Create("job-000002", oldKey, spec.Class(), spec.CanonicalJSON(), store.Queued)
	st.Advance("job-000002", store.Running, "")
	st.Close()
	if key == oldKey {
		t.Fatal("the spec's key equals the stale one; the test shows nothing")
	}

	d := newTestDaemon(t, Config{StoreRoot: root})
	defer d.Close()
	awaitReady(t, d)
	rec := await(t, d, "job-000002")
	if rec.State != store.Done || rec.Cached || rec.ArtefactID != "job-000002" {
		t.Fatalf("interrupted job = %+v, want re-run to its own artefact", rec)
	}
	if rs := d.Stats().Recovery; rs.Requeued != 1 || rs.CachedAnswered != 0 {
		t.Fatalf("recovery stats = %+v", rs)
	}
	direct, err := Execute(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.Store().Artefact(rec.ArtefactID, "result.json")
	if err != nil || !bytes.Equal(got, direct["result.json"]) {
		t.Fatalf("re-run artefact = %q, %v", got, err)
	}
	hit, err := d.Submit(tinySpec(4 * units.KiB))
	if err != nil || !hit.Cached || hit.ID != rec.ID {
		t.Fatalf("repeat after recovery = %s (cached %v), %v, want a hit on the re-run %s", hit.ID, hit.Cached, err, rec.ID)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d = newTestDaemon(t, Config{StoreRoot: root})
	defer d.Close()
	awaitReady(t, d)
	again, err := d.Submit(tinySpec(4 * units.KiB))
	if err != nil || !again.Cached || again.ID != rec.ID {
		t.Fatalf("repeat after restart = %s (cached %v), %v, want a hit on the re-run %s", again.ID, again.Cached, err, rec.ID)
	}
}

// TestOldFormatRootReRunsOwner opens a ledger written before artefacts rode
// the finish entry: the done owner's bytes sat in a job directory no code
// reads any more, so replay hands the owner to recovery as interrupted and
// the re-run restores the same bytes under the same ID — for the owner and
// for the cache hit an old "cached" entry pointed at it.
func TestOldFormatRootReRunsOwner(t *testing.T) {
	root := t.TempDir()
	spec, key := mustCanon(t, tinySpec(4*units.KiB))
	at := `"at":"2026-01-02T03:04:05Z"`
	create := func(id, state string) string {
		return fmt.Sprintf(`{"op":"create","id":%q,"key":%q,"class":"sim","spec":%s,"state":%q,%s}`,
			id, key, spec.CanonicalJSON(), state, at)
	}
	log := strings.Join([]string{
		create("job-000001", "queued"),
		`{"op":"advance","id":"job-000001","state":"admitted",` + at + `}`,
		`{"op":"advance","id":"job-000001","state":"running",` + at + `}`,
		`{"op":"finish","id":"job-000001","state":"done","artefact_id":"job-000001",` + at + `}`,
		create("job-000002", "done"),
		`{"op":"cached","id":"job-000002","artefact_id":"job-000001",` + at + `}`,
	}, "\n") + "\n"
	if err := os.WriteFile(root+"/wal.jsonl", []byte(log), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(root+"/job-000001", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(root+"/job-000001/result.json", []byte("stale\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	st, rep, err := store.Open(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Interrupted) != 1 || rep.Interrupted[0] != "job-000001" || rep.Terminal != 1 {
		t.Fatalf("replay of an old-format root = %+v", rep)
	}
	hit, _ := st.Get("job-000002")
	if hit.State != store.Done || !hit.Cached || hit.ArtefactID != "job-000001" {
		t.Fatalf("old cached entry replayed as %+v", hit)
	}
	st.Close()

	d := newTestDaemon(t, Config{StoreRoot: root})
	defer d.Close()
	awaitReady(t, d)
	if rec := await(t, d, "job-000001"); rec.State != store.Done {
		t.Fatalf("old-format owner finished %s: %s", rec.State, rec.Error)
	}
	direct, err := Execute(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.Store().Artefact(hit.ArtefactID, "result.json")
	if err != nil || !bytes.Equal(got, direct["result.json"]) {
		t.Fatalf("re-run artefact = %q, %v", got, err)
	}
}

// TestOldCachedCreateReplays opens a ledger written when a cache hit was a
// record of its own, logged as one create born done and marked cached with
// the owner in artefact_id. It still replays as a done cached record whose
// artefact resolves through the owner; a new repeat of the spec is answered
// with the owner's id and logs nothing.
func TestOldCachedCreateReplays(t *testing.T) {
	root := t.TempDir()
	spec, key := mustCanon(t, tinySpec(4*units.KiB))
	files, err := Execute(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, _, err := store.Open(root)
	if err != nil {
		t.Fatal(err)
	}
	st.Create("job-000001", key, spec.Class(), spec.CanonicalJSON(), store.Queued)
	st.Advance("job-000001", store.Running, "")
	if err := st.PutArtefact("job-000001", files); err != nil {
		t.Fatal(err)
	}
	st.Finish("job-000001", store.Done, "", "job-000001", "")
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	wal := root + "/wal.jsonl"
	f, err := os.OpenFile(wal, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(f, `{"op":"create","id":"job-000002","key":%q,"class":"sim","spec":%s,"state":"done","artefact_id":"job-000001","cached":true,"at":"2026-01-02T03:04:05Z"}`+"\n",
		key, spec.CanonicalJSON())
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	st, rep, err := store.Open(root)
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	if rep.Records != 2 || rep.Terminal != 2 || rep.MaxSeq != 2 {
		t.Fatalf("replay = %+v", rep)
	}
	before, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}

	d := newTestDaemon(t, Config{StoreRoot: root})
	defer d.Close()
	awaitReady(t, d)
	old, ok := d.Store().Get("job-000002")
	if !ok || old.State != store.Done || !old.Cached || old.ArtefactID != "job-000001" {
		t.Fatalf("old cached create replayed as %+v (found %v)", old, ok)
	}
	srv := httptest.NewServer(Handler(d))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/jobs/job-000002/result")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got, files["result.json"]) {
		t.Fatalf("old hit's result = %s %q, want the owner's bytes", resp.Status, got)
	}

	hit, err := d.Submit(tinySpec(4 * units.KiB))
	if err != nil || !hit.Cached || hit.ID != "job-000001" {
		t.Fatalf("repeat after replay = %+v, %v, want a hit on job-000001", hit, err)
	}
	if after, err := os.ReadFile(wal); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("a cache hit changed the log (%v)", err)
	}
}

// TestReadyzGatesSubmissions pins readiness as distinct from liveness: a
// recovering daemon answers healthz 200 but readyz 503 and rejects
// submissions with ErrNotReady (HTTP 503).
func TestReadyzGatesSubmissions(t *testing.T) {
	d := newTestDaemon(t, Config{})
	srv := httptest.NewServer(Handler(d))
	defer srv.Close()

	get := func(path string) (int, string) {
		r, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		buf, _ := io.ReadAll(r.Body)
		return r.StatusCode, string(buf)
	}
	if code, body := get("/v1/readyz"); code != http.StatusOK || body != "ok\n" {
		t.Fatalf("ready readyz = %d %q", code, body)
	}

	// Wind the daemon back to its recovering state (the window between
	// store replay and recovery completion).
	d.ready.Store(false)
	if code, body := get("/v1/readyz"); code != http.StatusServiceUnavailable || body != "recovering\n" {
		t.Fatalf("recovering readyz = %d %q", code, body)
	}
	if code, _ := get("/v1/healthz"); code != http.StatusOK {
		t.Fatalf("recovering healthz = %d, liveness must not depend on readiness", code)
	}
	if _, err := d.Submit(tinySpec(units.KiB)); !errors.Is(err, ErrNotReady) {
		t.Fatalf("recovering Submit error = %v", err)
	}
	body, _ := json.Marshal(tinySpec(units.KiB))
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("recovering submit status = %s", resp.Status)
	}

	d.ready.Store(true)
	if _, err := d.Submit(tinySpec(units.KiB)); err != nil {
		t.Fatalf("ready Submit error = %v", err)
	}
}

// TestPanicFailsItsJobOnce drives a spec whose first execution panics:
// the panic is isolated to the job, which fails at once and is not re-run.
// A failure is never cached, so resubmitting the spec starts a new job.
func TestPanicFailsItsJobOnce(t *testing.T) {
	flakyCalls.Store(0)
	d := newTestDaemon(t, Config{SimWorkers: 1})
	spec := api.Spec{Kind: api.KindExperiment, Experiment: "test-flaky-once"}
	rec, err := d.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	rec = await(t, d, rec.ID)
	if rec.State != store.Failed || !strings.Contains(rec.Error, "panic: transient flake") {
		t.Fatalf("flaky job finished %s: %s", rec.State, rec.Error)
	}
	if note := rec.Transitions[len(rec.Transitions)-1].Note; note != "panicked" {
		t.Fatalf("terminal note = %q", note)
	}
	if calls := flakyCalls.Load(); calls != 1 {
		t.Fatalf("the failed job ran %d times", calls)
	}
	if stats := d.Stats(); stats.Panics != 1 || stats.Quarantined != 0 {
		t.Fatalf("stats = panics %d, quarantined %d", stats.Panics, stats.Quarantined)
	}

	again, err := d.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if again.ID == rec.ID || again.Cached {
		t.Fatalf("resubmission = %+v, want a new job", again)
	}
	if again = await(t, d, again.ID); again.State != store.Done {
		t.Fatalf("resubmitted job finished %s: %s", again.State, again.Error)
	}
	if _, err := d.Store().Artefact(again.ID, "result.json"); err != nil {
		t.Fatalf("resubmitted job has no artefact: %v", err)
	}
}

// TestSimRankPanicFailsOnlyItsJob pins Execute as the panic boundary for
// the simulator too: a rank is a simulated process on a goroutine of its
// own, and its panic has to come back to the goroutine that runs the engine
// for any recover to see it. The job fails with the rank's value and stack;
// a job running beside it in the same process finishes.
func TestSimRankPanicFailsOnlyItsJob(t *testing.T) {
	bomb := tinySpec(4 * units.KiB)
	bomb.Perturb = "test-rank-panic"
	bomb, _ = mustCanon(t, bomb)
	_, err := Execute(context.Background(), bomb, nil)
	var pe *experiments.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Execute returned %v, want *experiments.PanicError", err)
	}
	if !strings.Contains(pe.Value, "rank 1 detonated") || !strings.Contains(pe.Value, "mpi-rank1") ||
		!strings.Contains(pe.Value, "recovery_test.go") {
		t.Fatalf("failure does not name the rank, its value and where it panicked: %s", pe.Value)
	}

	d := newTestDaemon(t, Config{SimWorkers: 2})
	defer d.Close()
	slow, err := d.Submit(slowSpec())
	if err != nil {
		t.Fatal(err)
	}
	rec, err := d.Submit(bomb)
	if err != nil {
		t.Fatal(err)
	}
	if rec = await(t, d, rec.ID); rec.State != store.Failed || !strings.Contains(rec.Error, "panic: sim: process mpi-rank1 panicked: rank 1 detonated") {
		t.Fatalf("panicking job finished %s: %s", rec.State, rec.Error)
	}
	if slow = await(t, d, slow.ID); slow.State != store.Done {
		t.Fatalf("the job beside it finished %s: %s", slow.State, slow.Error)
	}
}

// TestRepeatedPanicsQuarantineSpec is the circuit breaker: each submission
// of a spec that panics on every run fails once with the recovered stack;
// the third panic quarantines its cache key, so a fourth submission is shed
// with ErrQuarantined (HTTP 422) while the daemon keeps serving other work.
// It runs on a WAL store, where a job can start, and panic, before its
// create is durable.
func TestRepeatedPanicsQuarantineSpec(t *testing.T) {
	d := newTestDaemon(t, Config{SimWorkers: 1, StoreRoot: t.TempDir()})
	defer d.Close()
	srv := httptest.NewServer(Handler(d))
	defer srv.Close()

	spec := api.Spec{Kind: api.KindExperiment, Experiment: "test-panic-always"}
	for i := 1; i <= quarantineAfter; i++ {
		rec, err := d.Submit(spec)
		if err != nil {
			t.Fatalf("submission %d: %v", i, err)
		}
		rec = await(t, d, rec.ID)
		if rec.State != store.Failed {
			t.Fatalf("panicking job %d finished %s", i, rec.State)
		}
		if !strings.Contains(rec.Error, "panic: test-panic-always detonated") ||
			!strings.Contains(rec.Error, "goroutine") {
			t.Fatalf("failure does not carry the recovered panic and stack: %s", rec.Error)
		}
		want := "panicked"
		if i == quarantineAfter {
			want = "panicked; spec quarantined"
		}
		if note := rec.Transitions[len(rec.Transitions)-1].Note; note != want {
			t.Fatalf("submission %d: terminal note = %q, want %q", i, note, want)
		}
	}
	stats := d.Stats()
	if stats.Panics != quarantineAfter || stats.Failed != quarantineAfter || stats.Quarantined != 1 {
		t.Fatalf("stats = panics %d, failed %d, quarantined %d", stats.Panics, stats.Failed, stats.Quarantined)
	}

	// The breaker is open: in-process and over HTTP.
	if _, err := d.Submit(spec); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("quarantined Submit error = %v", err)
	}
	body, _ := json.Marshal(spec)
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("quarantined submit status = %s", resp.Status)
	}

	// One hostile spec must not degrade the service for everyone else.
	ok, err := d.Submit(tinySpec(units.KiB))
	if err != nil {
		t.Fatal(err)
	}
	if rec := await(t, d, ok.ID); rec.State != store.Done {
		t.Fatalf("healthy job after quarantine finished %s: %s", rec.State, rec.Error)
	}
}

// TestDeadlineCutIsFinal pins a deadline cut as terminal: the job runs
// once, fails with the context's error and is never re-queued.
func TestDeadlineCutIsFinal(t *testing.T) {
	d := newTestDaemon(t, Config{SimWorkers: 1})
	spec := slowSpec()
	spec.DeadlineSec = 0.05
	rec, err := d.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	rec = await(t, d, rec.ID)
	if rec.State != store.Failed || !strings.Contains(rec.Error, context.DeadlineExceeded.Error()) {
		t.Fatalf("deadline job finished %s: %s", rec.State, rec.Error)
	}
	var states []store.State
	for _, tr := range rec.Transitions {
		states = append(states, tr.State)
	}
	want := []store.State{store.Queued, store.Admitted, store.Running, store.Failed}
	if fmt.Sprint(states) != fmt.Sprint(want) {
		t.Fatalf("deadline job went through %v, want %v", states, want)
	}
}
