package main

// The crash-recovery chaos gate: a real knemd process is started as a
// subprocess, loaded with a burst of work over its HTTP surface, killed
// with SIGKILL mid-burst, and restarted against the same store root. The
// gate then asserts the crash-safety contract end to end:
//
//   - no submitted job is lost or duplicated across the kill;
//   - jobs that completed before the kill replay verbatim, their artefacts
//     byte-identical to a direct engine run, and a repeat of one is
//     answered from the rebuilt cache with the pre-kill run's id;
//   - jobs the kill caught mid-flight are re-queued and finish, again
//     byte-identical;
//   - a job whose experiment panics fails cleanly with the recovered
//     stack while the daemon keeps serving everyone else;
//   - the restarted daemon reports readiness only after recovery, and
//     every ledger record reaches a terminal state.
//
// The subprocess is this test binary re-executed with KNEMD_CHAOS_CHILD=1
// (the classic helper-process pattern), so test-registered experiments
// exist in the child too and the whole gate runs under -race in CI.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"knemesis/internal/experiments"
	"knemesis/internal/serve"
	"knemesis/internal/serve/api"
	"knemesis/internal/serve/store"
	"knemesis/internal/units"
)

func TestMain(m *testing.M) {
	if os.Getenv("KNEMD_CHAOS_CHILD") == "1" {
		chaosChild()
		return
	}
	os.Exit(m.Run())
}

// chaosChild is the daemon side of the gate: knemd's own serve loop on a
// real WAL root. The kill-9 gate kills it from outside with SIGKILL; the
// SIGTERM test lets it drain and return.
func chaosChild() {
	cfg := serve.Config{
		SimWorkers: 2,
		QueueCap:   512,
		StoreRoot:  os.Getenv("KNEMD_CHAOS_STORE"),
	}
	if err := serveForever(cfg, "127.0.0.1:0"); err != nil {
		fmt.Fprintln(os.Stderr, "chaos child:", err)
		os.Exit(1)
	}
}

func init() {
	experiments.Experiments.Register(experiments.Experiment{
		ID: "test-chaos-panic", Title: "chaos gate: panics every run", Order: 99,
		Run: func(ctx context.Context, env experiments.Env) (experiments.Result, error) {
			panic("chaos experiment detonated")
		},
	})
}

// startChild re-executes the test binary as a knemd daemon on root and
// returns the process, its base URL and a channel that yields the rest of
// its stdout once the process closes it.
func startChild(t *testing.T, root string) (*exec.Cmd, string, <-chan string) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "KNEMD_CHAOS_CHILD=1", "KNEMD_CHAOS_STORE="+root)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if addr, ok := strings.CutPrefix(sc.Text(), "knemd: serving on "); ok {
			rest := make(chan string, 1)
			go func() { // keep the pipe drained
				var b strings.Builder
				for sc.Scan() {
					b.WriteString(sc.Text() + "\n")
				}
				rest <- b.String()
			}()
			return cmd, addr, rest
		}
	}
	cmd.Process.Kill()
	cmd.Wait()
	t.Fatal("child never announced its address")
	return nil, "", nil
}

func httpSubmit(t *testing.T, client *http.Client, base string, spec api.Spec) api.SubmitResult {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := client.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		buf, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: %s: %s", resp.Status, buf)
	}
	var sub api.SubmitResult
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	return sub
}

// httpAwait long-polls the events API until the record is terminal.
func httpAwait(t *testing.T, client *http.Client, base, id string) store.Record {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	since := 0
	for {
		var rec store.Record
		resp, err := client.Get(fmt.Sprintf("%s/v1/jobs/%s/events?since=%d&wait=5", base, id, since))
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&rec)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
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

func httpArtefact(t *testing.T, client *http.Client, base, id string) []byte {
	t.Helper()
	resp, err := client.Get(base + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("artefact of %s: %s: %s", id, resp.Status, buf)
	}
	return buf
}

// directArtefact runs the canonical spec in-process, bypassing the daemon.
func directArtefact(t *testing.T, spec api.Spec) []byte {
	t.Helper()
	canon, err := spec.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	files, err := serve.Execute(context.Background(), canon, nil)
	if err != nil {
		t.Fatal(err)
	}
	return files["result.json"]
}

func chaosTiny(i int) api.Spec {
	return api.Spec{Kind: api.KindComm, Bench: "pingpong", Sizes: []int64{units.KiB + int64(i)*256}}
}

func chaosSlow(i int) api.Spec {
	sizes := make([]int64, 6)
	for j := range sizes {
		sizes[j] = 24*units.MiB + int64(i*8+j)*units.MiB
	}
	return api.Spec{Kind: api.KindComm, Bench: "pingpong", Sizes: sizes}
}

// burstSpecs is the burst's mix: several sim shapes, so repeated draws hit
// the result cache, and one rt spec for the exclusive lane.
var burstSpecs = []api.Spec{
	{Kind: api.KindComm, Bench: "pingpong", Sizes: []int64{4 * units.KiB, 64 * units.KiB}},
	{Kind: api.KindComm, Bench: "pingpong", Sizes: []int64{16 * units.KiB}},
	{Kind: api.KindComm, Bench: "sendrecv", Ranks: 4, Sizes: []int64{8 * units.KiB}},
	{Kind: api.KindComm, Bench: "alltoall", Ranks: 4, Sizes: []int64{4 * units.KiB}},
	{Kind: api.KindComm, Bench: "allreduce", Ranks: 4, Sizes: []int64{16 * units.KiB}},
	{Kind: api.KindComm, Engine: "rt", Bench: "pingpong", Sizes: []int64{4 * units.KiB}},
}

func TestKill9RecoveryGate(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos gate forks, kills and restarts a daemon; skipped in -short")
	}
	root := t.TempDir()
	client := &http.Client{Timeout: time.Minute}

	// --- Phase 1: a live daemon absorbs work, then dies by SIGKILL. -----
	child, base, _ := startChild(t, root)
	const nTiny, nSlow = 6, 3
	tinyIDs := make([]string, nTiny)
	tinyArtefacts := make([][]byte, nTiny)
	for i := 0; i < nTiny; i++ {
		tinyIDs[i] = httpSubmit(t, client, base, chaosTiny(i)).ID
	}
	for i, id := range tinyIDs {
		if rec := httpAwait(t, client, base, id); rec.State != store.Done {
			t.Fatalf("pre-kill job %s finished %s: %s", id, rec.State, rec.Error)
		}
		tinyArtefacts[i] = httpArtefact(t, client, base, id)
	}
	// A hostile spec: its experiment panics on every attempt.
	panicID := httpSubmit(t, client, base, api.Spec{Kind: api.KindExperiment, Experiment: "test-chaos-panic"}).ID
	// Long-running jobs that the kill is guaranteed to catch mid-flight
	// (each takes hundreds of ms and there are only two sim workers).
	slowIDs := make([]string, nSlow)
	for i := 0; i < nSlow; i++ {
		slowIDs[i] = httpSubmit(t, client, base, chaosSlow(i)).ID
	}
	// A burst of mixed specs rides on top, one submission every 10 ms, so
	// the kill lands inside it and its outcome is deliberately unknowable —
	// the gate's accounting below only relies on the IDs captured above.
	var burst sync.WaitGroup
	for i := 0; i < 40; i++ {
		burst.Add(1)
		go func(i int) {
			defer burst.Done()
			time.Sleep(time.Duration(i) * 10 * time.Millisecond)
			body, _ := json.Marshal(burstSpecs[i%len(burstSpecs)])
			if resp, err := client.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body)); err == nil {
				resp.Body.Close()
			}
		}(i)
	}
	time.Sleep(300 * time.Millisecond)
	if err := child.Process.Kill(); err != nil { // SIGKILL: no drain, no fsync flush, nothing
		t.Fatal(err)
	}
	child.Wait()
	burst.Wait()

	// --- Phase 2: restart against the same WAL root. --------------------
	child2, base2, _ := startChild(t, root)
	defer func() {
		child2.Process.Kill()
		child2.Wait()
	}()

	// Liveness first, readiness when recovery completes.
	readyDeadline := time.Now().Add(time.Minute)
	for {
		resp, err := client.Get(base2 + "/v1/readyz")
		if err == nil {
			code := resp.StatusCode
			resp.Body.Close()
			if code == http.StatusOK {
				break
			}
			if code != http.StatusServiceUnavailable {
				t.Fatalf("readyz = %d", code)
			}
		}
		if time.Now().After(readyDeadline) {
			t.Fatal("restarted daemon never became ready")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// No job lost, none duplicated: every pre-kill ID appears exactly once
	// in the replayed ledger.
	var records []store.Record
	resp, err := client.Get(base2 + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&records); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	count := make(map[string]int)
	for _, rec := range records {
		count[rec.ID]++
	}
	for id, n := range count {
		if n != 1 {
			t.Fatalf("job %s appears %d times in the replayed ledger", id, n)
		}
	}
	known := append(append(append([]string{}, tinyIDs...), slowIDs...), panicID)
	for _, id := range known {
		if count[id] != 1 {
			t.Fatalf("job %s lost across the kill (ledger has %d copies)", id, count[id])
		}
	}

	// Completed pre-kill work replays verbatim: still done, artefacts
	// byte-identical to what was served before the kill and to a direct
	// in-process run of the same canonical spec.
	for i, id := range tinyIDs {
		resp, err := client.Get(base2 + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var rec store.Record
		json.NewDecoder(resp.Body).Decode(&rec)
		resp.Body.Close()
		if rec.State != store.Done {
			t.Fatalf("replayed job %s is %s, want done", id, rec.State)
		}
		got := httpArtefact(t, client, base2, id)
		if !bytes.Equal(got, tinyArtefacts[i]) {
			t.Fatalf("job %s: replayed artefact differs from the pre-kill bytes", id)
		}
		if !bytes.Equal(got, directArtefact(t, chaosTiny(i))) {
			t.Fatalf("job %s: replayed artefact differs from a direct run", id)
		}
		// A repeat of it is answered from the rebuilt cache by the pre-kill
		// run itself: same id, same bytes.
		sub := httpSubmit(t, client, base2, chaosTiny(i))
		if !sub.Cached || sub.State != string(store.Done) || sub.ID != id {
			t.Fatalf("repeat of pre-kill job %s = %+v, want a cached answer naming it", id, sub)
		}
		if !bytes.Equal(httpArtefact(t, client, base2, sub.ID), got) {
			t.Fatalf("repeat of pre-kill job %s: result differs from the replayed bytes", id)
		}
	}

	// Interrupted work is re-queued and finishes, byte-identical to a
	// direct run — the recovered daemon re-derives exactly what the dead
	// one would have produced.
	for i, id := range slowIDs {
		rec := httpAwait(t, client, base2, id)
		if rec.State != store.Done {
			t.Fatalf("recovered job %s finished %s: %s", id, rec.State, rec.Error)
		}
		if !bytes.Equal(httpArtefact(t, client, base2, id), directArtefact(t, chaosSlow(i))) {
			t.Fatalf("recovered job %s: artefact diverges from a direct run", id)
		}
	}

	// The hostile spec fails cleanly with the recovered panic, whichever
	// side of the kill its attempts landed on.
	if rec := httpAwait(t, client, base2, panicID); rec.State != store.Failed ||
		!strings.Contains(rec.Error, "panic: chaos experiment detonated") {
		t.Fatalf("panic job = %s: %q", rec.State, rec.Error)
	}

	// Ledger consistency: everything the burst left behind — including
	// jobs whose submission raced the kill — converges to a terminal
	// state; nothing is stuck.
	settle := time.Now().Add(2 * time.Minute)
	for {
		resp, err := client.Get(base2 + "/v1/jobs")
		if err != nil {
			t.Fatal(err)
		}
		records = records[:0]
		json.NewDecoder(resp.Body).Decode(&records)
		resp.Body.Close()
		stuck := 0
		for _, rec := range records {
			if !rec.State.Terminal() {
				stuck++
			}
		}
		if stuck == 0 {
			break
		}
		if time.Now().After(settle) {
			t.Fatalf("%d ledger records never reached a terminal state", stuck)
		}
		time.Sleep(100 * time.Millisecond)
	}

	// And the survivor is a working daemon: recovery stats are surfaced,
	// fresh submissions (with non-colliding IDs) run to completion.
	var stats api.Stats
	resp, err = client.Get(base2 + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if !stats.Ready || stats.Recovery.ReplayRecords == 0 || stats.Recovery.Requeued == 0 {
		t.Fatalf("recovery stats = %+v", stats.Recovery)
	}
	fresh := httpSubmit(t, client, base2, chaosTiny(99))
	if count[fresh.ID] != 0 {
		t.Fatalf("post-restart ID %s collides with a replayed record", fresh.ID)
	}
	if rec := httpAwait(t, client, base2, fresh.ID); rec.State != store.Done {
		t.Fatalf("post-recovery submission finished %s: %s", rec.State, rec.Error)
	}
}

// SIGTERM is the orderly exit: knemd drains, closes its store and exits 0,
// and the WAL it leaves replays without a torn tail.
func TestSIGTERMDrainsAndClosesStore(t *testing.T) {
	root := t.TempDir()
	client := &http.Client{Timeout: time.Minute}
	child, base, rest := startChild(t, root)
	id := httpSubmit(t, client, base, chaosTiny(0)).ID
	if rec := httpAwait(t, client, base, id); rec.State != store.Done {
		t.Fatalf("job %s finished %s: %s", id, rec.State, rec.Error)
	}
	if err := child.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	out := <-rest
	if err := child.Wait(); err != nil {
		t.Fatalf("knemd exited with %v after SIGTERM; stdout:\n%s", err, out)
	}
	if !strings.Contains(out, "knemd: drained: 1 done") {
		t.Fatalf("no drained line for the finished job; stdout:\n%s", out)
	}
	st, rep, err := store.Open(root)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if rep.TornTail {
		t.Fatal("the WAL of a drained daemon has a torn tail")
	}
	if rec, ok := st.Get(id); !ok || rec.State != store.Done {
		t.Fatalf("replayed %s = %+v (found %v), want done", id, rec, ok)
	}
}
