package store_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"knemesis/internal/serve"
	"knemesis/internal/serve/api"
	"knemesis/internal/serve/scheduler"
	"knemesis/internal/serve/store"
	"knemesis/internal/units"
)

func pingpong(sizes ...int64) api.Spec {
	return api.Spec{Kind: api.KindComm, Bench: "pingpong", Sizes: sizes}
}

// awaitTerminal long-polls a record until it is terminal.
func awaitTerminal(st *store.Store, id string) (store.Record, error) {
	for since := 0; ; {
		rec, ok := st.Wait(id, since, time.Minute)
		if !ok || rec.Version == since {
			return rec, fmt.Errorf("job %s stuck: %+v (ok %v)", id, rec, ok)
		}
		if rec.State.Terminal() {
			return rec, nil
		}
		since = rec.Version
	}
}

// TestDurablePointsPerJob pins what a job costs the disk, counted at the WAL
// handle underneath a whole daemon: a cold job syncs twice (create, finish)
// — once if its engine finished before the submitter led the create's
// fsync, which then covered the finish too —, a cache hit never (it answers
// with its owner's record, whose finish is already durable, and writes no
// line), a shed submission once (its create and delete share one group
// commit: the delete is written before anyone waits for the create) — and
// the log is the only file the store ever writes.
func TestDurablePointsPerJob(t *testing.T) {
	root := t.TempDir()
	d, err := serve.NewDaemon(serve.Config{SimWorkers: 1, QueueCap: 1, StoreRoot: root})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	rec := d.Store().RecordLog()
	spent := func(what string, want int) {
		t.Helper()
		if _, syncs := rec.Log(); len(syncs) != want {
			t.Fatalf("%d WAL fsyncs after %s, want %d", len(syncs), what, want)
		}
	}
	await := func(id string) store.Record {
		t.Helper()
		rec, err := awaitTerminal(d.Store(), id)
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}

	cold, err := d.Submit(pingpong(4 * units.KiB))
	if err != nil {
		t.Fatal(err)
	}
	if r := await(cold.ID); r.State != store.Done || len(r.Transitions) != 4 {
		t.Fatalf("cold job = %+v", r)
	}
	n := 2
	if log, syncs := rec.Log(); len(syncs) > 0 && syncs[0] == len(log) {
		n = 1 // the create's fsync started after all four entries were written
	}
	spent("a cold job", n)

	before, _ := rec.Log()
	hit, err := d.Submit(pingpong(4 * units.KiB))
	if err != nil || !hit.Cached || hit.ID != cold.ID {
		t.Fatalf("resubmission = %+v, %v", hit, err)
	}
	spent("a cache hit", n)
	if after, _ := rec.Log(); len(after) != len(before) {
		t.Fatalf("a cache hit wrote %q to the log", after[len(before):])
	}

	// One worker and a backlog of one: a running blocker and a queued job
	// fill the daemon, the third submission is shed.
	blocker, err := d.Submit(pingpong(32*units.MiB, 33*units.MiB, 34*units.MiB, 35*units.MiB))
	if err != nil {
		t.Fatal(err)
	}
	queued, err := d.Submit(pingpong(8 * units.KiB))
	if err != nil {
		t.Fatal(err)
	}
	spent("two more creates", n+2)
	if _, err := d.Submit(pingpong(16 * units.KiB)); !errors.Is(err, scheduler.ErrQueueFull) {
		t.Fatalf("overflow submission: %v", err)
	}
	spent("a shed submission", n+2+1)
	// The queued job's cancel finishes it before Cancel returns, so its
	// finish cannot share an fsync with the blocker's.
	d.Cancel(queued.ID)
	await(queued.ID)
	d.Cancel(blocker.ID)
	await(blocker.ID)
	spent("two cancellations", n+3+2)

	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "wal.jsonl" || entries[0].IsDir() {
		t.Fatalf("store root holds %v, want only wal.jsonl", entries)
	}
}

// TestDurablePointsConcurrentColdJobs submits 8 cold jobs at once: group
// commit may let them share fsyncs but never costs more than two each, and
// each job still logs its four entries.
func TestDurablePointsConcurrentColdJobs(t *testing.T) {
	const jobs = 8
	root := t.TempDir()
	d, err := serve.NewDaemon(serve.Config{SimWorkers: jobs, QueueCap: jobs, StoreRoot: root})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	rec := d.Store().RecordLog()
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec, err := d.Submit(pingpong(int64(1+i) * units.KiB))
			if err == nil {
				rec, err = awaitTerminal(d.Store(), rec.ID)
			}
			if err != nil || rec.State != store.Done {
				t.Errorf("job %d: %+v, %v", i, rec, err)
			}
		}()
	}
	wg.Wait()
	log, syncs := rec.Log()
	n, lines := len(syncs), bytes.Count(log, []byte{'\n'})
	t.Logf("%d cold jobs: %d fsyncs, %d log lines", jobs, n, lines)
	if n > 2*jobs || lines != 4*jobs {
		t.Fatalf("%d cold jobs cost %d fsyncs and %d log lines, want at most %d and %d",
			jobs, n, lines, 2*jobs, 4*jobs)
	}
}

// TestCacheHitDurableWhenAnswered hammers a few specs from several
// goroutines on a durable store and notes, at each cache-hit reply, how far
// the log was synced. A hit writes nothing, so everything it reports must
// already be durable when it is answered: its owner is done, and the
// owner's done finish, files included, lies inside the synced prefix. The
// log holds no create of a hit.
func TestCacheHitDurableWhenAnswered(t *testing.T) {
	d, err := serve.NewDaemon(serve.Config{SimWorkers: 2, QueueCap: 256, StoreRoot: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	rec := d.Store().RecordLog()
	type answer struct {
		synced int
		r      store.Record
	}
	var mu sync.Mutex
	var hits []answer
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 25; round++ {
				r, err := d.Submit(pingpong(int64(1+round) * units.KiB))
				if err == nil && r.Cached {
					a := answer{synced: rec.Synced(), r: r}
					mu.Lock()
					hits = append(hits, a)
					mu.Unlock()
					continue
				}
				if err == nil {
					r, err = awaitTerminal(d.Store(), r.ID)
				}
				if err != nil || r.State != store.Done {
					t.Errorf("%+v, %v", r, err)
					return
				}
			}
		}()
	}
	wg.Wait()

	log, _ := rec.Log()
	finishEnd := map[string]int{} // owner id -> log offset just past its done finish
	off := 0
	for _, line := range bytes.SplitAfter(log, []byte{'\n'}) {
		if off += len(line); len(line) == 0 {
			continue
		}
		var e struct {
			walLine
			Cached bool
			Owner  string `json:"artefact_id"`
			Files  map[string][]byte
		}
		if err := json.Unmarshal(entryJSON(line), &e); err != nil {
			t.Fatalf("log line %q: %v", line, err)
		}
		switch {
		case e.Op == "create" && (e.Cached || e.State == string(store.Done)):
			t.Fatalf("the log holds a cache hit's create: %s", line)
		case e.Op == "finish" && e.State == string(store.Done) && e.Owner == e.ID && len(e.Files) > 0:
			finishEnd[e.ID] = off
		}
	}
	for _, h := range hits {
		end, ok := finishEnd[h.r.ID]
		switch {
		case h.r.State != store.Done || h.r.ArtefactID != h.r.ID:
			t.Fatalf("hit answered with %+v, not a done run that owns its artefact", h.r)
		case !ok:
			t.Fatalf("hit answered with %s, whose done finish is not in the log", h.r.ID)
		case end > h.synced:
			t.Fatalf("hit answered with %s when the log was synced to %d; its finish ends at %d", h.r.ID, h.synced, end)
		}
	}
	if len(hits) == 0 {
		t.Fatal("100 submissions of 25 specs produced no cache hit")
	}
	t.Logf("%d cache hits, %d log bytes", len(hits), len(log))
}

// told is one thing a caller of the daemon was told, with the log offset
// the last completed fsync had reached when it was told: from that offset
// on, every crash must keep it.
type told struct {
	synced int
	id     string
	state  store.State       // "" for a bare acknowledgement of the id
	owner  string            // a cache hit's owner
	files  map[string][]byte // a done record's artefact as served
}

// walLine is what the crash wall's model reads of a log entry.
type walLine struct {
	Op, ID, State string
}

// entryJSON drops a log line's frame, the tab and checksum after its JSON.
func entryJSON(line []byte) []byte {
	body, _, _ := bytes.Cut(line, []byte{'\t'})
	return body
}

// TestGroupCommitCrashWall holds the crash contract of DESIGN §12 against
// the group commit. A daemon runs concurrent cold jobs, cache hits, one shed
// submission and cancellations while a recorder keeps every byte of its log
// and the offset of every completed fsync; each caller's answer, and every
// id and terminal state a concurrent List showed, is noted with the offset
// synced when it was told. The log is then cut at every
// synced offset, every line end and every byte of the unsynced tail, and
// each cut is reopened. Whatever a caller was told by the cut's synced
// offset must survive: no acknowledged id missing — a cache hit is
// acknowledged under its owner's id, done —, no terminal state that was
// seen missing, no done without its files — and the replay must equal the
// log's whole lines applied in order.
func TestGroupCommitCrashWall(t *testing.T) {
	root := t.TempDir()
	d, err := serve.NewDaemon(serve.Config{SimWorkers: 2, QueueCap: 4, StoreRoot: root})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	st := d.Store()
	rec := st.RecordLog()
	var mu sync.Mutex
	var tells []told
	tell := func(tl told) {
		tl.synced = rec.Synced()
		mu.Lock()
		tells = append(tells, tl)
		mu.Unlock()
	}
	files := func(owner string) (map[string][]byte, error) {
		names, err := st.ArtefactNames(owner)
		if err != nil {
			return nil, err
		}
		out := map[string][]byte{}
		for _, name := range names {
			if out[name], err = st.Artefact(owner, name); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	// acked notes an acknowledged submission; a cache hit is acknowledged
	// under its owner's id, already done.
	acked := func(r store.Record) {
		tell(told{id: r.ID})
		if r.Cached {
			tell(told{id: r.ID, state: store.Done, owner: r.ArtefactID})
		}
	}
	seen := func(id string) error {
		r, err := awaitTerminal(st, id)
		if err != nil {
			return err
		}
		tl := told{id: r.ID, state: r.State}
		if r.State == store.Done {
			if tl.files, err = files(r.ArtefactID); err != nil {
				return fmt.Errorf("done %s: %w", r.ID, err)
			}
		}
		tell(tl)
		return nil
	}

	// A lister reads the whole ledger meanwhile, as GET /v1/jobs would:
	// every id and terminal state it shows has been told to someone.
	stop := make(chan struct{})
	listed := make(chan struct{})
	go func() {
		defer close(listed)
		shown := map[[2]string]bool{} // id, state ("" for the id alone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, r := range st.List("") {
				for _, tl := range []told{{id: r.ID}, {id: r.ID, state: r.State}} {
					k := [2]string{tl.id, string(tl.state)}
					if (tl.state == "" || tl.state.Terminal()) && !shown[k] {
						shown[k] = true
						tell(tl)
					}
				}
			}
		}
	}()
	// Four clients submit the same spec each round, so duplicates run cold
	// and the clients that fall behind hit on an owner that just finished.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 10; round++ {
				r, err := d.Submit(pingpong(int64(1+round) * units.KiB))
				if err == nil {
					acked(r)
					err = seen(r.ID)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-listed
	if t.Failed() {
		return
	}
	hit, err := d.Submit(pingpong(units.KiB))
	if err != nil || !hit.Cached {
		t.Fatalf("resubmission of a finished spec = %+v, %v", hit, err)
	}
	acked(hit)

	// Two running and four queued blockers fill the daemon; the next
	// submission is shed, and the blockers are cancelled.
	var blockers []store.Record
	for i := 0; i < 6; i++ {
		r, err := d.Submit(pingpong(int64(32+i)*units.MiB, int64(40+i)*units.MiB))
		if err != nil {
			t.Fatal(err)
		}
		acked(r)
		blockers = append(blockers, r)
	}
	if _, err := d.Submit(pingpong(64 * units.KiB)); !errors.Is(err, scheduler.ErrQueueFull) {
		t.Fatalf("overflow submission: %v", err)
	}
	for _, r := range blockers {
		d.Cancel(r.ID)
	}
	for _, r := range blockers {
		if err := seen(r.ID); err != nil {
			t.Fatal(err)
		}
	}

	wal, syncs := rec.Log()
	hits := 0
	for _, tl := range tells {
		if tl.owner != "" {
			hits++
		}
	}
	checkLogOrder(t, wal)

	cuts := map[int]bool{len(wal): true}
	for _, off := range syncs {
		if off > 0 && wal[off-1] != '\n' {
			t.Fatalf("fsync at offset %d is not on an entry boundary", off)
		}
		cuts[off] = true
	}
	for off, b := range wal {
		if b == '\n' {
			cuts[off+1] = true
		}
	}
	for off := syncs[len(syncs)-1]; off < len(wal); off++ {
		cuts[off] = true
	}
	order := make([]int, 0, len(cuts))
	for cut := range cuts {
		order = append(order, cut)
	}
	sort.Ints(order)

	dir := t.TempDir()
	for _, cut := range order {
		if err := os.WriteFile(filepath.Join(dir, "wal.jsonl"), wal[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s, _, err := store.Open(dir)
		if err != nil {
			t.Fatalf("cut %d: Open: %v", cut, err)
		}
		checkCut(t, cut, s, wal[:cut], tells)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("%d bytes, %d fsyncs, %d tells, %d cache hits, %d cuts", len(wal), len(syncs), len(tells), hits, len(order))
}

// checkLogOrder asserts the order the whole log must keep: a job's create
// comes before any other entry of it.
func checkLogOrder(t *testing.T, wal []byte) {
	t.Helper()
	created := map[string]bool{}
	for _, line := range bytes.Split(bytes.TrimSuffix(wal, []byte{'\n'}), []byte{'\n'}) {
		var e walLine
		if err := json.Unmarshal(entryJSON(line), &e); err != nil {
			t.Fatalf("log line %q: %v", line, err)
		}
		switch {
		case e.Op == "create":
			created[e.ID] = true
		case !created[e.ID]:
			t.Fatalf("%s %s logged before its create", e.Op, e.ID)
		}
	}
}

// checkCut holds one reopened cut against the log's whole lines and against
// everything callers were told by the time the cut was synced.
func checkCut(t *testing.T, cut int, s *store.Store, wal []byte, tells []told) {
	t.Helper()
	want := map[string]store.State{}
	for _, line := range bytes.Split(wal[:bytes.LastIndexByte(wal, '\n')+1], []byte{'\n'}) {
		var e walLine
		if len(line) == 0 || json.Unmarshal(entryJSON(line), &e) != nil {
			continue
		}
		cur, live := want[e.ID]
		switch {
		case e.Op == "create" && !live:
			want[e.ID] = store.State(e.State)
		case e.Op == "delete":
			delete(want, e.ID)
		case live && !cur.Terminal() && (e.Op == "advance" || e.Op == "finish"):
			want[e.ID] = store.State(e.State)
		}
	}
	got := map[string]store.State{}
	for _, r := range s.List("") {
		got[r.ID] = r.State
		if r.State != store.Done {
			continue
		}
		owner, ok := s.Get(r.ArtefactID)
		if !ok || owner.State != store.Done {
			t.Fatalf("cut %d: done %s is served by %s, which is not done", cut, r.ID, r.ArtefactID)
		}
		if names, err := s.ArtefactNames(r.ArtefactID); err != nil || len(names) == 0 {
			t.Fatalf("cut %d: done %s has no files (%v)", cut, r.ID, err)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cut %d: replay %v, whole lines say %v", cut, got, want)
	}
	for _, tl := range tells {
		if tl.synced > cut {
			continue
		}
		r, ok := s.Get(tl.id)
		switch {
		case !ok:
			t.Fatalf("cut %d: acknowledged %s is missing", cut, tl.id)
		case tl.state != "" && r.State != tl.state:
			t.Fatalf("cut %d: %s was seen %s, replays %s", cut, tl.id, tl.state, r.State)
		case tl.owner != "" && r.ArtefactID != tl.owner:
			t.Fatalf("cut %d: hit %s is served by %s, was told %s", cut, tl.id, r.ArtefactID, tl.owner)
		}
		for name, buf := range tl.files {
			if b, err := s.Artefact(r.ArtefactID, name); err != nil || !bytes.Equal(b, buf) {
				t.Fatalf("cut %d: done %s: %s = %q, %v", cut, tl.id, name, b, err)
			}
		}
	}
}
