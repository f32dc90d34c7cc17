package store_test

import (
	"errors"
	"os"
	"testing"
	"time"

	"knemesis/internal/serve"
	"knemesis/internal/serve/api"
	"knemesis/internal/serve/scheduler"
	"knemesis/internal/serve/store"
	"knemesis/internal/units"
)

// TestDurablePointsPerJob pins what a job costs the disk, counted at the WAL
// handle underneath a whole daemon: a cold job syncs twice (create, finish),
// a cache hit once (its create entry says it all), a shed submission twice
// (create, delete) — and the log is the only file the store ever writes.
func TestDurablePointsPerJob(t *testing.T) {
	root := t.TempDir()
	d, err := serve.NewDaemon(serve.Config{SimWorkers: 1, QueueCap: 1, StoreRoot: root})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	syncs := d.Store().CountSyncs()
	spent := func(what string, want int64) {
		t.Helper()
		if got := syncs(); got != want {
			t.Fatalf("%d WAL fsyncs after %s, want %d", got, what, want)
		}
	}
	await := func(id string) store.Record {
		t.Helper()
		for since := 0; ; {
			rec, ok := d.Store().Wait(id, since, time.Minute)
			if !ok || rec.Version == since {
				t.Fatalf("job %s stuck: %+v (ok %v)", id, rec, ok)
			}
			if rec.State.Terminal() {
				return rec
			}
			since = rec.Version
		}
	}
	pingpong := func(sizes ...int64) api.Spec {
		return api.Spec{Kind: api.KindComm, Bench: "pingpong", Sizes: sizes}
	}

	cold, err := d.Submit(pingpong(4 * units.KiB))
	if err != nil {
		t.Fatal(err)
	}
	if rec := await(cold.ID); rec.State != store.Done || len(rec.Transitions) != 4 {
		t.Fatalf("cold job = %+v", rec)
	}
	spent("a cold job", 2)

	hit, err := d.Submit(pingpong(4 * units.KiB))
	if err != nil || !hit.Cached || hit.ArtefactID != cold.ID {
		t.Fatalf("resubmission = %+v, %v", hit, err)
	}
	spent("a cache hit", 2+1)

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
	spent("two more creates", 3+2)
	if _, err := d.Submit(pingpong(16 * units.KiB)); !errors.Is(err, scheduler.ErrQueueFull) {
		t.Fatalf("overflow submission: %v", err)
	}
	spent("a shed submission", 5+2)
	d.Cancel(blocker.ID)
	d.Cancel(queued.ID)
	await(blocker.ID)
	await(queued.ID)
	spent("two cancellations", 7+2)

	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "wal.jsonl" || entries[0].IsDir() {
		t.Fatalf("store root holds %v, want only wal.jsonl", entries)
	}
}
