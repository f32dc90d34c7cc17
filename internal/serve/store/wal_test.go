package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// seedLedger writes a representative pre-crash history into root:
//
//	job-000001  done, owns an artefact
//	job-000002  failed with an error and note
//	job-000003  admitted (interrupted)
//	job-000004  queued   (interrupted)
//
// and returns the records as the pre-crash process saw them.
func seedLedger(t *testing.T, root string) map[string]Record {
	t.Helper()
	s, rep, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records != 0 {
		t.Fatalf("fresh root replayed %d records", rep.Records)
	}
	s.Create("job-000001", "key-a", "sim", []byte(`{"kind":"comm"}`), Queued)
	s.Advance("job-000001", Admitted, "")
	s.Advance("job-000001", Running, "")
	if err := s.PutArtefact("job-000001", map[string][]byte{
		"result.json": []byte(`{"ok":true}` + "\n"),
		"table.csv":   []byte("size,us\n1,2\n"),
	}); err != nil {
		t.Fatal(err)
	}
	s.Finish("job-000001", Done, "", "job-000001", "")

	s.Create("job-000002", "key-b", "sim", []byte(`{"kind":"comm"}`), Queued)
	s.Advance("job-000002", Admitted, "")
	s.Advance("job-000002", Running, "")
	s.Finish("job-000002", Failed, "panic: boom\nstack", "", "panicked")

	s.Create("job-000003", "key-c", "sim", []byte(`{"kind":"comm"}`), Queued)
	s.Advance("job-000003", Admitted, "")

	s.Create("job-000004", "key-d", "rt", []byte(`{"kind":"comm"}`), Queued)

	want := make(map[string]Record)
	for _, id := range []string{"job-000001", "job-000002", "job-000003", "job-000004"} {
		r, ok := s.Get(id)
		if !ok {
			t.Fatalf("seed record %s missing", id)
		}
		want[id] = r
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return want
}

func TestWALReplayVerbatim(t *testing.T) {
	root := t.TempDir()
	want := seedLedger(t, root)

	s, rep, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if rep.TornTail {
		t.Fatal("clean log reported a torn tail")
	}
	if rep.Records != 4 || rep.Terminal != 2 {
		t.Fatalf("replay = %+v", rep)
	}
	if !reflect.DeepEqual(rep.Interrupted, []string{"job-000003", "job-000004"}) {
		t.Fatalf("interrupted = %v", rep.Interrupted)
	}
	if rep.MaxSeq != 4 {
		t.Fatalf("max seq = %d, want 4", rep.MaxSeq)
	}

	// Replayed records are verbatim copies of the pre-crash history:
	// states, errors, artefact owners and every timestamped transition.
	for id, w := range want {
		g, ok := s.Get(id)
		if !ok {
			t.Fatalf("record %s lost in replay", id)
		}
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("record %s diverged after replay:\ngot  %+v\nwant %+v", id, g, w)
		}
	}

	// The done job's artefacts survived byte-for-byte, in sorted order.
	names, err := s.ArtefactNames("job-000001")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(names, []string{"result.json", "table.csv"}) {
		t.Fatalf("artefact names = %v", names)
	}
	buf, err := s.Artefact("job-000001", "result.json")
	if err != nil || !bytes.Equal(buf, []byte(`{"ok":true}`+"\n")) {
		t.Fatalf("artefact = %q, %v", buf, err)
	}
}

func TestWALTornTailTruncatedAndRecovered(t *testing.T) {
	root := t.TempDir()
	seedLedger(t, root)
	path := filepath.Join(root, walFile)
	intact, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// A crash mid-append leaves a partial line with no terminator.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"finish","id":"job-000003","sta`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s, rep, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.TornTail {
		t.Fatal("torn tail not detected")
	}
	if rep.Records != 4 {
		t.Fatalf("valid prefix lost: %d records", rep.Records)
	}
	// The fragment is truncated away so the log is a clean prefix again...
	after, err := os.ReadFile(path)
	if err != nil || !bytes.Equal(after, intact) {
		t.Fatalf("torn tail not truncated back to the valid prefix (%d vs %d bytes, err %v)",
			len(after), len(intact), err)
	}
	// ...and the next append lands on a record boundary.
	s.Finish("job-000003", Failed, "crash-interrupted", "", "crash-interrupted")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, rep2, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if rep2.TornTail {
		t.Fatal("repaired log still reports a torn tail")
	}
	if r, _ := s2.Get("job-000003"); r.State != Failed {
		t.Fatalf("post-repair append lost: job-000003 is %s", r.State)
	}
	if !reflect.DeepEqual(rep2.Interrupted, []string{"job-000004"}) {
		t.Fatalf("interrupted = %v", rep2.Interrupted)
	}
}

// A bad line with valid entries after it is corruption, not a torn tail:
// Open must refuse the log, name the entry and its byte offset, and leave
// the file byte for byte as it was, instead of truncating away the
// acknowledged jobs behind it.
func TestWALCorruptEntryBeforeValidOnesRefusesToOpen(t *testing.T) {
	root := t.TempDir()
	seedLedger(t, root)
	path := filepath.Join(root, walFile)
	wal, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := bytes.IndexByte(wal, '\n') + 1 // entry 2 starts after entry 1
	wal[off] ^= 0xff
	if err := os.WriteFile(path, wal, 0o644); err != nil {
		t.Fatal(err)
	}

	s, _, err := Open(root)
	if err == nil {
		s.Close()
		t.Fatal("Open accepted a log with a corrupt entry before valid ones")
	}
	for _, want := range []string{"entry 2", fmt.Sprintf("byte %d", off)} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
	after, err := os.ReadFile(path)
	if err != nil || !bytes.Equal(after, wal) {
		t.Fatalf("a refused log was modified (%d vs %d bytes, err %v)", len(after), len(wal), err)
	}
}

// A bad last line, even a terminated one, has nothing valid after it: it
// is a torn tail, dropped and truncated away as a crash's partial append.
func TestWALCorruptLastEntryIsTorn(t *testing.T) {
	root := t.TempDir()
	seedLedger(t, root)
	path := filepath.Join(root, walFile)
	wal, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	last := bytes.LastIndexByte(wal[:len(wal)-1], '\n') + 1
	wal[last] ^= 0xff
	if err := os.WriteFile(path, wal, 0o644); err != nil {
		t.Fatal(err)
	}

	s, rep, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if !rep.TornTail || rep.Records != 3 {
		t.Fatalf("replay = %+v, want a torn tail and 3 records", rep)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, wal[:last]) {
		t.Fatalf("torn last entry not truncated (%d vs %d bytes, err %v)", len(after), last, err)
	}
}

func TestWALDeleteReplayed(t *testing.T) {
	root := t.TempDir()
	s, _, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	s.Create("job-000001", "k", "sim", nil, Queued)
	s.Create("job-000002", "k2", "sim", nil, Queued)
	s.Delete("job-000001") // shed before it ever ran
	s.Close()

	s2, rep, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if rep.Records != 1 {
		t.Fatalf("replayed %d records, want 1", rep.Records)
	}
	if _, ok := s2.Get("job-000001"); ok {
		t.Fatal("deleted record resurrected by replay")
	}
	if _, ok := s2.Get("job-000002"); !ok {
		t.Fatal("surviving record lost")
	}
}

// TestWaitOnReplayedTerminalReturnsImmediately pins the long-poll contract
// after a restart: a record that reached its terminal state in the previous
// process already carries its full transition history, so a waiter starting
// at since=0 must not block until its timeout.
func TestWaitOnReplayedTerminalReturnsImmediately(t *testing.T) {
	root := t.TempDir()
	seedLedger(t, root)
	s, _, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	t0 := time.Now()
	rec, ok := s.Wait("job-000001", 0, 10*time.Second)
	if !ok || rec.State != Done {
		t.Fatalf("Wait = %+v, %v", rec, ok)
	}
	if elapsed := time.Since(t0); elapsed > 2*time.Second {
		t.Fatalf("Wait on a replayed terminal record blocked %s", elapsed)
	}
}

// TestCrashPrefixWall enumerates every point a power loss can cut the log
// at, instead of sampling one: the WAL of two interleaved cold jobs and an
// old-format cache hit on the first is truncated at every byte offset and reopened.
// Whatever survives must open, hold every record whose create line is whole,
// hand every unfinished record to recovery, and never show a done record
// without its exact bytes — or any bytes for a record that is not done.
func TestCrashPrefixWall(t *testing.T) {
	files := map[string]map[string][]byte{
		"job-000001": {"result.json": []byte(`{"n":1}` + "\n"), "fig.csv": []byte("a,b\n1,2\n")},
		"job-000002": {"result.json": []byte(`{"n":2}` + "\n")},
	}
	src := t.TempDir()
	s, err := New(src)
	if err != nil {
		t.Fatal(err)
	}
	spec := []byte(`{"kind":"comm"}`)
	s.Create("job-000001", "key-a", "sim", spec, Queued)
	s.Create("job-000002", "key-b", "sim", spec, Queued)
	s.Advance("job-000001", Admitted, "")
	s.Advance("job-000002", Admitted, "")
	s.Advance("job-000001", Running, "")
	s.Advance("job-000002", Running, "")
	s.PutArtefact("job-000001", files["job-000001"])
	s.PutArtefact("job-000002", files["job-000002"])
	s.Finish("job-000001", Done, "", "job-000001", "")
	// A cache hit as older versions logged it: a create born done, served
	// by the owner's artefact. Nothing writes one any more; replay still
	// reads it.
	s.mu.Lock()
	s.commit(walEntry{Op: "create", ID: "job-000003", Key: "key-a", Class: "sim", Spec: spec,
		State: Done, Cached: true, Artefact: "job-000001"}, true)
	s.mu.Unlock()
	s.Finish("job-000002", Done, "", "job-000002", "")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wal, err := os.ReadFile(filepath.Join(src, walFile))
	if err != nil {
		t.Fatal(err)
	}

	root := t.TempDir()
	path := filepath.Join(root, walFile)
	for cut := 0; cut <= len(wal); cut++ {
		if err := os.WriteFile(path, wal[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s, rep, err := Open(root)
		if err != nil {
			t.Fatalf("cut %d: Open: %v", cut, err)
		}
		// The model: the last state each id reached in the whole lines.
		whole := wal[:bytes.LastIndexByte(wal[:cut], '\n')+1]
		want := map[string]State{}
		for _, line := range bytes.Split(whole, []byte{'\n'}) {
			var e walEntry
			body, _, _ := bytes.Cut(line, []byte{'\t'}) // the entry's JSON, without its frame
			if len(line) > 0 && json.Unmarshal(body, &e) == nil {
				want[e.ID] = e.State
			}
		}
		if rep.Records != len(want) || rep.TornTail != (len(whole) != cut) {
			t.Fatalf("cut %d: replay = %+v, want %d records", cut, rep, len(want))
		}
		interrupted := map[string]bool{}
		for _, id := range rep.Interrupted {
			interrupted[id] = true
		}
		for id, st := range want {
			r, ok := s.Get(id)
			if !ok || r.State != st {
				t.Fatalf("cut %d: %s = %+v (ok %v), want %s", cut, id, r, ok, st)
			}
			if interrupted[id] == st.Terminal() {
				t.Fatalf("cut %d: %s is %s, interrupted = %v", cut, id, st, rep.Interrupted)
			}
			if st != Done {
				if names, err := s.ArtefactNames(id); err == nil {
					t.Fatalf("cut %d: unfinished %s shows artefacts %v", cut, id, names)
				}
				continue
			}
			orig := files[r.ArtefactID]
			names, err := s.ArtefactNames(r.ArtefactID)
			if err != nil || len(names) != len(orig) {
				t.Fatalf("cut %d: done %s lists %v, %v", cut, id, names, err)
			}
			for name, buf := range orig {
				if got, err := s.Artefact(r.ArtefactID, name); err != nil || !bytes.Equal(got, buf) {
					t.Fatalf("cut %d: done %s: %s = %q, %v", cut, id, name, got, err)
				}
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
