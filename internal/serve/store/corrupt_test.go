package store_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"testing"

	"knemesis/internal/serve"
	"knemesis/internal/serve/scheduler"
	"knemesis/internal/serve/store"
	"knemesis/internal/units"
)

// recordDaemonLog runs a daemon on a fresh root through every kind of entry
// it logs — a cold job to done, a cache hit (no entry), a running and a
// queued job cancelled, a shed submission's create and delete — and returns
// the log it leaves.
func recordDaemonLog(t *testing.T) []byte {
	t.Helper()
	root := t.TempDir()
	d, err := serve.NewDaemon(serve.Config{SimWorkers: 1, QueueCap: 1, StoreRoot: root})
	if err != nil {
		t.Fatal(err)
	}
	await := func(id string) {
		t.Helper()
		if _, err := awaitTerminal(d.Store(), id); err != nil {
			t.Fatal(err)
		}
	}
	for range 2 {
		r, err := d.Submit(pingpong(units.KiB))
		if err != nil {
			t.Fatal(err)
		}
		await(r.ID)
	}
	blocker, err := d.Submit(pingpong(32*units.MiB, 33*units.MiB, 34*units.MiB, 35*units.MiB))
	if err != nil {
		t.Fatal(err)
	}
	queued, err := d.Submit(pingpong(8 * units.KiB))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Submit(pingpong(16 * units.KiB)); !errors.Is(err, scheduler.ErrQueueFull) {
		t.Fatalf("overflow submission: %v", err)
	}
	for _, id := range []string{queued.ID, blocker.ID} {
		d.Cancel(id)
		await(id)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	wal, err := os.ReadFile(filepath.Join(root, "wal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	return wal
}

// ledger is what a replay shows a reader: every record, and the files
// serving each done one.
type ledger struct {
	records []store.Record
	files   map[string]map[string][]byte
}

func readLedger(t *testing.T, s *store.Store) ledger {
	t.Helper()
	l := ledger{records: s.List(""), files: map[string]map[string][]byte{}}
	for _, r := range l.records {
		if r.State != store.Done {
			continue
		}
		names, err := s.ArtefactNames(r.ID)
		if err != nil {
			t.Fatalf("done %s has no files: %v", r.ID, err)
		}
		l.files[r.ID] = map[string][]byte{}
		for _, name := range names {
			if l.files[r.ID][name], err = s.Artefact(r.ID, name); err != nil {
				t.Fatal(err)
			}
		}
	}
	return l
}

// openLog writes log as root's WAL and opens the store on it. It returns
// the replay's ledger (nil when Open refuses the log) and the file Open
// leaves.
func openLog(t *testing.T, root string, log []byte) (*ledger, store.Replay, []byte, error) {
	t.Helper()
	path := filepath.Join(root, "wal.jsonl")
	if err := os.WriteFile(path, log, 0o644); err != nil {
		t.Fatal(err)
	}
	s, rep, err := store.Open(root)
	var l *ledger
	if err == nil {
		got := readLedger(t, s)
		l = &got
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	after, rerr := os.ReadFile(path)
	if rerr != nil {
		t.Fatal(rerr)
	}
	return l, rep, after, err
}

var corruptAt = regexp.MustCompile(`at byte (\d+) is corrupt`)

// TestCorruptionWall damages a recorded daemon log one byte at a time —
// every byte inverted, and each single-bit flip of every 16th byte — and
// reopens it. Damage that a valid entry follows must be refused, naming a
// byte offset inside the damaged entry, with the file left byte for byte
// as it was. Damage to the last entry (or to the newline that joins it to
// the one before) is a torn tail: the file is cut where the damaged entry
// starts and the replay shows exactly what the log before that entry
// shows. No replay ever serves a done record with changed bytes.
func TestCorruptionWall(t *testing.T) {
	wal := recordDaemonLog(t)
	var starts, ends []int // each entry's first byte and its newline
	for off := 0; off < len(wal); {
		nl := off + bytes.IndexByte(wal[off:], '\n')
		starts, ends = append(starts, off), append(ends, nl)
		off = nl + 1
	}
	prefix := make([]ledger, len(starts)) // the ledger of wal[:starts[k]]
	for k, start := range starts {
		l, _, _, err := openLog(t, t.TempDir(), wal[:start])
		if err != nil {
			t.Fatalf("the undamaged log before entry %d: %v", k+1, err)
		}
		prefix[k] = *l
	}
	root := t.TempDir()
	k := 0 // the entry holding the damaged byte
	trials := 0
	for p := range wal {
		for ends[k] < p {
			k++
		}
		damage := []byte{0xff}
		if p%16 == 0 {
			damage = append(damage, 1, 2, 4, 8, 16, 32, 64, 128)
		}
		for _, x := range damage {
			trials++
			bad := bytes.Clone(wal)
			bad[p] ^= x
			got, rep, after, err := openLog(t, root, bad)
			if k < len(starts)-2 || k == len(starts)-2 && p != ends[k] { // a valid entry follows
				m := corruptAt.FindStringSubmatch(fmt.Sprint(err))
				if m == nil {
					t.Fatalf("byte %d ^ %#x in entry %d: Open = %+v, %v; want it refused", p, x, k+1, rep, err)
				}
				if off, _ := strconv.Atoi(m[1]); off < starts[k] || off > ends[k] {
					t.Fatalf("byte %d ^ %#x in entry %d [%d, %d]: refusal names byte %d", p, x, k+1, starts[k], ends[k], off)
				}
				if !bytes.Equal(after, bad) {
					t.Fatalf("byte %d ^ %#x: Open changed the log it refused", p, x)
				}
				continue
			}
			switch {
			case err != nil || !rep.TornTail:
				t.Fatalf("byte %d ^ %#x in the last entry: Open = %+v, %v; want a torn tail", p, x, rep, err)
			case !bytes.Equal(after, wal[:starts[k]]):
				t.Fatalf("byte %d ^ %#x: torn log cut to %d bytes, want %d", p, x, len(after), starts[k])
			case !reflect.DeepEqual(*got, prefix[k]):
				t.Fatalf("byte %d ^ %#x in the last entry: replay differs from the log before it", p, x)
			}
		}
	}
	t.Logf("%d bytes, %d entries, %d damaged logs", len(wal), len(starts), trials)
}
