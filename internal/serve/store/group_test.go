package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// gateLog is a WAL handle whose fsyncs block until gate is closed and then
// return err. It keeps no bytes, only counts the entries written.
type gateLog struct {
	mu      sync.Mutex
	lines   int
	entered chan struct{} // one send per fsync started; buffered beyond any test's fsyncs
	gate    chan struct{}
	err     error
}

func newGateLog(err error) *gateLog {
	return &gateLog{entered: make(chan struct{}, 16), gate: make(chan struct{}), err: err}
}

func (g *gateLog) Write(p []byte) (int, error) {
	g.mu.Lock()
	g.lines += bytes.Count(p, []byte{'\n'})
	g.mu.Unlock()
	return len(p), nil
}

func (g *gateLog) Sync() error {
	g.entered <- struct{}{}
	<-g.gate
	return g.err
}

func (g *gateLog) Close() error { return nil }

func (g *gateLog) written() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.lines
}

// gatedStore is an in-memory store logging to g.
func gatedStore(g *gateLog) *Store {
	s, _ := New("")
	s.wal = g
	return s
}

// waitFor polls cond until it holds or the test deadline of 10 s passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestWriteTimeDecisionsReadPending holds an fsync open and checks what the
// store decides meanwhile: a written create is live for Advance, Finish and
// the duplicate check but invisible to readers; a pending finish already
// makes the record terminal, so a later Advance or Finish writes nothing;
// and once the fsyncs land, entries are applied in log order.
func TestWriteTimeDecisionsReadPending(t *testing.T) {
	g := newGateLog(nil)
	s := gatedStore(g)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		s.Create("j1", "k", "sim", nil, Queued)
	}()
	<-g.entered // the create's leader is inside its fsync

	s.Advance("j1", Admitted, "")
	if _, ok := s.Get("j1"); ok {
		t.Fatal("a create is visible before it is durable")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a second create of a pending id did not panic")
			}
		}()
		s.Create("j1", "k", "sim", nil, Queued)
	}()
	go func() {
		defer wg.Done()
		s.Finish("j1", Done, "", "j1", "")
	}()
	waitFor(t, "the finish to be written", func() bool { return g.written() == 3 })
	s.Advance("j1", Running, "")
	s.Finish("j1", Failed, "late", "", "")
	if n := g.written(); n != 3 {
		t.Fatalf("%d entries written, want 3: a pending finish must stop later transitions", n)
	}

	close(g.gate)
	wg.Wait()
	r, ok := s.Get("j1")
	if !ok || r.State != Done || r.Version != 3 {
		t.Fatalf("record = %+v (ok %v), want done at version 3", r, ok)
	}
	for i, want := range []State{Queued, Admitted, Done} {
		if r.Transitions[i].State != want {
			t.Fatalf("transition %d = %s, want %s", i, r.Transitions[i].State, want)
		}
	}
}

// TestFsyncErrorWakesEveryWaiter fails the fsync that several callers wait
// on: the leader and every follower must panic with the same error, within
// the test deadline, none may return as if its entry were durable, no
// pending entry may be applied, and later mutations panic too.
func TestFsyncErrorWakesEveryWaiter(t *testing.T) {
	const callers = 4
	g := newGateLog(syscall.EIO)
	s := gatedStore(g)
	results := make(chan any, callers)
	create := func(id string) {
		defer func() { results <- recover() }()
		s.Create(id, "k", "sim", nil, Queued)
	}
	go create("j0")
	<-g.entered
	for i := 1; i < callers; i++ {
		go create(fmt.Sprintf("j%d", i))
	}
	waitFor(t, "every create to be written", func() bool { return g.written() == callers })
	s.Advance("j0", Admitted, "") // queued behind the failing create
	close(g.gate)

	var first string
	for i := 0; i < callers; i++ {
		select {
		case v := <-results:
			msg := fmt.Sprint(v)
			if v == nil || !strings.Contains(msg, syscall.EIO.Error()) {
				t.Fatalf("a waiter returned %v, want a panic with %v", v, syscall.EIO)
			}
			if first == "" {
				first = msg
			} else if msg != first {
				t.Fatalf("waiters panicked with %q and %q", first, msg)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of %d waiters still blocked after the fsync failed", callers-i, callers)
		}
	}
	if l := s.List(""); len(l) != 0 {
		t.Fatalf("records applied after a failed fsync: %+v", l)
	}
	func() {
		defer func() {
			if v := recover(); fmt.Sprint(v) != first {
				t.Errorf("a mutation after the failure returned %v, want a panic with %q", v, first)
			}
		}()
		s.Create("j9", "k", "sim", nil, Queued)
	}()
}

// TestLateAdvanceAfterFinishReplaysTerminal pins the one terminal guard
// shared by the live path and replay: a log holding a late advance and a
// late finish behind a done finish replays as done with two transitions,
// and the live store fed the same calls reads the same.
func TestLateAdvanceAfterFinishReplaysTerminal(t *testing.T) {
	at := time.Date(2024, 1, 2, 3, 4, 5, 0, time.UTC)
	files := map[string][]byte{"result.json": []byte("{}\n")}
	var log []byte
	for i, e := range []walEntry{
		{Op: "create", ID: "j1", Key: "k", Class: "sim", State: Queued},
		{Op: "finish", ID: "j1", State: Done, Artefact: "j1", Files: files},
		{Op: "advance", ID: "j1", State: Running},
		{Op: "finish", ID: "j1", State: Cancelled, Error: "late"},
	} {
		e.At = at.Add(time.Duration(i) * time.Second)
		buf, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		log = append(append(log, buf...), '\n')
	}
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, walFile), log, 0o644); err != nil {
		t.Fatal(err)
	}
	replayed, rep, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	defer replayed.Close()

	live, _ := New("")
	live.Create("j1", "k", "sim", nil, Queued)
	live.PutArtefact("j1", files)
	live.Finish("j1", Done, "", "j1", "")
	live.Advance("j1", Running, "")
	live.Finish("j1", Cancelled, "late", "", "")

	if rep.Terminal != 1 || len(rep.Interrupted) != 0 {
		t.Fatalf("replay = %+v", rep)
	}
	for name, s := range map[string]*Store{"replayed": replayed, "live": live} {
		r, ok := s.Get("j1")
		if !ok || r.State != Done || r.Version != 2 || len(r.Transitions) != 2 || r.Error != "" {
			t.Fatalf("%s record = %+v (ok %v), want done with 2 transitions", name, r, ok)
		}
	}
}
