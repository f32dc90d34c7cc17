// Package store is knemd's job ledger and artefact store: every submitted
// job has a Record walking the state machine
//
//	queued → admitted → running → done | cancelled | failed
//
// (recovery may send an interrupted job back to queued, or finish it from
// another run's artefact; a cache hit at submission creates no record),
// with a timestamped transition log and a monotonically increasing version
// the progress API long-polls on.
//
// The ledger is also the result cache: the first applied done finish of a
// job that owns its artefact makes that job the owner of its cache key
// (Owner), live and on replay alike.
//
// Records and artefacts live in memory. With a root directory configured
// they are durable too: every mutation is appended to a write-ahead log (see
// wal.go), root/wal.jsonl, the only file the store keeps; a job's artefact
// travels inside its finish entry, so no record is ever done without its
// bytes; a create, finish or delete becomes visible only once it is
// durable; and Open replays that log on boot. A zero root logs nothing.
package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// State is one job lifecycle state.
type State string

const (
	Queued    State = "queued"
	Admitted  State = "admitted"
	Running   State = "running"
	Done      State = "done"
	Cancelled State = "cancelled"
	Failed    State = "failed"
)

// Terminal reports whether no further transition can follow.
func (s State) Terminal() bool { return s == Done || s == Cancelled || s == Failed }

// Transition is one timestamped state change.
type Transition struct {
	State State     `json:"state"`
	At    time.Time `json:"at"`
	Note  string    `json:"note,omitempty"`
}

// Record is one job's ledger entry. The Version equals the transition
// count and only ever grows — the progress API's long-poll cursor.
type Record struct {
	ID    string `json:"id"`
	Key   string `json:"key"`   // cache key (canonical spec hash + engine + code version)
	Class string `json:"class"` // scheduler resource class ("sim" | "rt")
	Spec  []byte `json:"spec"`  // canonical spec JSON as submitted

	State       State        `json:"state"`
	Version     int          `json:"version"`
	Transitions []Transition `json:"transitions"`

	// Error carries the failure (or cancellation) error text, which for
	// engine-cut jobs embeds the per-rank state dump and for panicked jobs
	// the recovered stack.
	Error string `json:"error,omitempty"`
	// Cached marks a record answered from the result cache: an interrupted
	// job recovery finished from another run, or a cache hit an older
	// version logged as a record of its own. ArtefactID then names the job
	// whose artefact serves this record (otherwise the record's own ID once
	// done). The daemon's reply to a cache hit is a Record too, built from
	// the owner's id alone: ID and ArtefactID the owner, state done, Cached.
	Cached     bool   `json:"cached,omitempty"`
	ArtefactID string `json:"artefact_id,omitempty"`
}

// Store is the goroutine-safe ledger and artefact store; a non-empty root
// makes it WAL-backed.
type Store struct {
	mu   sync.Mutex
	cond *sync.Cond
	root string
	wal  logFile // nil when root == ""

	jobs  map[string]*Record
	order []string // submission order, for List

	artefacts map[string]map[string][]byte // job id -> file name -> bytes, done jobs only
	staged    map[string]map[string][]byte // PutArtefact's files, which only Finish reads
	owners    map[string]string            // cache key -> owning job id, see Owner

	// Group commit (wal.go): entries written but not yet applied, in log
	// order; the sequence numbers of the last written and the last durable
	// entry; whether a leader's fsync is in flight; and the sticky error of
	// a failed one. synced is signalled whenever an fsync ends.
	pending []pendingEntry
	written int64
	durable int64
	syncing bool
	failed  error
	synced  *sync.Cond
}

// New opens a store, discarding the replay summary. Prefer Open when the
// caller needs to resolve interrupted jobs.
func New(root string) (*Store, error) {
	s, _, err := Open(root)
	return s, err
}

// Open opens a store. A non-empty root is created if missing and its WAL,
// if present, is replayed: the returned summary tells the caller what was
// reconstructed and which jobs a crash caught mid-flight.
func Open(root string) (*Store, Replay, error) {
	s := &Store{root: root, jobs: make(map[string]*Record),
		artefacts: make(map[string]map[string][]byte), staged: make(map[string]map[string][]byte),
		owners: make(map[string]string)}
	s.cond = sync.NewCond(&s.mu)
	s.synced = sync.NewCond(&s.mu)
	if root == "" {
		return s, Replay{}, nil
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, Replay{}, err
	}
	rep, err := s.replayWAL()
	if err != nil {
		return nil, rep, err
	}
	f, err := os.OpenFile(filepath.Join(root, walFile), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, rep, err
	}
	s.wal = f
	if err := syncDir(root); err != nil { // the WAL file's directory entry itself
		f.Close()
		return nil, rep, err
	}
	return s, rep, nil
}

// Owner returns the id of the job owning key's artefact: the job whose done
// finish, bytes included, was the first of that key to be applied. A key
// gains its owner in the critical section that makes the owner's done state
// visible, so whoever saw the owner done finds it here, and an owner is
// always durable. Records are never evicted, so an owner stays in the
// ledger.
func (s *Store) Owner(key string) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id, ok := s.owners[key]
	return id, ok
}

// Owners returns the number of keys with an owner.
func (s *Store) Owners() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.owners)
}

// Close makes everything written durable and releases the WAL handle. The
// store must not be mutated afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return nil
	}
	for s.failed == nil && s.durable < s.written {
		s.awaitLocked(s.written)
	}
	err := s.wal.Close()
	s.wal = nil
	if s.failed != nil {
		return s.failed
	}
	return err
}

// Create opens a record in its initial state and returns once it is
// durable and visible. Duplicate IDs are programmer errors.
func (s *Store) Create(id, key, class string, spec []byte, initial State) {
	s.CreateAsync(id, key, class, spec, initial)()
}

// CreateAsync logs a create like Create but returns as soon as it is
// written. The record is live for Advance, Finish and Delete at once, but
// invisible to readers until the returned function, which waits for it to
// be durable, can return.
func (s *Store) CreateAsync(id, key, class string, spec []byte, initial State) (durable func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.stateLocked(id); dup {
		panic(fmt.Sprintf("store: job %q created twice", id))
	}
	lsn := s.writeLocked(walEntry{Op: "create", ID: id, Key: key, Class: class, Spec: spec, State: initial}, true)
	return func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.awaitLocked(lsn)
	}
}

// Delete removes a record (a submission shed before it was ever queued).
// One fsync covers the delete and a create still waiting for its own.
func (s *Store) Delete(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.commit(walEntry{Op: "delete", ID: id}, true)
}

func (s *Store) deleteLocked(id string) {
	delete(s.jobs, id)
	for i, o := range s.order {
		if o == id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	s.cond.Broadcast()
}

// Advance appends a non-terminal transition. Advancing a terminal record is
// ignored (the scheduler and a concurrent cancel may race to finish a job;
// the first terminal transition wins). The entry is logged without an fsync
// of its own, see wal.go.
func (s *Store) Advance(id string, st State, note string) {
	s.advance(walEntry{Op: "advance", ID: id, State: st, Note: note})
}

// Requeue moves an interrupted record back to Queued under key, the key
// crash recovery re-derived from its spec. The advance entry carries the
// key, so the re-run's finish owns it, live and on replay alike.
func (s *Store) Requeue(id, key, note string) {
	s.advance(walEntry{Op: "advance", ID: id, Key: key, State: Queued, Note: note})
}

func (s *Store) advance(e walEntry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cur, ok := s.stateLocked(e.ID); ok && !cur.Terminal() {
		s.commit(e, e.State.Terminal())
	}
}

// Finish moves a record to a terminal state, recording the error text (the
// engine's cut error embeds the state dump), the artefact owner and an
// optional transition note (e.g. "crash-interrupted"). A done record that
// owns its artefact (artefactID == id) takes the files PutArtefact staged
// into its log entry, and applying that entry is what makes them servable;
// one answered by another job's artefact is marked cached. Any finish
// drops what the job staged.
func (s *Store) Finish(id string, st State, errText, artefactID, note string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	files := s.staged[id]
	delete(s.staged, id)
	if cur, ok := s.stateLocked(id); !ok || cur.Terminal() {
		return
	}
	e := walEntry{Op: "finish", ID: id, State: st, Error: errText, Artefact: artefactID, Note: note}
	if st == Done {
		if artefactID == id {
			e.Files = files
		} else {
			e.Cached = true
		}
	}
	s.commit(e, true)
}

func (s *Store) advanceLocked(r *Record, st State, note string, at time.Time) {
	r.State = st
	r.Transitions = append(r.Transitions, Transition{State: st, At: at, Note: note})
	r.Version = len(r.Transitions)
	s.cond.Broadcast()
}

// Get returns a deep copy of a record.
func (s *Store) Get(id string) (Record, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.jobs[id]
	if !ok {
		return Record{}, false
	}
	return r.clone(), true
}

// List returns records in submission order, optionally filtered by state.
func (s *Store) List(state State) []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Record, 0, len(s.order))
	for _, id := range s.order {
		r := s.jobs[id]
		if state != "" && r.State != state {
			continue
		}
		out = append(out, r.clone())
	}
	return out
}

// Wait blocks until the record's version exceeds since (returning the
// fresh copy) or the timeout passes (returning the current copy). The
// second result is false for an unknown ID. A record replayed from the WAL
// already carries its full transition history, so a waiter starting at
// since=0 returns immediately even when the record jumped straight to a
// terminal state before this process booted.
func (s *Store) Wait(id string, since int, timeout time.Duration) (Record, bool) {
	deadline := time.Now().Add(timeout)
	timer := time.AfterFunc(timeout, func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	defer timer.Stop()

	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		r, ok := s.jobs[id]
		if !ok {
			return Record{}, false
		}
		if r.Version > since || time.Now().After(deadline) {
			return r.clone(), true
		}
		s.cond.Wait()
	}
}

func (r *Record) clone() Record {
	c := *r
	c.Transitions = append([]Transition(nil), r.Transitions...)
	c.Spec = append([]byte(nil), r.Spec...)
	return c
}

// PutArtefact stages a job's artefact files. Nothing serves them until
// the job's done Finish has made them durable.
func (s *Store) PutArtefact(id string, files map[string][]byte) error {
	cp := make(map[string][]byte, len(files))
	for name, buf := range files {
		cp[name] = append([]byte(nil), buf...)
	}
	s.mu.Lock()
	s.staged[id] = cp
	s.mu.Unlock()
	return nil
}

// syncDir fsyncs a directory so creates within it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// filesLocked returns the artefact files serving id: those of the job its
// record names as the artefact's owner, else id's own, once done.
func (s *Store) filesLocked(id string) (map[string][]byte, bool) {
	if r, ok := s.jobs[id]; ok && r.ArtefactID != "" {
		id = r.ArtefactID
	}
	files, ok := s.artefacts[id]
	return files, ok
}

// ArtefactNames lists the files serving a job's artefact in sorted order.
func (s *Store) ArtefactNames(id string) ([]string, error) {
	s.mu.Lock()
	files, ok := s.filesLocked(id)
	s.mu.Unlock()
	if !ok {
		return nil, os.ErrNotExist
	}
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// Artefact returns one file of a job's artefact, read through its record's
// ArtefactID like ArtefactNames.
func (s *Store) Artefact(id, name string) ([]byte, error) {
	s.mu.Lock()
	files, _ := s.filesLocked(id)
	buf, ok := files[name]
	s.mu.Unlock()
	if !ok {
		return nil, os.ErrNotExist
	}
	return append([]byte(nil), buf...), nil
}
