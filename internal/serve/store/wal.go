package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// The write-ahead log is the whole durable store: every mutation appends
// one JSON line to root/wal.jsonl before the mutating call returns, and
// nothing else is ever written under the root. Entries a client can have
// been told about — create (it holds the id), finish (it saw the terminal
// state), delete — are fsync'd before the call returns. Non-terminal
// advance entries are written without an fsync of their own: recovery
// treats queued, admitted and running alike, so losing one changes nothing
// it decides, and since fsync flushes every byte of the file the next synced
// entry makes them durable too — after a kill -9 the log is complete, after
// a power loss it is still a prefix of history. The finish entry of a job
// that owns its artefact carries the files, so a record is never done
// without its bytes. Open replays the log to rebuild ledger and artefacts;
// a torn final line (the crash landed mid-append) is detected, dropped and
// truncated away so the next append starts on a clean record boundary.

// walFile is the ledger log's name under the store root.
const walFile = "wal.jsonl"

// logFile is what the store needs of the WAL handle: *os.File in
// production, a stand-in that counts fsyncs under test.
type logFile interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// walEntry is one logged mutation. Op selects which fields apply:
//
//	create  ID Key Class Spec State (initial) [Cached Artefact] At
//	advance ID State Note At
//	finish  ID State Error Artefact [Cached | Files] Note At
//	cached  ID Artefact At (written by older versions only)
//	delete  ID At
type walEntry struct {
	Op       string          `json:"op"`
	ID       string          `json:"id"`
	Key      string          `json:"key,omitempty"`
	Class    string          `json:"class,omitempty"`
	Spec     json.RawMessage `json:"spec,omitempty"`
	State    State           `json:"state,omitempty"`
	Note     string          `json:"note,omitempty"`
	Error    string          `json:"error,omitempty"`
	Artefact string          `json:"artefact_id,omitempty"`
	Cached   bool            `json:"cached,omitempty"`
	// Files is the artefact of a done job that owns it (Artefact == ID).
	Files map[string][]byte `json:"files,omitempty"`
	At    time.Time         `json:"at"`
}

// Replay summarizes what Open reconstructed from the WAL.
type Replay struct {
	// Entries is the number of valid log lines read.
	Entries int
	// Records is the number of ledger records reconstructed.
	Records int
	// Terminal counts records that were already done/cancelled/failed.
	Terminal int
	// Interrupted lists, in submission order, the IDs of records caught in
	// a non-terminal state (queued/admitted/running) — the jobs a crash cut
	// mid-flight, which the daemon's recovery policy must resolve. A job an
	// older version logged as done with its artefact in a job directory is
	// among them: its finish entry carries no files, so it is not applied.
	Interrupted []string
	// MaxSeq is the highest numeric suffix among job-%06d IDs, so a daemon
	// reopening the store can resume its ID sequence without collisions.
	MaxSeq int64
	// TornTail reports that the log ended in a partial line (a crash landed
	// mid-append); the fragment was dropped and truncated away.
	TornTail bool
}

// commit stamps, logs and applies one entry: the live path and replay
// share applyLocked, so a replayed ledger cannot diverge from the one that
// was running. Called with s.mu held.
func (s *Store) commit(e walEntry, sync bool) {
	e.At = time.Now().UTC()
	s.appendWAL(e, sync)
	s.applyLocked(e)
}

// appendWAL writes one entry to the log and, for an entry a client can have
// been told about, fsyncs it (which also makes every unsynced entry before
// it durable). A nil s.wal (in-memory store) is a no-op.
func (s *Store) appendWAL(e walEntry, sync bool) {
	if s.wal == nil {
		return
	}
	buf, err := json.Marshal(e)
	if err != nil {
		panic(fmt.Sprintf("store: wal entry marshal cannot fail: %v", err))
	}
	buf = append(buf, '\n')
	if _, err := s.wal.Write(buf); err != nil {
		panic(fmt.Sprintf("store: wal append: %v", err))
	}
	if !sync {
		return
	}
	if err := s.wal.Sync(); err != nil {
		panic(fmt.Sprintf("store: wal fsync: %v", err))
	}
}

// replayWAL reads root/wal.jsonl, applies every valid entry to the empty
// store and truncates a torn tail. Returns the replay summary.
func (s *Store) replayWAL() (Replay, error) {
	var rep Replay
	path := filepath.Join(s.root, walFile)
	buf, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		buf = nil
	} else if err != nil {
		return rep, err
	}

	good := 0 // byte offset of the end of the last valid line
	for off := 0; off < len(buf); {
		nl := bytes.IndexByte(buf[off:], '\n')
		if nl < 0 {
			rep.TornTail = true // no terminator: the append was cut mid-line
			break
		}
		line := buf[off : off+nl]
		var e walEntry
		if len(bytes.TrimSpace(line)) != 0 {
			if err := json.Unmarshal(line, &e); err != nil {
				// An unparseable line and everything after it is
				// unreliable; recover the valid prefix.
				rep.TornTail = true
				break
			}
			// A done job's bytes ride its finish entry. One without them was
			// logged by a version that kept artefacts in job directories no
			// code reads any more: leave the job unfinished, so that recovery
			// re-runs it (results are deterministic) or crash-fails it.
			orphaned := e.Op == "finish" && e.State == Done && e.Artefact == e.ID && e.Files == nil
			if !orphaned {
				s.applyLocked(e)
			}
			rep.Entries++
		}
		off += nl + 1
		good = off
	}
	if rep.TornTail {
		if err := os.Truncate(path, int64(good)); err != nil {
			return rep, fmt.Errorf("store: truncating torn wal tail: %w", err)
		}
	}

	for _, id := range s.order {
		r := s.jobs[id]
		rep.Records++
		if r.State.Terminal() {
			rep.Terminal++
		} else {
			rep.Interrupted = append(rep.Interrupted, id)
		}
		var n int64
		if _, err := fmt.Sscanf(id, "job-%d", &n); err == nil && n > rep.MaxSeq {
			rep.MaxSeq = n
		}
	}
	return rep, nil
}

// applyLocked applies one WAL entry to the in-memory ledger, using the
// logged timestamps so replayed records are verbatim copies of the
// pre-crash history. Unknown ops and entries for unknown IDs are ignored
// (forward compatibility over strictness: a ledger that loads with one
// record fewer beats a daemon that cannot boot).
func (s *Store) applyLocked(e walEntry) {
	switch e.Op {
	case "create":
		if _, dup := s.jobs[e.ID]; dup {
			return
		}
		r := &Record{ID: e.ID, Key: e.Key, Class: e.Class, Spec: append([]byte(nil), e.Spec...),
			Cached: e.Cached, ArtefactID: e.Artefact}
		s.jobs[e.ID] = r
		s.order = append(s.order, e.ID)
		s.advanceLocked(r, e.State, e.Note, e.At)
	case "advance":
		if r, ok := s.jobs[e.ID]; ok {
			s.advanceLocked(r, e.State, e.Note, e.At)
		}
	case "finish":
		if r, ok := s.jobs[e.ID]; ok {
			r.Error = e.Error
			r.ArtefactID = e.Artefact
			r.Cached = r.Cached || e.Cached
			if e.Files != nil {
				s.artefacts[e.ID] = e.Files
			}
			s.advanceLocked(r, e.State, e.Note, e.At)
		}
	case "cached":
		if r, ok := s.jobs[e.ID]; ok {
			r.Cached = true
			r.ArtefactID = e.Artefact
		}
	case "delete":
		s.deleteLocked(e.ID)
	}
}
