package store

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"time"
)

// The write-ahead log is the whole durable store: every mutation appends
// one JSON line to root/wal.jsonl, and nothing else is ever written under
// the root. A job's artefact rides the finish entry of the job that owns
// it, so a record is never done without its bytes. Open replays the log to
// rebuild ledger and artefacts; a torn final line (the crash landed
// mid-append) is detected, dropped and truncated away so the next append
// starts on a clean record boundary. A bad line before the last valid one
// is corruption, not a tear: Open fails and truncates nothing.
//
// Each line is framed: the entry's JSON, a tab and the 8 lowercase hex
// digits of the CRC-32C (Castagnoli) of that JSON. A line whose checksum
// does not match is bad, like one that does not parse, so damage that
// still parses — a flipped bit in a done job's base64 artefact — is caught
// on replay instead of served. Lines without a frame, as versions before
// it wrote them, are read as they are.
//
// Written is not applied. A mutation first writes its entry under the
// ledger mutex (stamp, marshal, write(2), the next log sequence number);
// what readers see is the applied ledger, and an entry reaches it later:
//
//   - Synced ops — create, finish, delete: the entries a client can be
//     told about — are applied only once durable. Get, Wait and List never
//     show an unlogged create or terminal state: for these ops visible
//     means durable.
//   - An advance is written without an fsync of its own (recovery treats
//     queued, admitted and running alike, so losing one changes nothing it
//     decides). It is applied at once if nothing is pending, otherwise in
//     log order behind the pending entries.
//
// Durability is a group commit. A caller waiting for its entry becomes the
// leader if no fsync is in flight: it notes how far the log is written,
// drops the mutex, fsyncs, retakes the mutex, marks everything up to that
// point durable, applies it in log order and wakes the followers. A caller
// that arrives during an fsync waits for it; if its entry was written after
// that fsync started, it leads the next one. Since fsync flushes every byte
// of the file, what survives a crash is always a prefix of the log that
// ends at or after the last completed fsync — after a kill -9 the whole
// log, after a power loss possibly with a torn line.
//
// Write-time decisions — Advance skips a terminal record, the first Finish
// wins, a duplicate Create panics — read the logical state: the applied
// ledger plus the short list of pending entries.
//
// A failed fsync is sticky and, until storage faults have a defined
// behaviour of their own, a panic: the leader and every follower panic with
// the same error, none returns as if its entry were durable, no entry
// still pending is applied, and every later mutation panics too.

// walFile is the ledger log's name under the store root.
const walFile = "wal.jsonl"

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// appendCRC appends the 8 hex digits of body's CRC-32C to dst.
func appendCRC(dst, body []byte) []byte {
	var sum [4]byte
	binary.BigEndian.PutUint32(sum[:], crc32.Checksum(body, castagnoli))
	return hex.AppendEncode(dst, sum[:])
}

// decodeLine parses one log line, framed or not (see the top of this file).
func decodeLine(line []byte) (walEntry, error) {
	var e walEntry
	if n := len(line) - 9; n >= 0 && line[n] == '\t' {
		var want [8]byte
		if !bytes.Equal(line[n+1:], appendCRC(want[:0], line[:n])) {
			return e, errors.New("checksum mismatch")
		}
		line = line[:n]
	}
	return e, json.Unmarshal(line, &e)
}

// logFile is what the store needs of the WAL handle: *os.File in
// production, a recorder or a failing stand-in under test.
type logFile interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// walEntry is one logged mutation. Op selects which fields apply:
//
//	create  ID Key Class Spec State (initial) At
//	        [State done, Cached, Artefact] (written by older versions only)
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

// pendingEntry is a written entry waiting to be applied.
type pendingEntry struct {
	e    walEntry
	lsn  int64
	sync bool
}

// commit writes one entry and, for a synced op, returns once it is durable
// and applied. Called with s.mu held.
func (s *Store) commit(e walEntry, sync bool) {
	lsn := s.writeLocked(e, sync)
	if sync {
		s.awaitLocked(lsn)
	}
}

// writeLocked stamps and logs one entry and returns its log sequence
// number. An in-memory store (nil s.wal) applies the entry at once, and so
// does a log for an advance with nothing pending ahead of it; everything
// else is queued for the group commit.
func (s *Store) writeLocked(e walEntry, sync bool) int64 {
	if s.failed != nil {
		panic(s.failed.Error())
	}
	e.At = time.Now().UTC()
	if s.wal == nil {
		s.applyLocked(e)
		return s.durable
	}
	buf, err := json.Marshal(e)
	if err != nil {
		panic(fmt.Sprintf("store: wal entry marshal cannot fail: %v", err))
	}
	n := len(buf)
	buf = append(appendCRC(append(buf, '\t'), buf[:n]), '\n') // the frame, see the top of this file
	if _, err := s.wal.Write(buf); err != nil {
		panic(fmt.Sprintf("store: wal append: %v", err))
	}
	s.written++
	if !sync && len(s.pending) == 0 {
		s.applyLocked(e)
	} else {
		s.pending = append(s.pending, pendingEntry{e: e, lsn: s.written, sync: sync})
	}
	return s.written
}

// awaitLocked returns once entry lsn is durable and applied, leading an
// fsync itself whenever none is in flight. Called with s.mu held; the
// mutex is dropped for the fsync only.
func (s *Store) awaitLocked(lsn int64) {
	for s.durable < lsn {
		if s.failed != nil {
			panic(s.failed.Error())
		}
		if s.syncing {
			s.synced.Wait()
			continue
		}
		s.syncing = true
		upto, wal := s.written, s.wal
		s.mu.Unlock()
		err := wal.Sync()
		s.mu.Lock()
		s.syncing = false
		if err != nil {
			s.failed = fmt.Errorf("store: wal fsync: %w", err)
		} else {
			s.durable = upto
			s.applyDurableLocked()
		}
		s.synced.Broadcast()
	}
}

// applyDurableLocked applies pending entries in log order up to the first
// synced one that is not yet durable.
func (s *Store) applyDurableLocked() {
	n := 0
	for _, p := range s.pending {
		if p.sync && p.lsn > s.durable {
			break
		}
		s.applyLocked(p.e)
		n++
	}
	rest := copy(s.pending, s.pending[n:])
	clear(s.pending[rest:])
	s.pending = s.pending[:rest]
}

// stateLocked returns a record's logical state, the one it will have once
// every written entry is applied: that of its last pending entry, else
// that of the applied record. The second result is false for an unknown or
// deleted record.
func (s *Store) stateLocked(id string) (State, bool) {
	for i := len(s.pending) - 1; i >= 0; i-- {
		if e := &s.pending[i].e; e.ID == id {
			return e.State, e.Op != "delete"
		}
	}
	if r, ok := s.jobs[id]; ok {
		return r.State, true
	}
	return "", false
}

// replayWAL reads root/wal.jsonl, applies every valid entry to the empty
// store and truncates a torn tail: an unterminated last line, or a bad line
// with no valid entry after it. A bad line followed by a valid entry is an
// error that names the entry and its byte offset, and the file is left
// untouched. Returns the replay summary.
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
	for off, n := 0, 1; off < len(buf); n++ {
		nl := bytes.IndexByte(buf[off:], '\n')
		if nl < 0 {
			rep.TornTail = true // no terminator: the append was cut mid-line
			break
		}
		line := buf[off : off+nl]
		if len(bytes.TrimSpace(line)) != 0 {
			e, err := decodeLine(line)
			if err != nil {
				// A crash cuts only the last append. A bad line with a
				// valid entry after it is corruption, not a torn tail:
				// truncating would drop acknowledged entries, so refuse
				// to open and leave the file as it is.
				if validEntryIn(buf[off+nl+1:]) {
					return rep, fmt.Errorf("store: wal entry %d at byte %d is corrupt and valid entries follow it: %w", n, off, err)
				}
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

// validEntryIn reports whether any line of buf is a valid WAL entry.
func validEntryIn(buf []byte) bool {
	for _, line := range bytes.Split(buf, []byte{'\n'}) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		if _, err := decodeLine(line); err == nil {
			return true
		}
	}
	return false
}

// applyLocked applies one WAL entry to the in-memory ledger, using the
// logged timestamps so replayed records are verbatim copies of the
// pre-crash history. An advance or finish for a record that is already
// terminal is ignored here, on the live path and on replay alike, so a late
// entry (a cancel racing a finish) cannot make them diverge. Unknown ops
// and entries for unknown IDs are ignored (forward compatibility over
// strictness: a ledger that loads with one record fewer beats a daemon that
// cannot boot). An advance that carries a key (a crash-recovery re-queue)
// moves the record to it. Applying the first done finish of a key's
// artefact owner records it in the owner index, in the same critical
// section that makes the done state visible.
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
		if r, ok := s.jobs[e.ID]; ok && !r.State.Terminal() {
			if e.Key != "" {
				r.Key = e.Key
			}
			s.advanceLocked(r, e.State, e.Note, e.At)
		}
	case "finish":
		if r, ok := s.jobs[e.ID]; ok && !r.State.Terminal() {
			r.Error = e.Error
			r.ArtefactID = e.Artefact
			r.Cached = r.Cached || e.Cached
			if e.Files != nil {
				s.artefacts[e.ID] = e.Files
			}
			s.advanceLocked(r, e.State, e.Note, e.At)
			if _, owned := s.owners[r.Key]; e.State == Done && e.Artefact == e.ID && !owned {
				s.owners[r.Key] = e.ID
			}
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
