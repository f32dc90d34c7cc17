package store

import "sync"

// LogRecorder keeps every byte written through the WAL handle it wraps and
// the byte offset each completed fsync made durable.
type LogRecorder struct {
	logFile
	mu    sync.Mutex
	buf   []byte
	syncs []int
}

func (r *LogRecorder) Write(p []byte) (int, error) {
	r.mu.Lock()
	r.buf = append(r.buf, p...)
	r.mu.Unlock()
	return r.logFile.Write(p)
}

// Sync records the length of the log when the fsync started: every byte
// written by then is durable once it returns.
func (r *LogRecorder) Sync() error {
	r.mu.Lock()
	off := len(r.buf)
	r.mu.Unlock()
	if err := r.logFile.Sync(); err != nil {
		return err
	}
	r.mu.Lock()
	r.syncs = append(r.syncs, off)
	r.mu.Unlock()
	return nil
}

// Synced returns the log offset the last completed fsync made durable.
func (r *LogRecorder) Synced() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.syncs) == 0 {
		return 0
	}
	return r.syncs[len(r.syncs)-1]
}

// Log returns a copy of every byte written so far and the offset of every
// completed fsync, in completion order.
func (r *LogRecorder) Log() ([]byte, []int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]byte(nil), r.buf...), append([]int(nil), r.syncs...)
}

// RecordLog wraps the store's WAL handle in a LogRecorder.
func (s *Store) RecordLog() *LogRecorder {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := &LogRecorder{logFile: s.wal}
	s.wal = r
	return r
}
