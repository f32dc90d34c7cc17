package store

import "sync/atomic"

// syncCounter counts the fsyncs that reach the WAL handle it wraps.
type syncCounter struct {
	logFile
	n atomic.Int64
}

func (c *syncCounter) Sync() error {
	c.n.Add(1)
	return c.logFile.Sync()
}

// CountSyncs wraps the store's WAL handle and returns a reader of how many
// fsyncs it has seen since.
func (s *Store) CountSyncs() func() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := &syncCounter{logFile: s.wal}
	s.wal = c
	return c.n.Load
}
