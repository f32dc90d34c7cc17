package kernel

// Fixtures of the package's own tests.

// Buffered reports queued bytes.
func (pp *Pipe) Buffered() int64 {
	var n int64
	for _, s := range pp.segs {
		n += s.data.Len
	}
	return n
}

// Stop ends the worker once the jobs queued before it have run.
func (kt *KThread) Stop() { kt.jobs.Put(nil) }
