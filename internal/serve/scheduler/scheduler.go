// Package scheduler is knemd's admission controller. Jobs arrive in one of
// two resource classes, each admitted FIFO with one capacity check: sim
// jobs fan out across a bounded worker pool, while rt jobs — whose
// wall-clock numbers are only honest when two rt runs do not share the
// machine — are admitted one at a time. No core is reserved for the rt
// lane: sim jobs may run beside an rt job. The queue is capped;
// submissions beyond the cap are shed with ErrQueueFull so the daemon can
// answer 429 instead of building an unbounded backlog.
//
// The scheduler has no dispatcher goroutine: admission decisions run under
// the lock from Submit, job completion and Cancel, so there is no window
// where capacity sits free while admittable work waits.
package scheduler

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"
)

// Submission errors.
var (
	// ErrQueueFull sheds a submission: the backlog is at capacity.
	ErrQueueFull = errors.New("scheduler: queue full")
	// ErrDraining rejects submissions during graceful shutdown.
	ErrDraining = errors.New("scheduler: draining")
)

// Classes. These mirror serve/api but are redeclared so the scheduler has
// no dependency on the wire layer.
const (
	ClassSim = "sim"
	ClassRT  = "rt"
)

// Config sizes a Scheduler. Zero values select the defaults noted inline.
type Config struct {
	SimWorkers int           // concurrently running sim jobs (default GOMAXPROCS)
	QueueCap   int           // max queued (not yet running) jobs (default 256)
	Deadline   time.Duration // per-job deadline when the job sets none (default none)

	// Lifecycle callbacks (all optional, all invoked without the scheduler
	// lock held): OnAdmit when a job leaves the queue, OnStart just before
	// its Run is entered, OnFinish when Run returns — with the error and
	// whether a cancel had been requested, so the caller can distinguish
	// cancelled from failed.
	OnAdmit  func(id string)
	OnStart  func(id string)
	OnFinish func(id string, err error, cancelRequested bool)
}

// Job is one admissible unit of work.
type Job struct {
	ID       string
	Class    string        // ClassSim | ClassRT
	Deadline time.Duration // 0 = Config.Deadline
	Run      func(ctx context.Context) error
}

type jobState struct {
	job             Job
	cancel          context.CancelFunc // non-nil once admitted
	cancelRequested bool
}

// Stats is a point-in-time scheduler snapshot.
type Stats struct {
	Queued    int
	Running   int
	Submitted int64
	Shed      int64
}

// Scheduler admits, runs, cancels and drains jobs.
type Scheduler struct {
	cfg Config

	mu        sync.Mutex
	cond      *sync.Cond // signalled when a finished job's OnFinish returns (Drain waits on it)
	queue     []*jobState
	running   map[string]*jobState
	finishing int // jobs out of the queue or running set whose OnFinish has not returned
	simRun    int
	rtRun     int
	draining  bool

	submitted int64
	shed      int64
}

// New builds a scheduler from cfg (zero fields defaulted).
func New(cfg Config) *Scheduler {
	if cfg.SimWorkers <= 0 {
		cfg.SimWorkers = runtime.GOMAXPROCS(0) // a sim job is one CPU-bound goroutine
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 256
	}
	s := &Scheduler{
		cfg:     cfg,
		running: make(map[string]*jobState),
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Submit queues a job and admits as much of the backlog as now fits. A
// full queue sheds with ErrQueueFull; a draining scheduler rejects with
// ErrDraining.
func (s *Scheduler) Submit(j Job) error {
	if j.Run == nil {
		return fmt.Errorf("scheduler: job %s has no Run", j.ID)
	}
	switch j.Class {
	case ClassSim, ClassRT:
	default:
		return fmt.Errorf("scheduler: job %s has unknown class %q", j.ID, j.Class)
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return ErrDraining
	}
	s.submitted++
	if len(s.queue) >= s.cfg.QueueCap {
		s.shed++
		s.mu.Unlock()
		return ErrQueueFull
	}
	s.queue = append(s.queue, &jobState{job: j})
	admitted := s.admitLocked()
	s.mu.Unlock()
	s.notifyAdmitted(admitted)
	return nil
}

// admitLocked moves every currently admittable job from the queue to the
// running set and returns them; the caller fires callbacks and goroutines
// after unlocking. Each class is admitted in submission order; a class
// without capacity does not hold up the other.
func (s *Scheduler) admitLocked() []*jobState {
	var admitted []*jobState
	for {
		js := s.pickLocked()
		if js == nil {
			return admitted
		}
		if js.job.Class == ClassRT {
			s.rtRun++
		} else {
			s.simRun++
		}
		s.running[js.job.ID] = js
		admitted = append(admitted, js)
	}
}

// pickLocked removes and returns the oldest queued job whose class has
// capacity — a free sim worker, or no rt job running — or returns nil.
func (s *Scheduler) pickLocked() *jobState {
	for i, js := range s.queue {
		if js.job.Class == ClassRT && s.rtRun > 0 ||
			js.job.Class == ClassSim && s.simRun >= s.cfg.SimWorkers {
			continue
		}
		s.queue = append(s.queue[:i], s.queue[i+1:]...)
		return js
	}
	return nil
}

// notifyAdmitted fires OnAdmit and launches each admitted job.
func (s *Scheduler) notifyAdmitted(admitted []*jobState) {
	for _, js := range admitted {
		if s.cfg.OnAdmit != nil {
			s.cfg.OnAdmit(js.job.ID)
		}
		go s.run(js)
	}
}

func (s *Scheduler) run(js *jobState) {
	deadline := js.job.Deadline
	if deadline == 0 {
		deadline = s.cfg.Deadline
	}
	ctx := context.Background()
	var cancel context.CancelFunc
	if deadline > 0 {
		ctx, cancel = context.WithTimeout(ctx, deadline)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	defer cancel()

	s.mu.Lock()
	js.cancel = cancel
	requested := js.cancelRequested
	s.mu.Unlock()
	if requested {
		cancel() // Cancel raced admission: cut the job before it starts
	}

	if s.cfg.OnStart != nil {
		s.cfg.OnStart(js.job.ID)
	}
	// Last-resort isolation: the daemon's runner converts panics into
	// typed errors itself, but a panic from any other Run must still not
	// take down the scheduler goroutine (and the process with it).
	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("scheduler: job %s panicked: %v", js.job.ID, r)
			}
		}()
		return js.job.Run(ctx)
	}()

	s.mu.Lock()
	if js.job.Class == ClassRT {
		s.rtRun--
	} else {
		s.simRun--
	}
	delete(s.running, js.job.ID)
	s.finishing++
	cancelled := js.cancelRequested
	var admitted []*jobState
	if !s.draining {
		admitted = s.admitLocked()
	}
	s.mu.Unlock()

	s.finish(js.job.ID, err, cancelled)
	s.notifyAdmitted(admitted)
}

// finish fires OnFinish for a job the caller counted in s.finishing under
// the lock, and then uncounts it: Drain returns only once every OnFinish
// has, so a drained daemon's ledger holds no job still marked running.
func (s *Scheduler) finish(id string, err error, cancelled bool) {
	if s.cfg.OnFinish != nil {
		s.cfg.OnFinish(id, err, cancelled)
	}
	s.mu.Lock()
	s.finishing--
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Cancel cancels a job. A queued job is removed and finished immediately
// with context.Canceled; a running job has its context cut and finishes
// when its Run returns. Unknown IDs (including already-finished jobs)
// report false.
func (s *Scheduler) Cancel(id string) bool {
	s.mu.Lock()
	for i, js := range s.queue {
		if js.job.ID == id {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			s.finishing++
			s.mu.Unlock()
			s.finish(id, context.Canceled, true)
			return true
		}
	}
	if js, ok := s.running[id]; ok {
		js.cancelRequested = true
		cancel := js.cancel
		s.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return true
	}
	s.mu.Unlock()
	return false
}

// Drain performs a graceful shutdown: new submissions are rejected, every
// still-queued job is cancelled, and running jobs are left to finish. If
// ctx expires first, the stragglers' contexts are cut and Drain keeps
// waiting for their Runs to return. It returns once every finished job's
// OnFinish has returned.
func (s *Scheduler) Drain(ctx context.Context) {
	s.mu.Lock()
	s.draining = true
	queued := s.queue
	s.queue = nil
	s.mu.Unlock()
	for _, js := range queued {
		if s.cfg.OnFinish != nil {
			s.cfg.OnFinish(js.job.ID, context.Canceled, true)
		}
	}

	done := make(chan struct{})
	go func() {
		s.mu.Lock()
		for len(s.running) > 0 || s.finishing > 0 {
			s.cond.Wait()
		}
		s.mu.Unlock()
		close(done)
	}()
	select {
	case <-done:
		return
	case <-ctx.Done():
	}
	s.mu.Lock()
	for _, js := range s.running {
		js.cancelRequested = true
		if js.cancel != nil {
			js.cancel()
		}
	}
	s.mu.Unlock()
	<-done
}

// Stats snapshots the scheduler.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Queued:    len(s.queue),
		Running:   len(s.running),
		Submitted: s.submitted,
		Shed:      s.shed,
	}
}
