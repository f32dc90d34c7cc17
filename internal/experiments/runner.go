package experiments

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// DefaultWorkers is the worker-pool width used when an Env leaves Workers
// at zero: one worker per schedulable CPU.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// PanicError is a panic recovered at a job boundary — an experiment case
// here, or a whole service job in knemd's runner — converted into an
// ordinary error carrying the recovered value and the stack at panic time.
// The daemon fails the job with it, once, and quarantines specs that
// produce it repeatedly.
type PanicError struct {
	Value string // fmt.Sprint of the recovered value
	Stack string // debug.Stack() at recovery
}

func (e *PanicError) Error() string { return fmt.Sprintf("panic: %s\n%s", e.Value, e.Stack) }

// Recovered builds a PanicError from a recover() value and the current
// goroutine's stack.
func Recovered(r interface{}) *PanicError {
	return &PanicError{Value: fmt.Sprint(r), Stack: string(debug.Stack())}
}

// guarded runs fn(i), converting a panic into a *PanicError so one hostile
// case fails its sweep instead of killing the process — load-bearing in
// the daemon, where worker goroutines outlive any single job.
func guarded(fn func(i int) error, i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = Recovered(r)
		}
	}()
	return fn(i)
}

// forEach runs jobs 0..n-1 across a pool of workers goroutines. Each
// core.Stack simulation is deterministic and self-contained, so jobs that
// write results into index-addressed slots produce output byte-identical to
// a serial run at any pool width. The first error by job index wins (also
// matching serial semantics); already-started jobs still run to completion.
//
// A done ctx stops further cases from starting (in-flight cases are cut by
// their own ctx-aware engines when the caller threaded ctx into them); the
// returned error then wraps ctx.Err() and records the partial progress.
func forEach(ctx context.Context, workers, n int, fn func(i int) error) error {
	if workers > n {
		workers = n
	}
	var completed atomic.Int64
	finish := func(first error) error {
		if ctxErr := ctx.Err(); ctxErr != nil {
			if first == nil {
				first = ctxErr
			}
			return fmt.Errorf("experiments: cut after %d/%d cases: %w", completed.Load(), n, first)
		}
		return first
	}

	if workers <= 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return finish(nil)
			}
			if err := guarded(fn, i); err != nil {
				return finish(err)
			}
			completed.Add(1)
		}
		return finish(nil)
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = guarded(fn, i)
				if errs[i] == nil {
					completed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return finish(err)
		}
	}
	return finish(nil)
}
