//go:build go1.23

package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
	"slices"
)

// Proc is a simulated process: a coroutine that advances simulated time by
// blocking on the engine. It runs on a worker (a goroutine the engine
// reuses from process to process); the executor wakes it with a direct
// goroutine switch (iter.Pull) and gets control back the same way when it
// parks, so a hand-off never passes through the Go scheduler — and when the
// process's own wake-up is the next event, it does not switch at all (see
// park). All Proc methods must be called from the process's own coroutine
// (that is, from within the function passed to Spawn).
type Proc struct {
	eng  *Engine
	name string
	pid  int
	fn   func(*Proc)
	w    *worker // bound by the start event

	started   bool
	done      bool
	daemon    bool
	blockedOn string // human-readable reason, for deadlock reports
}

// worker is a coroutine that runs processes one after another: when one
// finishes it goes idle, and the next process to start takes it over with
// the stack it has grown. next and stop are the executor's side — next runs
// the bound process until it parks or finishes, stop makes its yield report
// false — and yield is the process's side. Only one side runs at a time.
type worker struct {
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	p     *Proc // the process it runs; nil while idle
}

func (e *Engine) newWorker() *worker {
	w := &worker{}
	w.next, w.stop = iter.Pull(func(yield func(struct{}) bool) {
		w.yield = yield
		for {
			w.p.run()
			w.p = nil
			e.idle = append(e.idle, w)
			if !yield(struct{}{}) {
				return
			}
		}
	})
	return w
}

// ProcPanic is what Run, RunUntil (or, for a panic in deferred cleanup,
// Terminate) panics with when a process panics: the process's own panic
// value, and its stack at that moment, since the panic is re-raised on the
// goroutine running the engine, where a recover can turn it into a failure
// of that one simulation.
type ProcPanic struct {
	Proc  string // name given at Spawn
	Value any    // what the process passed to panic
	Stack []byte // the process's stack when it did
}

func (pp *ProcPanic) Error() string {
	return fmt.Sprintf("sim: process %s panicked: %v\n%s", pp.Proc, pp.Value, pp.Stack)
}

func (e *Engine) spawn(start Time, name string, daemon bool, fn func(*Proc)) *Proc {
	p := &Proc{eng: e, name: name, pid: e.nextPID, daemon: daemon, fn: fn}
	e.nextPID++
	// Forget finished processes once they are most of the table, keeping
	// spawn order. Not while stopped: Terminate may be walking the table,
	// and a cleanup it unwinds may spawn.
	if e.retired > len(e.procs)/2 && !e.stopped.Load() {
		e.procs = slices.DeleteFunc(e.procs, func(q *Proc) bool { return q.done })
		e.retired = 0
	}
	e.procs = append(e.procs, p)
	if !daemon {
		e.liveProc.Add(1)
	}
	e.scheduleWake(start, p)
	return p
}

// run runs the process to its end on its worker. Terminate unwinds a parked
// process with procKilled (deferred cleanup has already run by then);
// exactly that is swallowed. Any other panic travels on through the worker
// and resurfaces from next on the goroutine that is running the engine — a
// switch of goroutines that would lose this stack, so it goes along.
func (p *Proc) run() {
	defer func() {
		p.retire()
		if r := recover(); r != nil {
			if _, ok := r.(procKilled); !ok {
				panic(&ProcPanic{Proc: p.name, Value: r, Stack: debug.Stack()})
			}
		}
	}()
	p.fn(p)
}

// Spawn creates a process starting at the current simulated time.
func (e *Engine) Spawn(name string, fn func(*Proc)) *Proc {
	return e.spawn(e.now, name, false, fn)
}

// SpawnDaemon creates a service process (device engines, kernel worker
// threads) that may block forever without counting as a deadlock: Run
// returns normally when only daemons remain.
func (e *Engine) SpawnDaemon(name string, fn func(*Proc)) *Proc {
	return e.spawn(e.now, name, true, fn)
}

// retire marks the process finished, drops its function (and all it
// captured) and settles the live count. It runs once per process: on its
// worker when fn returns or unwinds, or from Terminate for a process whose
// start event never fired.
func (p *Proc) retire() {
	p.done = true
	p.fn = nil
	p.eng.retired++
	if !p.daemon {
		p.eng.liveProc.Add(-1)
	}
}

// park blocks the process until it is woken; reason is recorded for
// deadlock diagnostics. First it runs the events that come next on its own
// goroutine (runUntilWake): when that reaches its own wake-up the process
// carries on without a switch. Otherwise it yields to the executor. Once
// Terminate has stopped the process, yield reports false — at the parked
// call and at every later one, so cleanup that blocks during the unwind is
// cut short the same way (and, the engine being stopped, runs no event).
func (p *Proc) park(reason string) {
	p.blockedOn = reason
	if !p.eng.runUntilWake(p) && !p.w.yield(struct{}{}) {
		panic(procKilled{})
	}
	p.blockedOn = ""
}

// runUntilWake runs events on parking process p's goroutine, in (at, seq)
// order, and reports whether it reached p's own wake-up, which it takes. It
// stops short — p must yield to the executor — when the next event wakes
// another process (only the executor switches to a process), nothing is
// pending, the next event lies past RunUntil's limit or the engine is
// stopped. A callback's panic is caught and left for the executor, which
// re-raises it once p has yielded: it surfaces raw from Run, with p still
// parked, just as if the callback had run on the executor.
func (e *Engine) runUntilWake(p *Proc) (woken bool) {
	defer func() {
		if r := recover(); r != nil {
			e.cbPanic = r
		}
	}()
	for !e.stopped.Load() {
		next := e.peek()
		if next == nil || (e.limit >= 0 && next.at > e.limit) {
			return false
		}
		if next.fn == nil {
			if next.p != p {
				return false
			}
			e.take()
			return true
		}
		e.take().fn()
	}
	return false
}

// Engine returns the engine this process belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.eng.now }

// Sleep suspends the process for simulated duration d (d <= 0 yields at the
// current time, running after already-scheduled same-time events).
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		d = 0
	}
	p.eng.scheduleWake(p.eng.now+d, p)
	p.park("sleep")
}
