//go:build go1.23

package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
)

// Proc is a simulated process: a coroutine that advances simulated time by
// blocking on the engine. The executor wakes it with a direct goroutine
// switch (iter.Pull) and gets control back the same way when it parks, so a
// hand-off never passes through the Go scheduler. All Proc methods must be
// called from the process's own coroutine (that is, from within the function
// passed to Spawn).
type Proc struct {
	eng  *Engine
	name string
	pid  int

	// next and stop are the executor's side of the coroutine: next runs the
	// process until it parks or finishes, stop makes a parked process's
	// yield report false (and a never-started one never run). yield is the
	// process's side. Only one of the two sides ever runs at a time.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool

	started   bool
	done      bool
	daemon    bool
	blockedOn string // human-readable reason, for deadlock reports

	// wakeFn is the method value p.wake, captured once at spawn so that
	// wakers (Sleep, fluids, condition variables) schedule it without
	// allocating a fresh closure per wakeup.
	wakeFn func()
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

// SpawnAt creates a process that will begin executing fn at simulated time
// start (which must be >= now). The process counts as live until fn returns.
func (e *Engine) SpawnAt(start Time, name string, fn func(*Proc)) *Proc {
	return e.spawn(start, name, false, fn)
}

func (e *Engine) spawn(start Time, name string, daemon bool, fn func(*Proc)) *Proc {
	p := &Proc{eng: e, name: name, pid: e.nextPID, daemon: daemon}
	p.wakeFn = p.wake
	e.nextPID++
	e.procs = append(e.procs, p)
	if !daemon {
		e.liveProc.Add(1)
	}
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			p.retire()
			// Terminate unwinds a parked process with procKilled (deferred
			// cleanup has already run by now); swallow exactly that. Any
			// other panic travels on through the pull and resurfaces from
			// next on the goroutine that is running the engine — a switch
			// of goroutines that would lose this stack, so it goes along.
			if r := recover(); r != nil {
				if _, ok := r.(procKilled); !ok {
					panic(&ProcPanic{Proc: p.name, Value: r, Stack: debug.Stack()})
				}
			}
		}()
		fn(p)
	})
	e.Schedule(start, func() {
		p.started = true
		p.wake()
	})
	return p
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

// retire marks the process finished and settles the live count. It runs
// once per process: on the coroutine when fn returns or unwinds, or from
// Terminate for a process whose start event never fired.
func (p *Proc) retire() {
	p.done = true
	if !p.daemon {
		p.eng.liveProc.Add(-1)
	}
}

// wake switches to the process and returns when it parks again or finishes;
// a panic in the process resurfaces here, on the goroutine running the
// engine.
func (p *Proc) wake() { p.next() }

// park returns control to the executor until the process is woken.
// reason is recorded for deadlock diagnostics. Once Terminate has stopped
// the process, yield reports false — at the parked call and at every later
// one, so cleanup that blocks during the unwind is cut short the same way.
func (p *Proc) park(reason string) {
	p.blockedOn = reason
	if !p.yield(struct{}{}) {
		panic(procKilled{})
	}
	p.blockedOn = ""
}

// Engine returns the engine this process belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// PID returns the unique process id.
func (p *Proc) PID() int { return p.pid }

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.eng.now }

// Sleep suspends the process for simulated duration d (d <= 0 yields at the
// current time, running after already-scheduled same-time events).
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		d = 0
	}
	p.eng.Schedule(p.eng.now+d, p.wakeFn)
	p.park("sleep")
}

// Yield reschedules the process at the current time behind pending events.
func (p *Proc) Yield() { p.Sleep(0) }
