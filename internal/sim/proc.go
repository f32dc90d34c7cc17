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
//
// A process is homed on a domain. Machine-homed processes (the default) may
// use every engine primitive; while homed on a lane (between Enter and
// Exit) a process runs its events on that lane's worker — concurrently with
// other lanes under the parallel engine — and may therefore only touch
// lane-local and process-local state: Sleep, Yield, Now and Exit. Shared
// primitives (conditions, fluids, mailboxes, resources, sends) require
// machine residence and panic otherwise.
type Proc struct {
	eng  *Engine
	name string
	pid  int

	// dom is the process's home domain; wake events fire there.
	dom Domain
	// laneCtx is the lane the process is currently executing on (nil in
	// machine context or serial mode). Set by wake before the control
	// transfer, which orders it before the process's next instruction.
	laneCtx *lane

	// next and stop are the executor's side of the coroutine: next runs the
	// process until it parks or finishes, stop makes a parked process's
	// yield report false (and a never-started one never run). yield is the
	// process's side. Only one of the two sides ever runs at a time, and
	// only the executor owning the process's wake event may call next.
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
// a panic in the process resurfaces here. It must be called from the
// executor owning the process's wake event: the engine loop for
// machine-homed processes, the lane worker for lane-homed ones.
func (p *Proc) wake() {
	if p.dom != DomainMachine && !p.eng.serial {
		p.laneCtx = p.eng.lanes[p.dom-1]
	} else {
		p.laneCtx = nil
	}
	p.next()
}

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

// Now returns the current simulated time: the lane-local clock while homed
// on a lane, the machine clock otherwise.
func (p *Proc) Now() Time {
	if lc := p.laneCtx; lc != nil {
		return lc.now
	}
	return p.eng.now
}

// Domain returns the process's current home domain.
func (p *Proc) Domain() Domain { return p.dom }

// requireMachine guards shared-state primitives: they are machine-domain
// only, in both modes (so serial remains the exact reference for parallel).
func (p *Proc) requireMachine(what string) {
	if p.dom != DomainMachine {
		panic(fmt.Sprintf("sim: %s from process %s while homed on a lane (call Exit first)", what, p.name))
	}
}

// Sleep suspends the process for simulated duration d (d <= 0 yields at the
// current time, running after already-scheduled same-time events).
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		d = 0
	}
	if lc := p.laneCtx; lc != nil {
		lc.schedule(p.dom, lc.now+d, p.wakeFn)
		p.park("sleep")
		return
	}
	p.eng.ScheduleDomain(p.dom, p.eng.now+d, p.wakeFn)
	p.park("sleep")
}

// Yield reschedules the process at the current time behind pending events.
func (p *Proc) Yield() { p.Sleep(0) }

// Enter homes the process on lane d. It costs the engine's declared
// lookahead of simulated time — the modeled scheduling-in latency of
// binding a context to its dedicated core — in both modes; that charge is
// what lets the parallel engine run the lane ahead of the machine clock
// without coordination. Must be called from machine residence.
func (p *Proc) Enter(d Domain) {
	p.requireMachine("Enter")
	if d <= 0 || int(d) > len(p.eng.lanes) {
		panic(fmt.Sprintf("sim: Enter on unknown domain %d", d))
	}
	p.dom = d
	p.eng.ScheduleDomain(d, p.eng.now+p.eng.lookahead, p.wakeFn)
	p.park("enter " + p.eng.lanes[d-1].name)
}

// Exit returns the process to machine residence. Like Enter it costs the
// engine's declared lookahead of simulated time — the modeled scheduling-out
// latency of rejoining the shared machine — in both modes; that charge keeps
// the hop at or beyond the parallel engine's round bound, so the machine
// never observes it mid-window. A machine-homed process may call it as a
// no-op.
func (p *Proc) Exit() {
	if p.dom == DomainMachine {
		return
	}
	p.dom = DomainMachine
	if lc := p.laneCtx; lc != nil {
		lc.schedule(DomainMachine, lc.now+p.eng.lookahead, p.wakeFn)
		p.park("exit lane")
		return
	}
	p.eng.ScheduleDomain(DomainMachine, p.eng.now+p.eng.lookahead, p.wakeFn)
	p.park("exit lane")
}
