package sim

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// event is a scheduled callback. Events with equal time fire in the order
// they were scheduled (seq breaks ties), which makes runs deterministic.
type event struct {
	at  Time
	seq uint64
	fn  func()
}

// before orders events by (at, seq); seqs are unique, so this is a total
// order: the engine's execution order.
func (a event) before(b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventQueue is a binary min-heap of events ordered by (at, seq). Events are
// stored by value: scheduling does not heap-allocate per event (the engine's
// hottest allocation site), and popped slots are zeroed so completed
// callbacks are not pinned by the backing array.
//
// Backing arrays come from a package-wide pool (heapPool): experiments and
// knemd jobs create thousands of short-lived engines, so a drained engine
// hands its array back and the next one starts from it instead of growing
// its own from scratch.
type eventQueue []event

var heapPool = sync.Pool{New: func() any {
	s := make([]event, 0, initialEventCap)
	return &s
}}

// release returns the heap's backing array to the pool. Only legal when the
// heap is empty (terminal engine state); the queue is reset to nil and
// re-acquires lazily on the next push.
func (q *eventQueue) release() {
	if cap(*q) == 0 || len(*q) != 0 {
		return
	}
	s := []event((*q)[:0])
	heapPool.Put(&s)
	*q = nil
}

func (q eventQueue) before(i, j int) bool { return q[i].before(q[j]) }

func (q *eventQueue) push(ev event) {
	h := *q
	if h == nil {
		h = *(heapPool.Get().(*[]event))
	}
	if len(h) == cap(h) {
		// Grow by doubling and hand the outgrown backing array back to
		// the pool for another engine instead of leaking it to the GC.
		grown := make([]event, len(h), 2*cap(h))
		copy(grown, h)
		old := []event(h[:0])
		heapPool.Put(&old)
		h = grown
	}
	h = append(h, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.before(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	*q = h
}

func (q *eventQueue) pop() event {
	h := *q
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{}
	h = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && h.before(l, min) {
			min = l
		}
		if r < n && h.before(r, min) {
			min = r
		}
		if min == i {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	*q = h
	return top
}

// initialEventCap pre-sizes the event heap: a typical benchmark stack keeps
// well under this many events in flight, so steady state never grows it.
const initialEventCap = 256

// Domain names the executor an event ran on; it is the third argument of
// SetTrace's observer. There is one executor, so every event reports
// DomainMachine.
type Domain int32

// DomainMachine is the domain of every event.
const DomainMachine Domain = 0

// Engine is a discrete-event simulation executor: it pops events from one
// heap in (at, seq) order and runs them on the calling goroutine.
//
// The zero value is not usable; create engines with NewEngine.
type Engine struct {
	now    Time
	seq    uint64
	events eventQueue

	procs    []*Proc
	liveProc atomic.Int32 // processes that have started and not yet finished
	nextPID  int

	stopped atomic.Bool
	failMu  sync.Mutex
	err     error

	// trace, when set, observes every executed event in execution order.
	trace func(at Time, seq uint64, dom Domain)
}

// NewEngine returns an empty engine at simulated time zero.
func NewEngine() *Engine {
	return &Engine{events: *(heapPool.Get().(*[]event))}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// SetTrace installs an observer called for every executed event with its
// timestamp, sequence number and domain (always DomainMachine), in
// execution order.
func (e *Engine) SetTrace(fn func(at Time, seq uint64, dom Domain)) { e.trace = fn }

// Schedule registers fn to run at absolute simulated time at. Scheduling in
// the past panics: it would violate causality.
func (e *Engine) Schedule(at Time, fn func()) {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	e.seq++
	e.events.push(event{at: at, seq: e.seq, fn: fn})
}

// After registers fn to run d after the current simulated time.
func (e *Engine) After(d Time, fn func()) { e.Schedule(e.now+d, fn) }

// Stop makes Run return after the currently executing event completes.
// Safe to call from another goroutine (a cancellation watcher); note
// RunUntil clears the flag on entry, so a watcher racing a run start must
// re-assert until the run actually returns.
func (e *Engine) Stop() { e.stopped.Store(true) }

// LiveProcs reports the number of non-daemon processes that have been
// spawned and not yet finished. Injected background daemons consult it to
// stop rescheduling once the application is done, so perturbed runs drain.
func (e *Engine) LiveProcs() int { return int(e.liveProc.Load()) }

// procKilled is the sentinel panic that unwinds a parked process during
// Terminate; the spawn wrapper recovers exactly this type.
type procKilled struct{}

// Terminate force-unwinds every process that has not finished. A parked
// process is stopped: its yield reports false, park panics procKilled, the
// deferred cleanup runs on the unwind (anything in it that blocks again is
// cut short the same way) and its goroutine exits. A process whose start
// event has not fired never runs at all. Call it only after Run/RunUntil
// has returned or panicked (every unfinished process is then parked or
// unstarted); afterwards the engine cannot run again, no process goroutine
// is left and LiveProcs is 0.
func (e *Engine) Terminate() {
	e.stopped.Store(true)
	for _, p := range e.procs {
		if p.done {
			continue
		}
		p.stop()
		if !p.done { // never started: nothing ran, so nothing retired it
			p.retire()
		}
	}
}

// StateDump renders the engine's process table for watchdog diagnostics:
// the clock, live/pending counts, and every unfinished process with its
// park reason. Call it from the goroutine that ran the engine, after
// Run/RunUntil has returned and before Terminate, which retires them all.
func (e *Engine) StateDump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sim engine: now=%v live=%d daemons+procs=%d pending events=%d\n",
		e.now, e.liveProc.Load(), len(e.procs), len(e.events))
	for _, p := range e.procs {
		if p.done {
			continue
		}
		state := "not started"
		if p.started {
			state = fmt.Sprintf("blocked on %q", p.blockedOn)
		}
		kind := ""
		if p.daemon {
			kind = " daemon"
		}
		fmt.Fprintf(&b, "  proc %d %s%s: %s\n", p.pid, p.name, kind, state)
	}
	return b.String()
}

// Fail records err and stops the engine. Used by processes to abort a
// simulation from inside.
func (e *Engine) Fail(err error) {
	e.failMu.Lock()
	if e.err == nil {
		e.err = err
	}
	e.failMu.Unlock()
	e.Stop()
}

// Run executes events until the queue is empty, Stop is called, or an error
// is recorded. If the queue drains while processes are still blocked, Run
// returns a deadlock error naming the blocked processes.
func (e *Engine) Run() error {
	return e.RunUntil(-1)
}

// RunUntil executes events with timestamps <= limit (limit < 0 means no
// bound). The simulated clock is left at the last executed event (or at
// limit when the limit cut execution short).
func (e *Engine) RunUntil(limit Time) error {
	e.stopped.Store(false)
	for !e.stopped.Load() && len(e.events) > 0 {
		if limit >= 0 && e.events[0].at > limit {
			e.now = limit
			return e.err
		}
		next := e.events.pop()
		e.now = next.at
		if e.trace != nil {
			e.trace(next.at, next.seq, DomainMachine)
		}
		next.fn()
	}
	if e.err != nil {
		return e.err
	}
	if e.stopped.Load() {
		return nil
	}
	if e.liveProc.Load() > 0 {
		return fmt.Errorf("sim: deadlock at %v: %d process(es) blocked: %s",
			e.now, e.liveProc.Load(), e.blockedNames())
	}
	// Terminal state: hand the drained heap's backing to the pool.
	e.events.release()
	return nil
}

func (e *Engine) blockedNames() string {
	var names []string
	for _, p := range e.procs {
		if p.started && !p.done && !p.daemon {
			names = append(names, fmt.Sprintf("%s[%s]", p.name, p.blockedOn))
		}
	}
	return strings.Join(names, ", ")
}
