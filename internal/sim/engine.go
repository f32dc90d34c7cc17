package sim

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// event is a scheduled callback or process wake-up. Events with equal time
// fire in the order they were scheduled (seq breaks ties), which makes runs
// deterministic.
type event struct {
	at  Time
	seq uint64
	fn  func()
	p   *Proc // fn == nil: the event resumes (or starts) p
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

// Engine is a discrete-event simulation executor: it runs events in
// (at, seq) order, the callbacks itself and the process wake-ups by
// switching to the process. A process that parks runs the callbacks that
// come next on its own goroutine, up to its own wake-up (Proc.park), so
// most hand-offs switch no goroutine at all.
//
// Events due later than now wait in a binary heap; events scheduled for now
// go to a FIFO. Every heap event due now was scheduled before the clock
// reached now, every FIFO event after, so (at, seq) order is: the heap's
// events due now, then the FIFO, then the clock advances. No tie can
// reorder, and a zero-delay event never touches the heap.
//
// The zero value is not usable; create engines with NewEngine.
type Engine struct {
	now    Time
	seq    uint64
	events eventQueue // heap, ordered by (at, seq)
	fifo   eventQueue // events scheduled at now for now, from fifo[head] on
	head   int
	limit  Time // bound of the running RunUntil (< 0: none)

	procs    []*Proc      // in spawn order; finished ones are dropped in batches
	retired  int          // finished processes still in procs
	liveProc atomic.Int32 // processes that have started and not yet finished
	nextPID  int
	idle     []*worker // coroutines whose process finished, for reuse
	switches int       // executor → process switches, for tests

	// cbPanic is a callback's panic caught on a parking process's
	// goroutine, for the executor to re-raise.
	cbPanic any

	stopped atomic.Bool

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
// execution order. It may run on a process's goroutine (see Proc.park), one
// goroutine at a time.
func (e *Engine) SetTrace(fn func(at Time, seq uint64, dom Domain)) { e.trace = fn }

// Schedule registers fn to run at absolute simulated time at. Scheduling in
// the past panics: it would violate causality.
func (e *Engine) Schedule(at Time, fn func()) { e.push(event{at: at, fn: fn}) }

// scheduleWake resumes (or, before it has started, starts) p at time at.
func (e *Engine) scheduleWake(at Time, p *Proc) { e.push(event{at: at, p: p}) }

func (e *Engine) push(ev event) {
	if ev.at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", ev.at, e.now))
	}
	e.seq++
	ev.seq = e.seq
	if ev.at > e.now {
		e.events.push(ev)
		return
	}
	if e.fifo == nil {
		e.fifo = *(heapPool.Get().(*[]event))
	}
	e.fifo = append(e.fifo, ev)
}

// fifoFirst reports whether the FIFO holds the next event: it is not empty
// and no heap event is due now.
func (e *Engine) fifoFirst() bool {
	return e.head < len(e.fifo) && (len(e.events) == 0 || e.events[0].at != e.now)
}

// peek returns the next event in (at, seq) order, or nil if none is pending.
func (e *Engine) peek() *event {
	if e.fifoFirst() {
		return &e.fifo[e.head]
	}
	if len(e.events) == 0 {
		return nil
	}
	return &e.events[0]
}

// take removes the event peek returns, advances the clock to it and traces
// it.
func (e *Engine) take() event {
	var ev event
	if e.fifoFirst() {
		ev = e.fifo[e.head]
		e.fifo[e.head] = event{}
		if e.head++; e.head == len(e.fifo) {
			e.fifo, e.head = e.fifo[:0], 0
		}
	} else {
		ev = e.events.pop()
		e.now = ev.at
	}
	if e.trace != nil {
		e.trace(ev.at, ev.seq, DomainMachine)
	}
	return ev
}

// pending reports the number of scheduled events not yet run.
func (e *Engine) pending() int { return len(e.events) + len(e.fifo) - e.head }

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
// Terminate; Proc.run recovers exactly this type.
type procKilled struct{}

// Terminate force-unwinds every process that has not finished. A parked
// process is stopped: its yield reports false, park panics procKilled, the
// deferred cleanup runs on the unwind (anything in it that blocks again is
// cut short the same way, and runs no event) and its goroutine exits. A
// process whose start event has not fired never runs at all. Call it only
// after Run/RunUntil has returned or panicked (every unfinished process is
// then parked or unstarted); afterwards the engine cannot run again, no
// process goroutine is left (idle ones included) and LiveProcs is 0.
func (e *Engine) Terminate() {
	e.stopped.Store(true)
	for _, p := range e.procs {
		if p.done {
			continue
		}
		if p.started {
			p.w.stop()
		}
		if !p.done { // never started: nothing ran, so nothing retired it
			p.retire()
		}
	}
	e.stopIdle()
}

// stopIdle ends the goroutines of the workers waiting for a process.
func (e *Engine) stopIdle() {
	for _, w := range e.idle {
		w.stop()
	}
	clear(e.idle)
	e.idle = e.idle[:0]
}

// StateDump renders the engine's process table for watchdog diagnostics:
// the clock, live/pending counts (daemons+procs counts every unfinished
// process, daemons included), and every unfinished process with its park
// reason. Call it from the goroutine that ran the engine, after
// Run/RunUntil has returned and before Terminate, which retires them all.
func (e *Engine) StateDump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sim engine: now=%v live=%d daemons+procs=%d pending events=%d\n",
		e.now, e.liveProc.Load(), len(e.procs)-e.retired, e.pending())
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

// Run executes events until the queue is empty or Stop is called. If the
// queue drains while processes are still blocked, Run returns a deadlock
// error naming the blocked processes.
func (e *Engine) Run() error {
	return e.RunUntil(-1)
}

// RunUntil executes events with timestamps <= limit (limit < 0 means no
// bound). The simulated clock is left at the last executed event (or at
// limit when the limit cut execution short).
func (e *Engine) RunUntil(limit Time) error {
	e.stopped.Store(false)
	e.limit = limit
	for !e.stopped.Load() {
		next := e.peek()
		if next == nil {
			break
		}
		if limit >= 0 && next.at > limit {
			e.now = max(e.now, limit) // never back: the FIFO's events are due at now
			return nil
		}
		if ev := e.take(); ev.fn != nil {
			ev.fn()
		} else {
			e.resume(ev.p)
		}
	}
	if e.stopped.Load() {
		return nil
	}
	if e.liveProc.Load() > 0 {
		return fmt.Errorf("sim: deadlock at %v: %d process(es) blocked: %s",
			e.now, e.liveProc.Load(), e.blockedNames())
	}
	// Terminal state: hand the drained queues' backing to the pool and end
	// the idle workers' goroutines.
	e.events.release()
	e.fifo.release()
	e.stopIdle()
	return nil
}

// resume switches to p — binding it to a worker first if this is its start
// event — and returns when p parks or finishes. A panic in p resurfaces here
// as a *ProcPanic; a callback's that p ran while parking, raw.
func (e *Engine) resume(p *Proc) {
	if p.done { // its worker may be running another process by now
		return
	}
	if !p.started {
		p.started = true
		if n := len(e.idle); n > 0 {
			p.w = e.idle[n-1]
			e.idle[n-1] = nil
			e.idle = e.idle[:n-1]
		} else {
			p.w = e.newWorker()
		}
		p.w.p = p
	}
	e.switches++
	p.w.next()
	if r := e.cbPanic; r != nil {
		e.cbPanic = nil
		panic(r)
	}
}

// blockedNames lists the blocked non-daemon processes for a deadlock
// report, each with its pid: protocol processes of one kind share a name.
func (e *Engine) blockedNames() string {
	var names []string
	for _, p := range e.procs {
		if p.started && !p.done && !p.daemon {
			names = append(names, fmt.Sprintf("proc %d %s[%s]", p.pid, p.name, p.blockedOn))
		}
	}
	return strings.Join(names, ", ")
}
