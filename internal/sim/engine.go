package sim

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
)

// event is a scheduled callback. Events with equal time fire in the order
// they were scheduled (seq breaks ties), which makes runs deterministic.
// dom is the event's domain: 0 is the machine domain (shared bus, caches,
// coherence, kernel state), positive values name per-rank/pair lanes
// created with NewDomain.
type event struct {
	at  Time
	seq uint64
	dom int32
	fn  func()
}

// before orders events by (at, seq); seqs are globally unique so this is a
// total order — the execution order of the serial engine, and the order the
// parallel engine's commits reproduce.
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
// Backing arrays come from a package-wide pool (heapPool): with per-domain
// lane sharding an engine owns one heap per lane, and experiments create
// thousands of short-lived engines, so lanes re-use pooled arrays instead of
// each growing its own from scratch (see BenchmarkLaneHeapSteadyState).
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
		// the pool for another lane instead of leaking it to the GC.
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

// Domain identifies an event lane. Domain 0 is the machine domain: shared
// hardware state (bus bandwidth windows, caches, coherence directory, DMA)
// lives there and its events always execute serially in (at, seq) order.
// Positive domains are per-rank/pair lanes created with NewDomain whose
// events the parallel engine may execute concurrently under the
// conservative-lookahead barrier.
type Domain int32

// DomainMachine is the shared machine domain.
const DomainMachine Domain = 0

// simParEnv lets CI force the execution mode regardless of GOMAXPROCS:
// KNEMESIS_SIM_PAR=1 forces the parallel lane engine, =0 forces serial.
var simParEnv = func() int {
	switch os.Getenv("KNEMESIS_SIM_PAR") {
	case "1":
		return 1
	case "0":
		return 0
	}
	return -1
}()

// Engine is a discrete-event simulation executor.
//
// It runs in one of two modes. Serial mode — the differential reference,
// and the default on GOMAXPROCS=1 — pops every event from one heap in
// (at, seq) order, exactly the pre-lane engine. Parallel mode shards events
// into per-domain lanes executed concurrently under a conservative
// time-window barrier (see lane.go); it is the default when GOMAXPROCS>1
// and produces byte-identical results, gated by the differential tests.
//
// The zero value is not usable; create engines with NewEngine.
type Engine struct {
	now    Time
	seq    uint64
	events eventQueue // machine-domain heap (all domains in serial mode)

	procs    []*Proc
	liveProc atomic.Int32 // processes that have started and not yet finished
	nextPID  int

	stopped atomic.Bool
	failMu  sync.Mutex
	err     error

	// serial selects the reference single-heap execution path.
	serial bool
	// lookahead is the conservative horizon increment: the minimum modeled
	// cross-domain latency. A lane may run every event with at <= t0 +
	// lookahead (t0 = global minimum pending time) without cross-lane
	// coordination, and entering a lane costs lookahead of modeled time in
	// both modes (a scheduling-in latency), which is what makes running
	// ahead safe. See DESIGN.md, "Sharded event lanes".
	lookahead Time
	// lanes[i] hosts Domain(i+1).
	lanes []*lane
	// roundLanes is the reusable scratch list of lanes active in a round.
	roundLanes []*lane
	// roundActive trips the tripwire: machine-domain scheduling (conds,
	// fluids, Spawn) during a parallel lane round means a lane-homed
	// process used a shared-state primitive it must not touch.
	roundActive atomic.Bool
	// trace, when set, observes every executed event. Serial mode calls it
	// in execution order (= (at, seq) order); parallel mode calls it in
	// (at, seq) order within each lane round and machine stretch. Sorting
	// by (at, seq) yields the identical canonical order in both modes —
	// the differential tests' event-ordering gate.
	trace func(at Time, seq uint64, dom Domain)
}

// NewEngine returns an empty engine at simulated time zero. The execution
// mode defaults to serial on GOMAXPROCS=1 and parallel otherwise
// (KNEMESIS_SIM_PAR=0|1 overrides); SetSerial changes it between runs.
func NewEngine() *Engine {
	e := &Engine{events: *(heapPool.Get().(*[]event))}
	switch simParEnv {
	case 1:
		e.serial = false
	case 0:
		e.serial = true
	default:
		e.serial = runtime.GOMAXPROCS(0) == 1
	}
	return e
}

// Now returns the current simulated time. From a lane-homed process use
// Proc.Now, which reads the lane-local clock.
func (e *Engine) Now() Time { return e.now }

// Serial reports whether the engine is in serial (reference) mode.
func (e *Engine) Serial() bool { return e.serial }

// SetSerial selects the execution mode. Flipping it mid-run (between
// RunUntil segments) migrates pending events between the single reference
// heap and the per-domain lane heaps; events keep their (at, seq), so the
// execution order — and every simulation result — is unchanged.
func (e *Engine) SetSerial(serial bool) {
	if serial == e.serial {
		return
	}
	e.serial = serial
	if serial {
		// Merge every lane heap into the reference heap.
		for _, ln := range e.lanes {
			for len(ln.events) > 0 {
				e.events.push(ln.events.pop())
			}
			ln.events.release()
		}
		return
	}
	// Distribute the reference heap onto the lanes.
	var machine eventQueue
	for len(e.events) > 0 {
		ev := e.events.pop()
		if ev.dom == 0 {
			machine.push(ev)
		} else {
			e.lanes[ev.dom-1].events.push(ev)
		}
	}
	e.events.release()
	e.events = machine
	for _, ln := range e.lanes {
		ln.now, ln.frontier = e.now, e.now
	}
}

// NewDomain registers a new event lane (a simulated rank, pair or node) and
// returns its domain. Must be called from machine context (setup or a
// machine-domain event), not from inside a lane.
func (e *Engine) NewDomain(name string) Domain {
	if e.roundActive.Load() {
		panic("sim: NewDomain during a parallel lane round")
	}
	ln := &lane{dom: Domain(len(e.lanes) + 1), name: name, eng: e, now: e.now, frontier: e.now}
	e.lanes = append(e.lanes, ln)
	return ln.dom
}

// SetLookahead declares the minimum modeled cross-domain latency: no domain
// may affect another sooner than this. It bounds how far a lane may run
// ahead of the global clock without coordination, and is charged as the
// modeled latency of entering a lane (Proc.Enter) in both modes.
func (e *Engine) SetLookahead(d Time) {
	if d < 0 {
		panic("sim: negative lookahead")
	}
	e.lookahead = d
}

// Lookahead returns the declared minimum cross-domain latency.
func (e *Engine) Lookahead() Time { return e.lookahead }

// SetTrace installs an observer called for every executed event with its
// timestamp, sequence number and domain. Sorting the records by (at, seq)
// yields a canonical execution order that is identical across modes; the
// differential tests compare exactly that.
func (e *Engine) SetTrace(fn func(at Time, seq uint64, dom Domain)) { e.trace = fn }

// Schedule registers fn to run at absolute simulated time at on the machine
// domain. Scheduling in the past panics: it would violate causality.
func (e *Engine) Schedule(at Time, fn func()) { e.ScheduleDomain(DomainMachine, at, fn) }

// ScheduleDomain registers fn to run at absolute time at on domain d. It
// must be called from machine context; lane-homed processes schedule
// through their Proc (Sleep/Yield/Exit), which routes via the lane outbox.
// Scheduling onto a lane below its frontier panics: the lane has already
// run past that time under the lookahead guarantee.
func (e *Engine) ScheduleDomain(d Domain, at Time, fn func()) {
	if e.roundActive.Load() {
		panic("sim: machine-context Schedule during a parallel lane round " +
			"(a lane-homed process may only Sleep, Yield or Exit)")
	}
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	if d < 0 || int(d) > len(e.lanes) {
		panic(fmt.Sprintf("sim: schedule on unknown domain %d", d))
	}
	e.seq++
	ev := event{at: at, seq: e.seq, dom: int32(d), fn: fn}
	if e.serial || d == DomainMachine {
		e.events.push(ev)
		return
	}
	ln := e.lanes[d-1]
	if at < ln.frontier {
		panic(fmt.Sprintf("sim: scheduling event at %v on lane %s behind its frontier %v "+
			"(cross-domain delay below the declared lookahead %v)", at, ln.name, ln.frontier, e.lookahead))
	}
	ln.events.push(ev)
}

// After registers fn to run d after the current simulated time (machine
// domain).
func (e *Engine) After(d Time, fn func()) { e.Schedule(e.now+d, fn) }

// Stop makes Run return after the currently executing event (or lane round)
// completes. Safe to call from another goroutine (a cancellation watcher);
// note RunUntil clears the flag on entry, so a watcher racing a run start
// must re-assert until the run actually returns.
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
		e.now, e.liveProc.Load(), len(e.procs), e.pendingEvents())
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

// Run executes events until every queue is empty, Stop is called, or an
// error is recorded. If the queues drain while processes are still blocked,
// Run returns a deadlock error naming the blocked processes.
func (e *Engine) Run() error {
	return e.RunUntil(-1)
}

// RunUntil executes events with timestamps <= limit (limit < 0 means no
// bound). The simulated clock is left at the last executed event (or at
// limit when the limit cut execution short).
func (e *Engine) RunUntil(limit Time) error {
	e.stopped.Store(false)
	if e.serial {
		return e.runSerial(limit)
	}
	return e.runParallel(limit)
}

// runSerial is the reference execution path: one heap, strict (at, seq)
// order — byte-for-byte the pre-lane engine.
func (e *Engine) runSerial(limit Time) error {
	for !e.stopped.Load() && len(e.events) > 0 {
		if limit >= 0 && e.events[0].at > limit {
			e.now = limit
			return e.err
		}
		next := e.events.pop()
		e.now = next.at
		if e.trace != nil {
			e.trace(next.at, next.seq, Domain(next.dom))
		}
		next.fn()
	}
	return e.finish()
}

// finish is the shared run epilogue: error and deadlock reporting plus
// returning drained heap backings to the pool at terminal state.
func (e *Engine) finish() error {
	if e.err != nil {
		return e.err
	}
	if !e.stopped.Load() && e.liveProc.Load() > 0 {
		return fmt.Errorf("sim: deadlock at %v: %d process(es) blocked: %s",
			e.now, e.liveProc.Load(), e.blockedNames())
	}
	if !e.stopped.Load() && e.liveProc.Load() == 0 && e.pendingEvents() == 0 {
		e.events.release()
		for _, ln := range e.lanes {
			ln.events.release()
		}
	}
	return nil
}

// pendingEvents counts events across the machine heap and every lane.
func (e *Engine) pendingEvents() int {
	n := len(e.events)
	for _, ln := range e.lanes {
		n += len(ln.events)
	}
	return n
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
