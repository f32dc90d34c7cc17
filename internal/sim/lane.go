package sim

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Parallel execution: sharded event lanes under a conservative time-window
// barrier (Chandy–Misra–Bryant-style, specialised to this machine model).
//
// Events are partitioned by domain: the machine domain (shared bus, caches,
// coherence directory, kernel and DMA state) executes serially on the
// coordinator in strict (at, seq) order, exactly like the reference engine;
// per-rank lanes execute concurrently on worker goroutines during "rounds".
// A round runs every lane event with key strictly below the safe bound
//
//	bound = min((t0 + lookahead, 0), next machine event key, (limit, max))
//
// where t0 is the globally earliest pending event. Below that bound a lane
// cannot be affected by anything it has not already seen: machine events
// (the only writers of shared state and the only external schedulers onto
// lanes) all lie at or beyond the bound, and crossing a domain edge — a
// machine event entering a lane, a lane event hopping back to the machine —
// always costs at least the declared lookahead of modeled latency, so
// nothing produced during the round can land below the bound either.
//
// Determinism. The serial engine assigns each newly scheduled event the next
// global sequence number at the moment its parent executes, and executes
// events in (at, seq) order; every tie-break, float accumulation and
// artefact follows from that stream. The parallel engine reproduces it
// exactly:
//
//   - During a round each lane executes only its own events and appends an
//     execution log entry per event, recording the Schedule calls it issued
//     (its children) in issue order. A child targeting the lane itself with
//     key below the bound is inserted provisionally into the lane's own heap
//     — ordered after every committed event and after earlier provisional
//     inserts, which is exactly where serial's later-assigned sequence
//     number would place it — so chained same-lane work (a process's
//     back-to-back sleeps) executes within the round.
//   - At the barrier the coordinator merges the per-lane logs by (at, seq),
//     which is the serial execution order, and assigns children their true
//     sequence numbers from the live global counter as each log entry is
//     consumed — the same order serial would have issued them. Provisional
//     entries have their true sequence patched before the merge reaches
//     them (their parent, on the same lane, is always consumed first).
//     Cross-domain children are routed to their target heaps carrying their
//     true sequence numbers.
//
// Cross-domain children must satisfy at >= lane now + lookahead (enforced;
// Proc.Exit charges exactly that), which puts them at or beyond the bound:
// serial executes them after every event the round ran, so assigning their
// descendants' sequence numbers after the barrier matches serial too.
type lane struct {
	dom  Domain
	name string
	eng  *Engine

	events eventQueue
	// now is the lane-local clock (the at of the event being executed);
	// frontier is the highest time the lane has committed to having
	// executed, which future cross-domain scheduling must respect.
	now      Time
	frontier Time

	// Round-scoped state, touched only by the lane's worker during a round
	// and by the coordinator at the barrier.
	boundAt  Time   // exclusive execution bound for the current round
	boundSeq uint64 // .
	log      []logEntry
	kids     []child
	provSeq  uint64 // provisional sequence numbers handed out this round
	provIdx  []int  // provisional id -> log index, built at the barrier
	pos      int    // merge cursor
}

// logEntry records one executed lane event and the range of children it
// scheduled (indices into lane.kids; children of an entry are contiguous
// because only one event executes on a lane at a time).
type logEntry struct {
	at       Time
	seq      uint64 // provisional (>= provBase) until patched at the merge
	kidStart int
	kidEnd   int
}

// child is one Schedule call issued from lane context during a round.
type child struct {
	dom  Domain
	at   Time
	fn   func()
	prov uint64 // provisional seq if inserted into the lane's own heap mid-round
}

// provBase offsets provisional sequence numbers above every real one, so a
// provisional insert orders after all committed events at the same time —
// exactly where its true (later-assigned) sequence number will place it.
const provBase = uint64(1) << 63

// keyLess is the (at, seq) lexicographic order on event keys.
func keyLess(aAt Time, aSeq uint64, bAt Time, bSeq uint64) bool {
	if aAt != bAt {
		return aAt < bAt
	}
	return aSeq < bSeq
}

// schedule records a Schedule call issued from lane context. Same-lane
// children below the round bound are inserted provisionally and execute
// within the round; everything else is committed with its true sequence
// number at the barrier.
func (ln *lane) schedule(d Domain, at Time, fn func()) {
	if at < ln.now {
		panic(fmt.Sprintf("sim: lane %s scheduling event at %v before lane now %v", ln.name, at, ln.now))
	}
	c := child{dom: d, at: at, fn: fn}
	if d != ln.dom {
		if at < ln.now+ln.eng.lookahead {
			panic(fmt.Sprintf("sim: lane %s scheduling cross-domain event at %v, below now %v + lookahead %v",
				ln.name, at, ln.now, ln.eng.lookahead))
		}
	} else if keyLess(at, provBase+ln.provSeq, ln.boundAt, ln.boundSeq) {
		c.prov = provBase + ln.provSeq
		ln.provSeq++
		ln.events.push(event{at: at, seq: c.prov, dom: int32(d), fn: fn})
	}
	ln.kids = append(ln.kids, c)
	ln.log[len(ln.log)-1].kidEnd = len(ln.kids)
}

// run executes every pending lane event with key strictly below the round
// bound, in (at, seq) order, logging each event and its children. Runs on a
// worker goroutine; touches only lane-local and process-local state.
func (ln *lane) run() {
	for len(ln.events) > 0 {
		top := ln.events[0]
		if !keyLess(top.at, top.seq, ln.boundAt, ln.boundSeq) {
			break
		}
		ev := ln.events.pop()
		ln.now = ev.at
		ln.frontier = ev.at
		ln.log = append(ln.log, logEntry{at: ev.at, seq: ev.seq, kidStart: len(ln.kids), kidEnd: len(ln.kids)})
		ev.fn()
	}
}

// runParallel is the lane-sharded execution path. The coordinator
// interleaves serial machine-event execution with parallel lane rounds,
// always advancing the globally least (at, seq) work first.
func (e *Engine) runParallel(limit Time) error {
	for !e.stopped.Load() {
		machTop, haveMach := e.peekMachine()
		laneAt, laneSeq, haveLane := e.peekLanes()
		if !haveMach && !haveLane {
			break
		}
		if haveMach && (!haveLane || machTop.before(event{at: laneAt, seq: laneSeq})) {
			// Machine work is globally least: execute it serially —
			// identical to the reference path, shared state included.
			if limit >= 0 && machTop.at > limit {
				e.now = limit
				return e.err
			}
			next := e.events.pop()
			e.now = next.at
			if e.trace != nil {
				e.trace(next.at, next.seq, Domain(next.dom))
			}
			next.fn()
			continue
		}
		if limit >= 0 && laneAt > limit {
			e.now = limit
			return e.err
		}
		e.laneRound(laneAt, limit)
	}
	// Report the time of the last executed event, wherever it ran.
	for _, ln := range e.lanes {
		if ln.frontier > e.now {
			e.now = ln.frontier
		}
	}
	return e.finish()
}

// peekMachine returns the machine heap's least event without popping it.
func (e *Engine) peekMachine() (event, bool) {
	if len(e.events) == 0 {
		return event{}, false
	}
	return e.events[0], true
}

// peekLanes returns the least (at, seq) over every lane heap.
func (e *Engine) peekLanes() (at Time, seq uint64, ok bool) {
	for _, ln := range e.lanes {
		if len(ln.events) == 0 {
			continue
		}
		top := ln.events[0]
		if !ok || top.before(event{at: at, seq: seq}) {
			at, seq, ok = top.at, top.seq, true
		}
	}
	return at, seq, ok
}

// laneRound runs one conservative window: every eligible lane executes its
// events up to the safe bound concurrently, then the coordinator merges the
// execution logs and commits the scheduled children in serial order.
func (e *Engine) laneRound(t0 Time, limit Time) {
	boundAt, boundSeq := t0+e.lookahead, uint64(0) // exclusive bound
	if machTop, ok := e.peekMachine(); ok && keyLess(machTop.at, machTop.seq, boundAt, boundSeq) {
		// Lane events must stay strictly below the next machine event: it
		// is the earliest point shared state can change.
		boundAt, boundSeq = machTop.at, machTop.seq
	}
	if limit >= 0 && limit < boundAt {
		boundAt, boundSeq = limit, ^uint64(0)
	}

	active := e.roundLanes[:0]
	for _, ln := range e.lanes {
		if len(ln.events) == 0 {
			continue
		}
		top := ln.events[0]
		if keyLess(top.at, top.seq, boundAt, boundSeq) {
			ln.boundAt, ln.boundSeq = boundAt, boundSeq
			active = append(active, ln)
		}
	}
	if len(active) == 0 {
		// The window is too narrow to batch (lookahead zero or unset): run
		// the globally least lane event alone, which is always safe. The
		// engine stays correct but degrades to serialised rounds.
		var best *lane
		for _, ln := range e.lanes {
			if len(ln.events) == 0 {
				continue
			}
			if best == nil || ln.events[0].before(best.events[0]) {
				best = ln
			}
		}
		best.boundAt, best.boundSeq = best.events[0].at, best.events[0].seq+1
		active = append(active, best)
	}
	e.roundLanes = active

	e.runRound(active)
	e.mergeRound(active)
}

// runRound executes the active lanes up to their bounds, on this goroutine
// when there is one and on a worker each otherwise. A process that panics
// resurfaces from ln.run on its lane's worker; the first such panic is
// carried back here, so that Run panics on its caller's goroutine in this
// mode too.
func (e *Engine) runRound(active []*lane) {
	e.roundActive.Store(true)
	defer e.roundActive.Store(false)
	if len(active) == 1 {
		active[0].run()
		return
	}
	var wg sync.WaitGroup
	var procPanic atomic.Pointer[any]
	for _, ln := range active {
		wg.Add(1)
		go func(ln *lane) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					procPanic.CompareAndSwap(nil, &r)
				}
			}()
			ln.run()
		}(ln)
	}
	wg.Wait()
	if r := procPanic.Load(); r != nil {
		panic(*r)
	}
}

// mergeRound replays the round's per-lane execution logs in (at, seq) order
// — the serial execution order — emitting trace records and assigning every
// scheduled child its true sequence number from the live global counter at
// the moment its parent is consumed, exactly as serial execution would.
func (e *Engine) mergeRound(active []*lane) {
	for _, ln := range active {
		if ln.provSeq == 0 {
			continue
		}
		// Map provisional ids to log positions so parents can patch their
		// in-round children's true sequence numbers.
		ln.provIdx = ln.provIdx[:0]
		for int(ln.provSeq) > len(ln.provIdx) {
			ln.provIdx = append(ln.provIdx, -1)
		}
		for i := range ln.log {
			if ln.log[i].seq >= provBase {
				ln.provIdx[ln.log[i].seq-provBase] = i
			}
		}
	}
	for {
		var best *lane
		for _, ln := range active {
			if ln.pos >= len(ln.log) {
				continue
			}
			en := &ln.log[ln.pos]
			if best == nil || keyLess(en.at, en.seq, best.log[best.pos].at, best.log[best.pos].seq) {
				best = ln
			}
		}
		if best == nil {
			break
		}
		en := &best.log[best.pos]
		best.pos++
		if e.trace != nil {
			e.trace(en.at, en.seq, best.dom)
		}
		for i := en.kidStart; i < en.kidEnd; i++ {
			c := &best.kids[i]
			e.seq++
			if c.prov != 0 {
				// Executed (or still pending) within the round on the same
				// lane: give its log entry the true sequence number so the
				// merge orders it exactly as serial did.
				best.log[best.provIdx[c.prov-provBase]].seq = e.seq
				continue
			}
			ev := event{at: c.at, seq: e.seq, dom: int32(c.dom), fn: c.fn}
			if c.dom == DomainMachine {
				if c.at < e.now {
					panic(fmt.Sprintf("sim: lane commit at %v behind machine clock %v", c.at, e.now))
				}
				e.events.push(ev)
				continue
			}
			ln := e.lanes[c.dom-1]
			if c.at < ln.frontier {
				panic(fmt.Sprintf("sim: lane commit at %v behind lane %s frontier %v "+
					"(cross-lane delay below the declared lookahead %v)", c.at, ln.name, ln.frontier, e.lookahead))
			}
			ln.events.push(ev)
		}
	}
	for _, ln := range active {
		ln.log, ln.kids = ln.log[:0], ln.kids[:0]
		ln.pos, ln.provSeq = 0, 0
	}
}
