package sim

import "fmt"

// Fluid models a capacity shared max-min fairly among concurrent flows
// (processor sharing). It is used for the memory bus (capacity in bytes per
// second shared by all in-flight transfers) and for CPU cores (capacity of
// one CPU-second per second shared by runnable contexts, which is how a
// kernel thread competing with a user process halves both their speeds).
//
// A flow with amount A completes after A/rate seconds where rate is the
// flow's time-varying fair share. Completions are recomputed whenever the
// flow set changes.
type Fluid struct {
	eng        *Engine
	name       string
	parkReason string  // precomputed "fluid <name>", shared by all waiters
	capacity   float64 // units per second
	flows      []*Flow
	last       Time   // time of last remaining-work update
	gen        uint64 // invalidates stale completion events

	// freeFlows holds the flows handed back through Release and freeTicks
	// the completion events that have fired, for reuse: the two per-flow
	// allocations of the simulator's hottest path.
	freeFlows []*Flow
	freeTicks []*fluidTick

	served float64 // total units completed; read through Served
	poll   lazyPoll
	ties   int // settles that fell on a quantum boundary, for tests
}

// lazyPoll is a busy-poller charged lazily (see Poll): while p is parked on
// c, its quanta of fl.amount each take d and end at start + j·d, and the
// first folded of them are already in served. fl is not among the fluid's
// flows. p is nil when no poll is lazy.
type lazyPoll struct {
	p      *Proc
	c      *Cond
	fl     *Flow
	start  Time
	d      Time
	folded int64
}

// Flow is one in-flight demand on a Fluid. Create flows with Fluid.Start.
type Flow struct {
	fluid     *Fluid
	remaining float64
	done      bool
	waiters   []*Proc
	amount    float64
}

// NewFluid returns a fluid resource with the given capacity in units/second.
func NewFluid(e *Engine, name string, capacity float64) *Fluid {
	if capacity <= 0 {
		panic("sim: fluid capacity must be positive")
	}
	return &Fluid{eng: e, name: name, parkReason: "fluid " + name, capacity: capacity}
}

// Capacity returns the configured capacity in units per second.
func (f *Fluid) Capacity() float64 { return f.capacity }

// SetCapacity changes the capacity mid-run (a perturbed core or degraded
// link). Elapsed service is charged at the old rate first, then in-flight
// flows are rescheduled at the new one.
func (f *Fluid) SetCapacity(c float64) {
	if c <= 0 {
		panic("sim: fluid capacity must be positive")
	}
	f.interrupt()
	f.update()
	f.capacity = c
	f.reschedule()
}

// Active reports the number of in-flight flows, a lazy poller's included.
func (f *Fluid) Active() int {
	if f.poll.p != nil {
		return len(f.flows) + 1
	}
	return len(f.flows)
}

// Served returns the total units completed (for utilization stats),
// counting every quantum a lazy poller has finished by now.
func (f *Fluid) Served() float64 {
	f.fold()
	return f.served
}

// epsilon below which a flow counts as complete: less than 0.01 ps of
// service at full capacity. Completion times are rounded up by 1 ps, so
// remaining work at the completion event is always under this bound.
func (f *Fluid) epsilon() float64 { return f.capacity * 1e-14 }

// Start begins a flow of the given amount and returns a handle to wait on.
// A non-positive amount completes immediately.
func (f *Fluid) Start(amount float64) *Flow {
	fl := f.newFlow(amount)
	if amount <= f.epsilon() {
		f.fold()
		fl.done = true
		f.served += amount
		return fl
	}
	f.interrupt()
	f.update()
	f.flows = append(f.flows, fl)
	f.reschedule()
	return fl
}

// newFlow returns an unstarted flow of amount, reusing a released one.
func (f *Fluid) newFlow(amount float64) *Flow {
	n := len(f.freeFlows)
	if n == 0 {
		return &Flow{fluid: f, remaining: amount, amount: amount}
	}
	fl := f.freeFlows[n-1]
	f.freeFlows = f.freeFlows[:n-1]
	*fl = Flow{fluid: f, remaining: amount, amount: amount, waiters: fl.waiters}
	return fl
}

// Consume runs a flow of the given amount to completion, blocking p.
func (f *Fluid) Consume(p *Proc, amount float64) {
	fl := f.Start(amount)
	fl.Wait(p)
	f.Release(fl)
}

// Poll busy-polls: it means for !done() { f.Consume(p, amount) }, for a
// done that flips only in an event that broadcasts c. While p's quantum is
// the only flow on f, quantum j ends at exactly start + j·D, where D is what
// Start and reschedule give a lone flow of amount, so p parks on c and f
// keeps {start, D} in place of a tick and a wake per quantum. Three things
// settle the lazy poller into the state the loop would have reached: a Start
// or SetCapacity by another process (the whole quanta are added to Served,
// one amount at a time, and the current one becomes a real flow begun at
// start + k·D) and a read of Served (the whole quanta only). When done flips,
// the current quantum finishes as a real flow whose tick sits on the loop's
// boundary.
//
// Tie rule: anything that happens exactly on a quantum boundary happens
// after that quantum's completion and before p polls again, which is the
// loop's order for every event there except a zero-delay one queued behind
// p's own wake. A done that flips on a boundary therefore ends the poll on
// it.
func (f *Fluid) Poll(p *Proc, amount float64, done func() bool, c *Cond) {
	for !done() {
		d := FromSeconds(amount/f.capacity) + 1
		if len(f.flows) > 0 || f.poll.p != nil || amount <= f.epsilon() ||
			amount-f.capacity*d.Seconds() > f.epsilon() {
			// Not alone, or a lone quantum would not end in one tick
			// (update's arithmetic, exactly): run the loop.
			f.Consume(p, amount)
			continue
		}
		fl := f.newFlow(amount)
		f.poll = lazyPoll{p: p, c: c, fl: fl, start: f.eng.now, d: d}
		for {
			c.Wait(p)
			if f.poll.fl != fl {
				break // settled by another process
			}
			if done() {
				if !f.settle() {
					f.gen++
					f.tick(f.last + d)
				}
				break
			}
		}
		fl.Wait(p)
		f.Release(fl)
	}
}

// fold adds to served the lazy poller's quanta that have ended by now, and
// reports whether now is a quantum boundary (one ends exactly now).
func (f *Fluid) fold() bool {
	lp := &f.poll
	if lp.p == nil {
		return false
	}
	elapsed := f.eng.now - lp.start
	for k := int64(elapsed / lp.d); lp.folded < k; lp.folded++ {
		f.served += lp.fl.amount
	}
	if lp.folded > 0 && elapsed%lp.d == 0 {
		f.ties++
		return true
	}
	return false
}

// settle ends the lazy poll at now in the state the loop would have
// reached, and reports whether now is a quantum boundary. If it is, the
// current quantum has just ended and the poller's flow is done; if not, the
// flow is among f's flows with its last quantum's service due from the
// quantum's start. The caller schedules the tick.
func (f *Fluid) settle() bool {
	lp := &f.poll
	boundary := f.fold()
	if boundary {
		lp.fl.done = true
	} else {
		lp.fl.remaining = lp.fl.amount
		f.last = lp.start + Time(lp.folded)*lp.d
		f.flows = append(f.flows, lp.fl)
	}
	*lp = lazyPoll{}
	return boundary
}

// interrupt settles a lazy poller because another process is about to
// change f's flow set or capacity, and so reschedule. A poller still parked
// on its cond moves to where the loop would have it: onto its flow, or, on a
// boundary, to a wake-up now. The loop's tick for the current quantum goes
// in too, superseded by the caller's reschedule as the loop's is: it fires
// as a no-op, but when the flows then finish before it (a capacity raise,
// or a reschedule's rounding) it is the engine's last event, as in the loop.
func (f *Fluid) interrupt() {
	p, c, fl, d := f.poll.p, f.poll.c, f.poll.fl, f.poll.d
	if p == nil {
		return
	}
	if !f.settle() {
		f.tick(f.last + d)
	}
	switch {
	case !c.remove(p):
		// Already woken by c: Poll waits on fl itself.
	case fl.done: // on a boundary
		f.eng.scheduleWake(f.eng.now, p)
	default:
		fl.waiters = append(fl.waiters, p)
	}
}

// Release hands a flow the caller started on f, has seen complete and will
// not use again back to f, which reuses it for a later Start. A finished
// flow is no longer among f's active flows, so the caller's was the last
// reference. Releasing is optional; it panics on a flow that is still
// running, was started on another fluid or was released before.
func (f *Fluid) Release(fl *Flow) {
	if fl.fluid != f || !fl.done {
		panic("sim: Release of a flow that is unfinished or not held on fluid " + f.name)
	}
	fl.fluid = nil
	f.freeFlows = append(f.freeFlows, fl)
}

// Wait blocks p until the flow completes. Multiple processes may wait on the
// same flow.
func (fl *Flow) Wait(p *Proc) {
	for !fl.done {
		fl.waiters = append(fl.waiters, p)
		p.park(fl.fluid.parkReason)
	}
}

// Done reports whether the flow has completed.
func (fl *Flow) Done() bool { return fl.done }

// update charges elapsed service time against all active flows and retires
// the ones that finished.
func (f *Fluid) update() {
	now := f.eng.now
	if now > f.last && len(f.flows) > 0 {
		dec := (f.capacity / float64(len(f.flows))) * (now - f.last).Seconds()
		for _, fl := range f.flows {
			fl.remaining -= dec
		}
	}
	f.last = now
	eps := f.epsilon()
	live := f.flows[:0]
	for _, fl := range f.flows {
		if fl.remaining <= eps {
			fl.done = true
			f.served += fl.amount
			for _, w := range fl.waiters {
				f.eng.scheduleWake(now, w)
			}
			clear(fl.waiters)
			fl.waiters = fl.waiters[:0]
		} else {
			live = append(live, fl)
		}
	}
	// Zero the tail so retired flows are not pinned by the backing array.
	for i := len(live); i < len(f.flows); i++ {
		f.flows[i] = nil
	}
	f.flows = live
}

// fluidTick is one scheduled completion event: the generation it was
// scheduled under and its callback, bound once. Every tick fires exactly
// once (superseded ones are not unscheduled, they fire and return), so a
// tick goes back on the free list the moment it fires.
type fluidTick struct {
	f    *Fluid
	gen  uint64
	fire func()
}

func (t *fluidTick) run() {
	f, gen := t.f, t.gen
	f.freeTicks = append(f.freeTicks, t)
	if gen != f.gen {
		return // superseded by a later flow-set change
	}
	f.update()
	f.reschedule()
}

// reschedule places a completion event at the earliest flow finish time.
// The generation counter cancels previously scheduled events.
func (f *Fluid) reschedule() {
	f.gen++
	if len(f.flows) == 0 {
		return
	}
	minRem := f.flows[0].remaining
	for _, fl := range f.flows[1:] {
		if fl.remaining < minRem {
			minRem = fl.remaining
		}
	}
	rate := f.capacity / float64(len(f.flows))
	f.tick(f.eng.now + FromSeconds(minRem/rate) + 1) // round up so the flow really finishes
}

// tick schedules a completion event at at under the current generation.
func (f *Fluid) tick(at Time) {
	var t *fluidTick
	if n := len(f.freeTicks); n > 0 {
		t = f.freeTicks[n-1]
		f.freeTicks = f.freeTicks[:n-1]
	} else {
		t = &fluidTick{f: f}
		t.fire = t.run
	}
	t.gen = f.gen
	f.eng.Schedule(at, t.fire)
}

// String describes the fluid for diagnostics.
func (f *Fluid) String() string {
	return fmt.Sprintf("fluid %s cap=%.3g active=%d", f.name, f.capacity, f.Active())
}
