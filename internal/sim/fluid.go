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

	// Served accumulates the total units completed (for utilization stats).
	Served float64
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
	f.update()
	f.capacity = c
	f.reschedule()
}

// Active reports the number of in-flight flows.
func (f *Fluid) Active() int { return len(f.flows) }

// epsilon below which a flow counts as complete: less than 0.01 ps of
// service at full capacity. Completion times are rounded up by 1 ps, so
// remaining work at the completion event is always under this bound.
func (f *Fluid) epsilon() float64 { return f.capacity * 1e-14 }

// Start begins a flow of the given amount and returns a handle to wait on.
// A non-positive amount completes immediately.
func (f *Fluid) Start(amount float64) *Flow {
	var fl *Flow
	if n := len(f.freeFlows); n > 0 {
		fl = f.freeFlows[n-1]
		f.freeFlows = f.freeFlows[:n-1]
		*fl = Flow{fluid: f, remaining: amount, amount: amount, waiters: fl.waiters}
	} else {
		fl = &Flow{fluid: f, remaining: amount, amount: amount}
	}
	if amount <= f.epsilon() {
		fl.done = true
		f.Served += amount
		return fl
	}
	f.update()
	f.flows = append(f.flows, fl)
	f.reschedule()
	return fl
}

// Consume runs a flow of the given amount to completion, blocking p.
func (f *Fluid) Consume(p *Proc, amount float64) {
	fl := f.Start(amount)
	fl.Wait(p)
	f.Release(fl)
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
			f.Served += fl.amount
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
	dt := FromSeconds(minRem/rate) + 1 // round up so the flow really finishes
	var t *fluidTick
	if n := len(f.freeTicks); n > 0 {
		t = f.freeTicks[n-1]
		f.freeTicks = f.freeTicks[:n-1]
	} else {
		t = &fluidTick{f: f}
		t.fire = t.run
	}
	t.gen = f.gen
	f.eng.Schedule(f.eng.now+dt, t.fire)
}

// String describes the fluid for diagnostics.
func (f *Fluid) String() string {
	return fmt.Sprintf("fluid %s cap=%.3g active=%d", f.name, f.capacity, len(f.flows))
}
