package sim

import "slices"

// Cond is a simulated condition variable. Unlike sync.Cond there is no
// associated mutex: the simulation is sequential, so state changes between
// Wait and Signal cannot race. The usual pattern still applies — waiters
// must re-check their predicate in a loop, because another process may run
// between the signal and the wakeup.
type Cond struct {
	eng        *Engine
	waiters    []*Proc
	first      [1]*Proc // waiters' backing until a second process waits
	label      string
	parkReason string // precomputed "cond <label>", shared by all waiters
}

// NewCond returns a condition variable bound to engine e. The label appears
// in deadlock reports.
func NewCond(e *Engine, label string) *Cond {
	return &Cond{eng: e, label: label, parkReason: "cond " + label}
}

// Wait blocks p until Signal or Broadcast wakes it.
func (c *Cond) Wait(p *Proc) {
	if c.waiters == nil {
		c.waiters = c.first[:0]
	}
	c.waiters = append(c.waiters, p)
	p.park(c.parkReason)
}

// Signal wakes the longest-waiting process, if any. The wakeup is delivered
// as an event at the current time, preserving deterministic ordering.
func (c *Cond) Signal() {
	if len(c.waiters) == 0 {
		return
	}
	c.eng.scheduleWake(c.eng.now, shift(&c.waiters))
}

// shift removes and returns the first element of a non-empty queue by
// moving the rest down: re-slicing from the front would give the backing
// array away an element at a time and make a busy queue reallocate for ever.
func shift[T any](q *[]T) T {
	s := *q
	v := s[0]
	n := copy(s, s[1:])
	clear(s[n:])
	*q = s[:n]
	return v
}

// Broadcast wakes all waiting processes in FIFO order.
func (c *Cond) Broadcast() {
	for _, w := range c.waiters {
		c.eng.scheduleWake(c.eng.now, w)
	}
	c.waiters = c.waiters[:0]
}

// remove takes p off c's waiters, keeping the others' order, and reports
// whether it was there.
func (c *Cond) remove(p *Proc) bool {
	i := slices.Index(c.waiters, p)
	if i < 0 {
		return false
	}
	c.waiters = slices.Delete(c.waiters, i, i+1)
	return true
}

// Mailbox is an unbounded FIFO of items with blocking receive. It is the
// simulation analogue of a Go channel.
type Mailbox[T any] struct {
	items []T
	cond  *Cond
}

// NewMailbox returns an empty mailbox bound to engine e.
func NewMailbox[T any](e *Engine, label string) *Mailbox[T] {
	return &Mailbox[T]{cond: NewCond(e, "mailbox "+label)}
}

// Put appends an item and wakes one waiting receiver.
func (m *Mailbox[T]) Put(v T) {
	m.items = append(m.items, v)
	m.cond.Signal()
}

// Get blocks p until an item is available and returns it.
func (m *Mailbox[T]) Get(p *Proc) T {
	for len(m.items) == 0 {
		m.cond.Wait(p)
	}
	return shift(&m.items)
}

// Len reports the number of queued items.
func (m *Mailbox[T]) Len() int { return len(m.items) }
