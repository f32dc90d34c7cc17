// Package rt is a real (non-simulated) message-passing runtime between
// goroutines, built the way Nemesis is built. Tiny messages travel through
// per-pair single-slot fastboxes that bypass the shared queue entirely;
// small messages travel eagerly through pooled envelopes whose copy cells
// they own (the double-copy path, allocation-free in steady state); large
// messages use a rendezvous in which the receiver (under Offload,
// per-transfer copy goroutines playing the role of KNEM's kernel thread)
// and the sender claim fixed-size chunks of the transfer concurrently. Because
// goroutines share one address space, the single-copy transfer needs no
// kernel assistance here: rt is the paper's design transplanted to where
// Go can express it natively.
//
// The package is self-contained and usable as a library; the benchmarks at
// the repository root measure its eager-vs-single-copy crossover for real.
package rt

import "sync/atomic"

// msgQueue is an intrusive MPSC queue of message envelopes (Vyukov's
// algorithm, the same shape as the Nemesis lock-free queue): Push is
// wait-free for any number of producers; Pop must be called by a single
// consumer. The link lives inside the message itself (message.qnext), so
// Push allocates nothing — the property Nemesis gets from placing queue
// links in its shared-memory cells. The same link threads a rank's envelope
// free pool, because an envelope is never in both queues at once.
type msgQueue struct {
	head atomic.Pointer[message] // producers swap the head
	tail *message                // consumer-owned
	stub message
}

// init readies the queue (the zero value is not usable: head must point at
// the embedded stub).
func (q *msgQueue) init() {
	q.head.Store(&q.stub)
	q.tail = &q.stub
}

// Push enqueues m. Safe for concurrent producers.
func (q *msgQueue) Push(m *message) {
	m.qnext.Store(nil)
	prev := q.head.Swap(m)
	prev.qnext.Store(m)
}

// Pop dequeues the oldest envelope, or nil when the queue is observably
// empty (a concurrent Push may be mid-flight; callers poll or park, exactly
// like a Nemesis progress loop). Single consumer only. The returned node
// leaves the queue entirely (the embedded stub is re-pushed to close the
// tail), so the envelope is immediately reusable.
func (q *msgQueue) Pop() *message {
	tail := q.tail
	next := tail.qnext.Load()
	if tail == &q.stub {
		if next == nil {
			return nil
		}
		q.tail = next
		tail = next
		next = tail.qnext.Load()
	}
	if next != nil {
		q.tail = next
		return tail
	}
	if q.head.Load() != tail {
		return nil // a push is in flight; try again later
	}
	q.Push(&q.stub)
	next = tail.qnext.Load()
	if next != nil {
		q.tail = next
		return tail
	}
	return nil
}

// Empty reports whether the queue appears empty to the consumer.
func (q *msgQueue) Empty() bool {
	return q.tail == &q.stub && q.tail.qnext.Load() == nil && q.head.Load() == q.tail
}
