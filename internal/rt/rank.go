package rt

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"knemesis/internal/comm"
)

// Matching wildcards: comm's, so the engine adapter passes them through.
const (
	AnySource = comm.AnySource
	AnyTag    = comm.AnyTag
)

// Status describes a completed receive.
type Status struct {
	Source int
	Tag    int
	N      int
}

// Request is an in-flight operation. Its methods must be called from the
// owning rank's goroutine. Requests are pooled per rank: Wait retires the
// request back to the pool, so a request must be waited exactly once (Send
// and Recv do this for you). gen counts retirements so engine adapters can
// tell a recycled request from the operation they issued.
type Request struct {
	owner  *Rank
	isSend bool
	ready  atomic.Bool
	rv     *rendezvous // rendezvous being waited on (may be nil)
	st     Status
	dst    []byte // posted receive buffer
	src    int    // posted receive matching
	tag    int
	gen    uint32

	pseq  uint64   // post order, decides exact-vs-wildcard priority
	mlink *Request // bucket / wildcard list link (match.go)
}

// Done reports completion without blocking (it makes one progress pass).
func (r *Request) Done() bool {
	r.owner.drain()
	return r.completed()
}

func (r *Request) completed() bool {
	if r.ready.Load() {
		return true
	}
	if r.rv != nil && r.rv.completed.Load() {
		r.ready.Store(true)
		return true
	}
	return false
}

// stream is the per-sender reassembly state of one cell-streamed oversized
// eager message (see msgKind). At most one stream per sender can be open:
// continuation segments follow their head contiguously in the pair's send
// order, which admit replays faithfully.
type stream struct {
	req *Request // delivering straight into a matched receive buffer
	m   *message // or buffering into an unexpected entry's data
	off int
	n   int
}

// Rank is one participant; all methods must be called from its goroutine.
type Rank struct {
	w    *World
	rank int

	q     msgQueue // shared lock-free receive queue (all senders)
	freeq msgQueue // envelope pool: anyone pushes, only this rank pops

	inbox   []fastbox // inbox[src]: single-slot mailbox per sender
	sendSeq []uint64  // next sequence number per destination
	recvSeq []uint64  // next expected sequence number per sender
	streams []stream

	posted  postQ
	unexp   unexpQ
	reqFree []*Request

	// sleeping is loaded by every sender to this rank, so it sits on a
	// cache line of its own, away from the owner-written fields around it.
	_        [64]byte
	sleeping atomic.Bool
	_        [64]byte
	wake     chan struct{}

	collSeq int

	// Message counters, owner goroutine only: RunCtx folds them into the
	// World's stats once the ranks have joined. The sender counts its
	// eager, fastbox, cross-node and rendezvous messages and its eager
	// bytes; the receiver counts a rendezvous's bytes when it matches.
	eagerMsgs, fastboxMsgs, netMsgs, rndvMsgs, bytesMoved int64

	// recvOps counts posted receives: the delayed-recv perturbation's
	// deterministic per-op RNG counter (owner goroutine only).
	recvOps uint64
	// minted counts envelopes this rank has allocated (owner goroutine
	// only; read post-join by World.EnvelopeAudit).
	minted int

	// Watchdog diagnostics, readable from any goroutine while the rank
	// runs (see World.StateDump).
	postedN    atomic.Int32
	unexpN     atomic.Int32
	parkReason atomic.Int32
}

func newRank(w *World, rank, n int) *Rank {
	r := &Rank{w: w, rank: rank, wake: make(chan struct{}, 1)}
	r.q.init()
	r.freeq.init()
	r.inbox = make([]fastbox, n)
	r.sendSeq = make([]uint64, n)
	r.recvSeq = make([]uint64, n)
	r.streams = make([]stream, n)
	r.posted.exact = make(map[uint64]*postBucket)
	r.unexp.exact = make(map[uint64]*msgBucket)
	return r
}

// ID returns this rank's index.
func (r *Rank) ID() int { return r.rank }

// Size returns the world size.
func (r *Rank) Size() int { return len(r.w.ranks) }

// World returns the owning world.
func (r *Rank) World() *World { return r.w }

// getReq takes a request from the rank's pool.
func (r *Rank) getReq(isSend bool) *Request {
	var req *Request
	if n := len(r.reqFree); n > 0 {
		req = r.reqFree[n-1]
		r.reqFree = r.reqFree[:n-1]
	} else {
		req = &Request{owner: r}
	}
	req.isSend = isSend
	return req
}

// putReq retires a completed request back to the pool.
func (r *Rank) putReq(req *Request) {
	req.gen++
	req.rv = nil
	req.dst = nil
	req.mlink = nil
	req.st = Status{} // a recycled send must not report its predecessor's status
	req.ready.Store(false)
	r.reqFree = append(r.reqFree, req)
}

// wakeUp unparks the rank's goroutine if it is (about to be) sleeping.
func (r *Rank) wakeUp() {
	if r.sleeping.Load() {
		select {
		case r.wake <- struct{}{}:
		default:
		}
	}
}

// Queue-depth-counted wrappers around the matching structures: the
// watchdog's state dump reads the counters from outside the rank's
// goroutine, so the depths live in atomics beside the unsynchronized
// queues themselves.

func (r *Rank) postRecv(req *Request) {
	r.posted.add(req)
	r.postedN.Add(1)
}

func (r *Rank) matchPosted(src, tag int) *Request {
	req := r.posted.match(src, tag)
	if req != nil {
		r.postedN.Add(-1)
	}
	return req
}

func (r *Rank) unexpAdd(m *message) {
	r.unexp.add(m)
	r.unexpN.Add(1)
}

func (r *Rank) unexpTake(src, tag int) *message {
	m := r.unexp.take(src, tag)
	if m != nil {
		r.unexpN.Add(-1)
	}
	return m
}

// checkCancel panics the rank out of the run when the world has been
// cancelled — called at every point a rank can spin or block.
func (r *Rank) checkCancel() {
	if r.w.cancelled.Load() {
		panic(cancelPanic{})
	}
}

// sleep blocks the rank for d of wall-clock time, unwinding early if the
// world is cancelled meanwhile (the perturbation delay hooks ride on it).
func (r *Rank) sleep(d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-r.w.cancelc:
		panic(cancelPanic{})
	}
}

// push delivers an envelope to this rank (called by senders).
func (r *Rank) push(m *message) {
	r.q.Push(m)
	r.wakeUp()
}

// hasPending reports whether the rank has unprocessed arrivals: queued
// envelopes or a fastbox holding the next expected message of its pair.
func (r *Rank) hasPending() bool {
	if !r.q.Empty() {
		return true
	}
	for src := range r.inbox {
		fb := &r.inbox[src]
		if fb.state.Load()&1 == 1 && fb.seq == r.recvSeq[src] {
			return true
		}
	}
	return false
}

// park blocks until something wakes the rank. The pre-sleep re-check
// covers every wake source — queued envelopes, consumable fastboxes, and
// the waited request's own completion or help work — closing the lost-wake
// race between a completer reading sleeping=false and this rank sleeping.
func (r *Rank) park(req *Request) {
	r.sleeping.Store(true)
	if r.hasPending() || req.completed() ||
		(r.w.senderCopy && req.rv != nil && req.isSend && req.rv.helpRemaining()) {
		r.sleeping.Store(false)
		return
	}
	reason := parkRecvWait
	switch {
	case req.rv != nil:
		reason = parkRndvWait
	case req.isSend:
		reason = parkSendWait
	}
	r.parkReason.Store(reason)
	select {
	case <-r.wake:
	case <-r.w.cancelc:
		r.sleeping.Store(false)
		r.parkReason.Store(parkNone)
		panic(cancelPanic{})
	}
	r.parkReason.Store(parkNone)
	r.sleeping.Store(false)
}

// drain processes every currently pending arrival: consumable fastboxes
// and queued envelopes, interleaved until neither makes progress.
func (r *Rank) drain() {
	for {
		progressed := false
		for src := range r.inbox {
			for r.pollFastbox(src) {
				progressed = true
			}
		}
		for {
			m := r.q.Pop()
			if m == nil {
				break
			}
			r.admit(m)
			progressed = true
		}
		if !progressed {
			return
		}
	}
}

// pollFastbox consumes the fastbox from src if it holds the pair's next
// expected message. A posted match copies straight from the box into the
// receive buffer — one copy total, the fastbox's cache win; an unexpected
// arrival is staged into a pooled envelope.
func (r *Rank) pollFastbox(src int) bool {
	fb := &r.inbox[src]
	st := fb.state.Load()
	if st&1 == 0 || fb.seq != r.recvSeq[src] {
		return false
	}
	tag, n := int(fb.tag), fb.n
	r.recvSeq[src]++
	if req := r.matchPosted(src, tag); req != nil {
		if n > len(req.dst) {
			panic(fmt.Sprintf("rt: %d-byte message overflows %d-byte receive", n, len(req.dst)))
		}
		req.st = Status{Source: src, Tag: tag, N: n}
		copy(req.dst[:n], fb.data[:n])
		fb.state.Store(st + 1)
		req.ready.Store(true)
		return true
	}
	m := r.getMsg()
	m.kind, m.src, m.tag, m.n, m.seg = mEager, src, tag, n, n
	cell := m.cellBuf(r.w.cellBytes)
	copy(cell[:n], fb.data[:n])
	fb.state.Store(st + 1)
	m.data = cell[:n]
	r.unexpAdd(m)
	return true
}

// admit enforces per-pair FIFO across the two delivery channels: a queued
// envelope may only be dispatched once every earlier message of its pair
// has been. A sequence gap means exactly one older message is sitting in
// the pair's fastbox (the box is single-slot and queue order is FIFO per
// producer), and the fastbox write happened before the queue push, so it
// is already visible.
func (r *Rank) admit(m *message) {
	for m.seq != r.recvSeq[m.src] {
		if !r.pollFastbox(m.src) {
			panic("rt: per-pair sequence gap without a consumable fastbox")
		}
	}
	r.recvSeq[m.src]++
	r.dispatch(m)
}

// dispatch routes one admitted envelope: continuation segments feed their
// open stream, everything else goes through matching.
func (r *Rank) dispatch(m *message) {
	if m.kind == mEagerCont {
		r.streamSegment(m)
		return
	}
	req := r.matchPosted(m.src, m.tag)
	if req == nil {
		r.addUnexpected(m)
		return
	}
	if m.kind == mEagerHead {
		// Stream straight into the matched buffer as segments arrive.
		if m.n > len(req.dst) {
			panic(fmt.Sprintf("rt: %d-byte message overflows %d-byte receive", m.n, len(req.dst)))
		}
		req.st = Status{Source: m.src, Tag: m.tag, N: m.n}
		copy(req.dst[:m.seg], m.data)
		r.streams[m.src] = stream{req: req, off: m.seg, n: m.n}
		release(m)
		return
	}
	r.deliver(m, req)
}

// addUnexpected registers an arrival with no posted match. An oversized
// stream head grows a transient full-size buffer that the continuation
// segments fill; it is dropped at delivery (release never pools it), so
// the cell pool only ever holds exactly-cellBytes cells.
func (r *Rank) addUnexpected(m *message) {
	if m.kind == mEagerHead {
		buf := make([]byte, m.n)
		copy(buf, m.data)
		m.data = buf
		m.got = m.seg
		m.open = true
		r.streams[m.src] = stream{m: m, off: m.seg, n: m.n}
	}
	r.unexpAdd(m)
}

// streamSegment appends one continuation segment to the open stream from
// m.src and completes the message on the last one.
func (r *Rank) streamSegment(m *message) {
	s := &r.streams[m.src]
	switch {
	case s.req != nil:
		copy(s.req.dst[s.off:s.off+m.seg], m.data)
	case s.m != nil:
		copy(s.m.data[s.off:s.off+m.seg], m.data)
		s.m.got = s.off + m.seg
	default:
		panic("rt: continuation segment without an open stream")
	}
	s.off += m.seg
	if s.off == s.n {
		if s.req != nil {
			s.req.ready.Store(true)
		} else {
			s.m.open = false
		}
		*s = stream{}
	}
	release(m)
}

// deliver completes a matched receive and releases the envelope.
func (r *Rank) deliver(m *message, req *Request) {
	if m.n > len(req.dst) {
		panic(fmt.Sprintf("rt: %d-byte message overflows %d-byte receive", m.n, len(req.dst)))
	}
	req.st = Status{Source: m.src, Tag: m.tag, N: m.n}
	switch m.kind {
	case mEager:
		copy(req.dst[:m.n], m.data)
		req.ready.Store(true)
	case mEagerHead:
		// Matched from the unexpected queue: take over what has been
		// buffered; if the stream is still open, redirect it to req.dst.
		copy(req.dst[:m.got], m.data[:m.got])
		if m.open {
			s := &r.streams[m.src]
			s.req, s.m = req, nil
		} else {
			req.ready.Store(true)
		}
	case mRTS:
		rv := m.rv
		r.bytesMoved += int64(m.n)
		req.rv = rv
		rv.publishCTS(req.dst[:m.n])
		if r.w.cfg.Large == Offload {
			// Copy goroutines claim the chunks and exit; completion wakes
			// both sides, and the receiver is free to overlap.
			for range min(int64(r.w.copiers), rv.nchunks) {
				r.w.copyWG.Add(1)
				go func() {
					defer r.w.copyWG.Done()
					rv.claimCopy()
				}()
			}
		} else {
			rv.claimCopy()
		}
	}
	release(m)
}

// checkTag rejects tags outside the 32-bit matching space: the hashed
// buckets key (src, tag) as 32-bit fields, so a wider tag would silently
// alias another bucket instead of never matching.
func checkTag(tag int) {
	if int(int32(tag)) != tag {
		panic(fmt.Sprintf("rt: tag %d outside the 32-bit tag space", tag))
	}
}

// Isend starts a send; the returned request completes when buf is reusable.
func (r *Rank) Isend(dst, tag int, buf []byte) *Request {
	if dst < 0 || dst >= len(r.w.ranks) {
		panic(fmt.Sprintf("rt: send to invalid rank %d", dst))
	}
	checkTag(tag)
	target := r.w.ranks[dst]
	req := r.getReq(true)
	cfg := &r.w.cfg
	// Cross-node pairs have no shared memory: no fastbox, and no
	// single-copy rendezvous out of the sender's buffer — large messages
	// stream through eager cells, one copy per end, like a NIC ring.
	cross := r.w.crossNode(r.rank, dst)
	if cross {
		r.netMsgs++
		if d := cfg.CrossDelay; d != nil {
			if dd := d(len(buf)); dd > 0 {
				r.sleep(dd)
			}
		}
	}
	if cfg.Large == Eager || cross || len(buf) <= cfg.RndvThreshold {
		r.eagerMsgs++
		r.bytesMoved += int64(len(buf))
		seq := r.sendSeq[dst]
		if !cross && len(buf) <= fastboxBytes &&
			target.inbox[r.rank].trySend(seq, tag, buf) {
			r.sendSeq[dst] = seq + 1
			r.fastboxMsgs++
			target.wakeUp()
			req.ready.Store(true)
			return req
		}
		if len(buf) <= r.w.cellBytes {
			m := r.getMsg()
			m.kind, m.src, m.tag, m.n, m.seg, m.seq = mEager, r.rank, tag, len(buf), len(buf), seq
			cell := m.cellBuf(r.w.cellBytes)
			copy(cell[:len(buf)], buf)
			m.data = cell[:len(buf)]
			r.sendSeq[dst] = seq + 1
			target.push(m)
			req.ready.Store(true)
			return req
		}
		// Oversized eager (Eager mode and cross-node sends): pipeline
		// through pooled
		// cells — the paper's double-buffering — instead of one
		// transient full-size buffer per message. The cell budget is
		// bounded like Nemesis' finite cell pool: at most streamWindow
		// segments may mint new envelopes; past that the sender recycles
		// returned ones, progressing its own queue while it waits, so
		// the pipeline's working set stays cache-resident instead of
		// running arbitrarily far ahead of the receiver.
		kind := mEagerHead
		window := streamWindow
		for off := 0; off < len(buf); {
			seg := min(len(buf)-off, r.w.cellBytes)
			m := r.freeq.Pop()
			if m == nil {
				if window > 0 {
					window--
					r.minted++
					m = &message{home: r}
				} else {
					for m == nil {
						r.checkCancel()
						r.drain()
						runtime.Gosched()
						m = r.freeq.Pop()
					}
				}
			}
			m.kind, m.src, m.tag, m.n, m.seg = kind, r.rank, tag, len(buf), seg
			m.seq = r.sendSeq[dst]
			r.sendSeq[dst]++
			cell := m.cellBuf(r.w.cellBytes)
			copy(cell[:seg], buf[off:off+seg])
			m.data = cell[:seg]
			target.push(m)
			off += seg
			kind = mEagerCont
		}
		req.ready.Store(true)
		return req
	}
	// Rendezvous: the buffer stays pinned (referenced) until the chunked
	// copy completes.
	r.rndvMsgs++
	rv := newRendezvous(r.w, r.rank, dst, buf)
	req.rv = rv
	m := r.getMsg()
	m.kind, m.src, m.tag, m.n, m.seg, m.rv = mRTS, r.rank, tag, len(buf), 0, rv
	m.seq = r.sendSeq[dst]
	r.sendSeq[dst]++
	target.push(m)
	return req
}

// Irecv posts a receive into buf.
func (r *Rank) Irecv(src, tag int, buf []byte) *Request {
	if src != AnySource && (src < 0 || src >= len(r.w.ranks)) {
		panic(fmt.Sprintf("rt: receive from invalid rank %d", src))
	}
	checkTag(tag)
	if d := r.w.cfg.RecvDelay; d != nil {
		op := r.recvOps
		r.recvOps++
		if dd := d(r.rank, op); dd > 0 {
			r.sleep(dd)
		}
	}
	req := r.getReq(false)
	req.dst, req.src, req.tag = buf, src, tag
	if m := r.unexpTake(src, tag); m != nil {
		r.deliver(m, req)
		return req
	}
	r.postRecv(req)
	r.drain() // give in-flight arrivals a chance to match immediately
	return req
}

// waitSpins is how many progress passes Wait makes before parking.
const waitSpins = 64

// streamWindow bounds how many in-flight cells one oversized eager send
// may mint before it must recycle returned envelopes (the finite-cell
// flow control Nemesis applies to its shared-memory pool). 16 cells = 1
// MiB in flight by default: enough to amortize the sender/receiver
// handoff, small enough to stay cache-resident.
const streamWindow = 16

// Wait blocks until the request completes, progressing the rank meanwhile
// and retiring the request: each request must be waited exactly once. A
// waiting rendezvous sender claims copy chunks instead of idling (the
// dual-copy half of the pipelined transfer). The spin phase yields the
// processor each pass — on a loaded machine the peer's progress is what
// completes the request, so burning the core bare-spinning (as the first
// version did) only delays it.
func (r *Rank) Wait(req *Request) Status {
	if req.owner != r {
		panic("rt: waiting on another rank's request")
	}
	for spins := 0; ; spins++ {
		r.checkCancel()
		r.drain()
		if req.completed() {
			st := req.st
			r.putReq(req)
			return st
		}
		if rv := req.rv; rv != nil {
			// A rendezvous waiter claims chunks (dual-copy on). Before
			// CTS, a sender above DMAmin yield-spins so that it joins the
			// copy as soon as the receiver publishes it. At or below
			// DMAmin it parks, which leaves most of a copy that size to
			// the receiver, whose cache will read the data; every waiter
			// parks once no chunk is left to claim.
			if r.w.senderCopy && req.isSend && rv.helpRemaining() {
				rv.claimCopy()
				spins = 0
				continue
			}
			if req.isSend && len(rv.src) > r.w.spinMin && !rv.cts.Load() {
				runtime.Gosched()
				continue
			}
			r.park(req)
			continue
		}
		if spins < waitSpins {
			runtime.Gosched()
			continue
		}
		r.park(req)
		spins = 0
	}
}

// Send is the blocking send.
func (r *Rank) Send(dst, tag int, buf []byte) { r.Wait(r.Isend(dst, tag, buf)) }

// Recv is the blocking receive.
func (r *Rank) Recv(src, tag int, buf []byte) Status { return r.Wait(r.Irecv(src, tag, buf)) }

// Sendrecv runs a send and a receive concurrently.
func (r *Rank) Sendrecv(dst, sendTag int, sendBuf []byte, src, recvTag int, recvBuf []byte) Status {
	s := r.Isend(dst, sendTag, sendBuf)
	rr := r.Irecv(src, recvTag, recvBuf)
	r.Wait(s)
	return r.Wait(rr)
}
