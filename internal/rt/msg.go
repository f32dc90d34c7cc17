package rt

import "sync/atomic"

type msgKind uint8

const (
	// mEager is a complete eager payload carried in the envelope's cell.
	mEager msgKind = iota
	// mEagerHead opens a cell-streamed oversized eager message (Eager
	// mode): this envelope carries the first cell-sized segment and the
	// total length; mEagerCont envelopes carry the rest. The paper's
	// double-buffering path: large transfers pipelined through fixed
	// cells instead of one transient full-size buffer.
	mEagerHead
	// mEagerCont is a continuation segment of the open stream from src.
	mEagerCont
	// mRTS asks for a rendezvous: the payload descriptor rides in rv.
	mRTS
)

// message is a receive-queue envelope. Envelopes are intrusive (the MPSC
// link is embedded) and pooled per rank: the receiver returns a consumed
// envelope to its home rank's free queue, cell and all, so the steady-state
// eager path allocates nothing — the role Nemesis' shared-memory cell
// allocator plays in the paper.
type message struct {
	qnext atomic.Pointer[message] // MPSC link: receive queue or free pool

	kind msgKind
	src  int
	tag  int
	n    int    // total message length in bytes
	seg  int    // payload bytes carried by this envelope
	seq  uint64 // per-(src,dst) sequence, merges fastbox and queue FIFO

	cell []byte // envelope-owned pooled storage, cap exactly World.cellBytes
	data []byte // payload view: cell[:seg], or a transient oversized buffer
	rv   *rendezvous

	home *Rank // pool this envelope returns to

	// Unexpected-queue links, owned by the receiving rank (see match.go).
	aseq         uint64
	gprev, gnext *message
	bnext        *message
	got          int  // bytes buffered so far (open oversized streams)
	open         bool // stream still arriving
}

// getMsg takes an envelope from the rank's free pool (multi-producer push,
// owner-only pop) or mints a fresh one.
func (r *Rank) getMsg() *message {
	if m := r.freeq.Pop(); m != nil {
		return m
	}
	r.minted++
	return &message{home: r}
}

// cellBuf returns the envelope's cell, allocating it on first use. Cells
// are always exactly World.cellBytes: oversized payloads never enter the
// pool (they ride in message.data and are dropped by release), so
// recycling cannot bloat it.
func (m *message) cellBuf(cellBytes int) []byte {
	if cap(m.cell) < cellBytes {
		m.cell = make([]byte, cellBytes)
	}
	return m.cell[:cellBytes]
}

// release returns a consumed envelope to its home pool. The cell stays
// attached for reuse; everything else — including any transient oversized
// data buffer — is dropped.
func release(m *message) {
	m.data = nil
	m.rv = nil
	m.gprev, m.gnext, m.bnext = nil, nil, nil
	m.got = 0
	m.open = false
	m.home.freeq.Push(m)
}
