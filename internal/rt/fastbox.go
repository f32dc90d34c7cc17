package rt

import "sync/atomic"

// fastboxBytes is the largest message the per-pair fastboxes carry. Small,
// like the paper's fastboxes: the win is skipping the shared queue and the
// envelope for the latency-critical sizes, not moving bulk data.
const fastboxBytes = 1024

// fastbox is a single-slot mailbox for one ordered (sender, receiver)
// pair, the rt analogue of Nemesis' cache-line-sized fastboxes. state is a
// two-phase seqlock counter: even means empty (only the sending rank may
// fill), odd means full (only the receiving rank may drain), and each
// transition increments it. seq carries the message's position in the
// pair's send order so the receiver can merge fastbox arrivals with
// shared-queue arrivals without breaking FIFO.
//
// The header shares the flag's cache line and the payload is inline and
// starts in that same line, so a small message moves only the lines it
// fills. The struct is a whole number of 64-byte lines (1088 bytes, pinned
// by TestFastboxLineAligned), so adjacent boxes in a rank's inbox never
// share one.
type fastbox struct {
	state atomic.Uint32 // even: free, odd: full
	tag   int32         // checkTag bounds tags to 32 bits
	seq   uint64
	n     int
	data  [fastboxBytes]byte
	_     [40]byte
}

// trySend deposits one message if the slot is free. Only the sending
// rank's goroutine may call this for its own (sender→receiver) box.
func (fb *fastbox) trySend(seq uint64, tag int, buf []byte) bool {
	st := fb.state.Load()
	if st&1 != 0 {
		return false // still occupied: fall back to the shared queue
	}
	fb.seq = seq
	fb.tag = int32(tag)
	fb.n = len(buf)
	copy(fb.data[:], buf)
	fb.state.Store(st + 1)
	return true
}
