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
// shared-queue arrivals without breaking FIFO. The padding keeps the
// flag's cache line out of the neighbouring boxes' lines.
type fastbox struct {
	state atomic.Uint32 // even: free, odd: full
	_     [60]byte

	seq  uint64
	tag  int
	n    int
	data []byte
	// Round the struct to 192 bytes (a multiple of the 64-byte line) so
	// adjacent boxes in a rank's inbox slice never share a cache line —
	// TestFastboxLineAligned pins the size.
	_ [80]byte
}

// trySend deposits one message if the slot is free. Only the sending
// rank's goroutine may call this for its own (sender→receiver) box.
func (fb *fastbox) trySend(seq uint64, tag int, buf []byte) bool {
	st := fb.state.Load()
	if st&1 != 0 {
		return false // still occupied: fall back to the shared queue
	}
	fb.seq = seq
	fb.tag = tag
	fb.n = len(buf)
	copy(fb.data, buf)
	fb.state.Store(st + 1)
	return true
}
