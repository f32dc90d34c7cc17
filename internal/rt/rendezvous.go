package rt

import "sync/atomic"

// rendezvous describes one large transfer. Because ranks share the address
// space, the data moves straight from the sender's buffer to the
// receiver's — the single-copy transfer the paper needs a kernel module
// for. The copy is pipelined: the transfer is split into cell-multiple chunks
// claimed through an atomic cursor, so the receiver (under Offload, the
// copy goroutines it starts at CTS) and the sender (which helps while it
// waits — the dual-copy that doubles bandwidth when both sides have a
// core) work on disjoint chunks concurrently. The sender joins at CTS
// when the transfer is larger than the world's spinMin (the host's
// DMAmin), because it spins for CTS; at or below that it parks, and joins
// only if it wakes before the chunks run out.
type rendezvous struct {
	src       []byte
	dst       []byte // published by the receiver at CTS time
	world     *World
	sender    int
	receiver  int
	chunk     int64
	nchunks   int64
	cts       atomic.Bool
	cursor    atomic.Int64 // next chunk index to claim
	done      atomic.Int64 // chunks fully copied
	completed atomic.Bool
}

// rvChunkCells sets the rendezvous copy-chunk size in cells: coarser than
// the eager cells (fewer cursor operations on the copy path) while still
// fine enough that a handful of claimers share a multi-megabyte transfer.
const rvChunkCells = 4

// newRendezvous sizes the chunk schedule for a transfer of buf. Even a
// zero-byte transfer gets one (empty) chunk: completion is signalled by
// the claimer that finishes the last chunk, so there must be at least one.
func newRendezvous(w *World, sender, receiver int, buf []byte) *rendezvous {
	chunk := int64(w.cellBytes) * rvChunkCells
	nchunks := (int64(len(buf)) + chunk - 1) / chunk
	if nchunks == 0 {
		nchunks = 1
	}
	return &rendezvous{
		src: buf, world: w, sender: sender, receiver: receiver,
		chunk:   chunk,
		nchunks: nchunks,
	}
}

// publishCTS exposes the receive buffer to every claimer; with dual-copy on
// it also wakes the sender so it can start claiming chunks (without it the
// sender sleeps until completion).
func (rv *rendezvous) publishCTS(dst []byte) {
	rv.dst = dst
	rv.cts.Store(true)
	if rv.world.senderCopy {
		rv.world.ranks[rv.sender].wakeUp()
	}
}

// claimCopy copies chunks until the cursor is exhausted. Whoever finishes
// the last chunk completes the transfer; claiming nothing is fine (the
// cursor may already be spoken for).
func (rv *rendezvous) claimCopy() {
	n := int64(len(rv.src))
	for {
		i := rv.cursor.Add(1) - 1
		if i >= rv.nchunks {
			return
		}
		off := i * rv.chunk
		end := off + rv.chunk
		if end > n {
			end = n
		}
		copy(rv.dst[off:end], rv.src[off:end])
		if rv.done.Add(1) == rv.nchunks {
			rv.complete()
		}
	}
}

// helpRemaining reports whether a waiting sender has chunks to claim.
func (rv *rendezvous) helpRemaining() bool {
	return rv.cts.Load() && rv.cursor.Load() < rv.nchunks
}

// complete marks the transfer done and wakes both sides.
func (rv *rendezvous) complete() {
	rv.completed.Store(true)
	rv.world.ranks[rv.sender].wakeUp()
	rv.world.ranks[rv.receiver].wakeUp()
}
