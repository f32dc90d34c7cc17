package core

import (
	"fmt"

	"knemesis/internal/hw"
	"knemesis/internal/mem"
	"knemesis/internal/nemesis"
	"knemesis/internal/sim"
	"knemesis/internal/topo"
)

// Double-buffering geometry: two slots of 32 KiB, as in the MPICH2 shm LMT
// the paper describes ("this method always results in two copies ... if two
// processors are participating in the transfer, the copies might overlap to
// some degree", §2).
const (
	shmSlotBytes = 32 * 1024
	shmSlots     = 2
)

func init() {
	register(&Backend{Name: DefaultLMT, Info: Info{
		Summary: "shared-memory double-buffering (two copies, §2)",
		Order:   0,
	}, New: func(ch *nemesis.Channel, opt Options) nemesis.LMT {
		return newShmLMT(ch)
	}})
}

// copyRing is the per-connection shared-memory copy buffer. It implements
// stagedPipe: the sender pushes one slot per call, the receiver pulls one,
// with a cache-line control transfer publishing each slot-state flip.
type copyRing struct {
	m      *hw.Machine
	gate   *stageGate // one active transfer per connection ring
	slots  [shmSlots]*mem.Buffer
	full   [shmSlots]bool
	filled [shmSlots]int64 // valid bytes in a full slot
	cond   *sim.Cond

	pushSlot int // next slot the sender fills
	pullSlot int // next slot the receiver drains

	// The transfer's fixed placement: Push always runs on sendCore and
	// publishes to recvCore, Pull the reverse.
	sendCore, recvCore topo.CoreID
}

// Push fills the next free slot from rest and publishes the "slot full" flag
// to the receiver (one cache line).
func (r *copyRing) Push(p *sim.Proc, core topo.CoreID, rest mem.IOVec) int64 {
	slot := r.pushSlot
	for r.full[slot] {
		r.cond.Wait(p)
	}
	n := int64(shmSlotBytes)
	if total := rest.TotalLen(); n > total {
		n = total
	}
	var win [vecScratch]mem.Region
	slotVec := mem.IOVec{{Buf: r.slots[slot], Off: 0, Len: n}}
	mem.OverlayEach(slotVec, rest.SliceInto(win[:0], 0, n), 0, func(pair mem.RegionPair) {
		r.m.CopyRange(p, core, pair.Dst, pair.Src, hw.CopyOpts{})
	})
	r.full[slot] = true
	r.filled[slot] = n
	r.m.ControlTransfer(p, core, r.recvCore, 1)
	r.cond.Broadcast()
	r.pushSlot = (slot + 1) % shmSlots
	return n
}

// Pull drains the next full slot into rest and publishes the "slot free"
// flag back to the sender.
func (r *copyRing) Pull(p *sim.Proc, core topo.CoreID, rest mem.IOVec) int64 {
	slot := r.pullSlot
	for !r.full[slot] {
		r.cond.Wait(p)
	}
	n := r.filled[slot]
	var win [vecScratch]mem.Region
	slotVec := mem.IOVec{{Buf: r.slots[slot], Off: 0, Len: n}}
	mem.OverlayEach(rest.SliceInto(win[:0], 0, n), slotVec, 0, func(pair mem.RegionPair) {
		r.m.CopyRange(p, core, pair.Dst, pair.Src, hw.CopyOpts{})
	})
	r.full[slot] = false
	r.m.ControlTransfer(p, core, r.sendCore, 1)
	r.cond.Broadcast()
	r.pullSlot = (slot + 1) % shmSlots
	return n
}

// shmLMT is the default Nemesis LMT: a double-buffered two-copy pipeline.
// Both the sender and the receiver actively copy for the whole transfer —
// the CPU-utilization and cache-pollution cost the paper sets out to remove.
type shmLMT struct {
	ch    *nemesis.Channel
	rings map[[2]int]*copyRing
}

func newShmLMT(ch *nemesis.Channel) *shmLMT {
	return &shmLMT{ch: ch, rings: make(map[[2]int]*copyRing)}
}

func (l *shmLMT) Name() string { return string(DefaultLMT) }

// Flags: the receiver must allocate the ring, so a CTS carries it back; the
// sender finishes as soon as its last chunk is in the ring (no FIN).
func (l *shmLMT) Flags() (wantsCTS, finCompletes bool) { return true, false }

func (l *shmLMT) InitiateSend(p *sim.Proc, t *nemesis.Transfer) any { return nil }

// PrepareCTS returns the (lazily created, per-ordered-pair) copy ring,
// claimed and reset for this transfer. Claiming may block until an earlier
// transfer through the same ring drains (one active transfer per
// connection copy buffer, as in MPICH's shm LMT).
func (l *shmLMT) PrepareCTS(p *sim.Proc, t *nemesis.Transfer) any {
	key := [2]int{t.SrcRank, t.DstRank}
	r, ok := l.rings[key]
	if !ok {
		r = &copyRing{
			m:    l.ch.M,
			gate: newStageGate(l.ch.M.Eng, fmt.Sprintf("ring-gate%d-%d", t.SrcRank, t.DstRank)),
			cond: sim.NewCond(l.ch.M.Eng, fmt.Sprintf("ring%d-%d", t.SrcRank, t.DstRank)),
		}
		for i := range r.slots {
			r.slots[i] = l.ch.Shm.Alloc(shmSlotBytes)
		}
		l.rings[key] = r
	}
	r.gate.acquire(p)
	for i := range r.full {
		r.full[i] = false
	}
	r.pushSlot, r.pullSlot = 0, 0
	r.sendCore, r.recvCore = t.SenderCore(), t.RecvCore()
	return r
}

// HandleCTS is the sender's copy pump: fill free slots in order.
func (l *shmLMT) HandleCTS(p *sim.Proc, t *nemesis.Transfer, info any) {
	pumpSend(p, info.(*copyRing), t)
}

// Recv is the receiver's pump: drain full slots in order, then hand the
// ring to the next queued transfer.
func (l *shmLMT) Recv(p *sim.Proc, t *nemesis.Transfer, cookie any) {
	// The ring was created in PrepareCTS on this same endpoint.
	r := l.rings[[2]int{t.SrcRank, t.DstRank}]
	pumpRecv(p, r, t)
	r.gate.release()
}
