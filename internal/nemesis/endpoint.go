package nemesis

import (
	"fmt"

	"knemesis/internal/hw"
	"knemesis/internal/mem"
	"knemesis/internal/sim"
	"knemesis/internal/topo"
)

// Wildcards for matching: comm's values, so the sim adapter passes them
// through untranslated (nemesis sits below comm and cannot import it; a
// test in mpi pins the two pairs equal). Negative tags other than AnyTag
// are ordinary tags: the collectives' internal tags use them.
const (
	AnySource = -1
	AnyTag    = -1 << 31
)

type pktType int

const (
	pktEager pktType = iota
	pktRTS
	pktCTS
	pktFIN
	pktData // network rendezvous payload (viaNet only)
)

// cell is one shared-memory eager cell, owned by (and returned to) the
// sending rank's free pool.
type cell struct {
	buf   *mem.Buffer
	owner *Endpoint
}

// packet is a queue entry: a 64-byte envelope, optionally referencing an
// eager payload cell.
type packet struct {
	typ    pktType
	src    int
	dst    int
	tag    int
	seq    uint64
	size   int64
	cell   *cell // eager payload
	n      int64 // valid payload bytes in cell
	cookie any   // RTS: LMT cookie
	info   any   // CTS: receiver info

	// Network transport (multi-node clusters). viaNet packets arrive from
	// another node's channel: their payload travels as a host byte slice
	// (address spaces of different nodes overlap, so no simulated copy may
	// span them) and their arrival cost is a NIC line fetch, not a
	// cache-to-cache envelope handoff.
	viaNet bool
	data   []byte
}

// unexpMsg is an arrival with no matching posted receive. Eager entries are
// registered synchronously at dispatch time but become ready only once the
// pump finished staging the payload — receivers matching a not-yet-ready
// entry wait for the ready flag (otherwise a receive posted during the
// staging copy would miss the message forever).
type unexpMsg struct {
	typ    pktType
	src    int
	tag    int
	seq    uint64
	size   int64
	temp   *mem.Buffer // staged eager payload (valid once ready)
	cookie any
	ready  bool
	viaNet bool // RTS arrived over the network (rendezvous pulls via CTS/DATA)
}

// netPull is the receiver side of a network rendezvous awaiting its payload:
// registered before the CTS goes out, resolved when the DATA packet lands.
type netPull struct {
	req  *RecvReq
	vec  mem.IOVec
	src  int
	tag  int
	size int64
}

// SendReq tracks one in-flight send operation.
type SendReq struct {
	ep   *Endpoint
	t    *Transfer
	done bool
}

// Done reports completion (the send buffer is reusable).
func (r *SendReq) Done() bool { return r.done }

// RecvReq tracks one in-flight receive operation.
type RecvReq struct {
	ep      *Endpoint
	src     int
	tag     int
	vec     mem.IOVec
	claimed bool // matched to an arrival; no other packet may claim it
	done    bool

	// Completion information (valid once Done).
	ActualSrc  int
	ActualTag  int
	ActualSize int64
}

// Done reports completion (the data is in the receive buffer).
func (r *RecvReq) Done() bool { return r.done }

// Endpoint is one rank's channel state.
type Endpoint struct {
	Ch    *Channel
	Rank  int
	Core  topo.CoreID
	Space *mem.Space

	queue    []*packet
	activity *sim.Cond

	freeCells []*cell

	posted     []*RecvReq
	unexpected []*unexpMsg

	sendReqs map[uint64]*SendReq

	// Network state (multi-node clusters only).
	netStage *mem.Buffer         // NIC staging ring, lazily allocated
	netPulls map[uint64]*netPull // seq → pending network rendezvous pull

	// Per-destination send sequencing (MPICH's VC send-queue semantics):
	// sendTicket hands out positions at Isend time, sendTurn tracks how
	// many sends to that destination have enqueued their envelope. A send
	// may not enqueue before its turn, so matching order equals program
	// order even when an earlier eager send stalls on cell flow control
	// (otherwise a later RTS could overtake it and break the MPI
	// non-overtaking rule — caught by the cross-engine conformance suite).
	sendTicket map[int]uint64
	sendTurn   map[int]uint64

	// Names of the protocol processes the endpoint spawns, made once: the
	// engine's pid tells two processes of one name apart.
	sendName, recvName, lmtRecvName string
}

func newEndpoint(ch *Channel, rank int, core topo.CoreID) *Endpoint {
	ep := &Endpoint{
		Ch:         ch,
		Rank:       rank,
		Core:       core,
		Space:      ch.M.Mem.NewSpace(fmt.Sprintf("rank%d", rank)),
		activity:   sim.NewCond(ch.M.Eng, fmt.Sprintf("ep%d", rank)),
		sendReqs:   make(map[uint64]*SendReq),
		netPulls:   make(map[uint64]*netPull),
		sendTicket: make(map[int]uint64),
		sendTurn:   make(map[int]uint64),

		sendName:    fmt.Sprintf("r%d.send", rank),
		recvName:    fmt.Sprintf("r%d.recv", rank),
		lmtRecvName: fmt.Sprintf("r%d.lmtrecv", rank),
	}
	for i := 0; i < CellsPerRank; i++ {
		ep.freeCells = append(ep.freeCells, &cell{buf: ch.Shm.Alloc(CellBytes), owner: ep})
	}
	return ep
}

// notify wakes everything blocked on this endpoint (state changed).
func (ep *Endpoint) notify() { ep.activity.Broadcast() }

// waitEvent makes progress: process one queued packet if any, otherwise
// sleep until something happens. Callers loop on their own predicate —
// exactly the shape of a polling MPI progress engine.
func (ep *Endpoint) waitEvent(p *sim.Proc) {
	if len(ep.queue) > 0 {
		ep.pumpOne(p)
		return
	}
	ep.activity.Wait(p)
}

// sendPacket models a lock-free enqueue onto dst's receive queue: CPU cost
// for the atomic queue operation plus the cache-line handoff of the
// envelope (cheap under a shared L2, a snoop round-trip otherwise).
func (ep *Endpoint) sendPacket(p *sim.Proc, pkt *packet) {
	ch := ep.Ch
	ch.validRank(pkt.dst)
	dst := ch.mustLocal(pkt.dst)
	ch.M.LocalDelay(p, ep.Core, ch.M.Params().QueueOpCost)
	ch.M.ControlTransfer(p, ep.Core, dst.Core, 1)
	dst.queue = append(dst.queue, pkt)
	dst.notify()
}

// sendNetPacket hands a packet to the cluster network (non-blocking beyond
// the local doorbell cost); payload is the wire payload size for bandwidth
// accounting (0 for control packets).
func (ep *Endpoint) sendNetPacket(p *sim.Proc, pkt *packet, payload int64) {
	ch := ep.Ch
	ch.validRank(pkt.dst)
	ch.M.LocalDelay(p, ep.Core, ch.M.Params().QueueOpCost)
	ch.cl.sendNet(ep, pkt.dst, pkt, payload)
}

// pumpOne dequeues and dispatches the head packet. Dispatch that depends on
// remote progress is spawned into its own process so the pump never stalls
// on a peer (the single-threaded-progress analogue of MPICH's chunked LMT
// state machines).
func (ep *Endpoint) pumpOne(p *sim.Proc) {
	ch := ep.Ch
	pkt := ep.queue[0]
	ep.queue = ep.queue[1:]
	ch.M.LocalDelay(p, ep.Core, ch.M.Params().QueueOpCost)
	if pkt.viaNet {
		// The envelope was written by the NIC, not a peer core: fetching
		// it is a plain cache miss, with no cross-core handoff.
		ch.M.LocalDelay(p, ep.Core, ch.M.Params().MemLatency)
	} else {
		ch.M.ControlTransfer(p, ch.mustLocal(pkt.src).Core, ep.Core, 1)
	}

	switch pkt.typ {
	case pktEager:
		ep.dispatchEager(p, pkt)
	case pktRTS:
		ep.dispatchRTS(p, pkt)
	case pktData:
		pull, ok := ep.netPulls[pkt.seq]
		if !ok {
			panic(fmt.Sprintf("nemesis: DATA for unknown pull seq %d at rank %d", pkt.seq, ep.Rank))
		}
		delete(ep.netPulls, pkt.seq)
		ep.netDeliver(p, pull.vec, pkt.data)
		pull.req.complete(ep, pull.src, pull.tag, pull.size)
	case pktCTS:
		req, ok := ep.sendReqs[pkt.seq]
		if !ok {
			panic(fmt.Sprintf("nemesis: CTS for unknown send seq %d at rank %d", pkt.seq, ep.Rank))
		}
		req.t.ctsInfo = pkt.info
		req.t.ctsSeen = true
		ep.notify()
	case pktFIN:
		req, ok := ep.sendReqs[pkt.seq]
		if !ok {
			panic(fmt.Sprintf("nemesis: FIN for unknown send seq %d at rank %d", pkt.seq, ep.Rank))
		}
		req.t.senderDone = true
		ep.notify()
	}
}

// matchPosted returns the first posted receive matching (src, tag), or nil.
func (ep *Endpoint) matchPosted(src, tag int) *RecvReq {
	for _, r := range ep.posted {
		if r.claimed {
			continue
		}
		if (r.src == AnySource || r.src == src) && (r.tag == AnyTag || r.tag == tag) {
			return r
		}
	}
	return nil
}

func (ep *Endpoint) removePosted(req *RecvReq) {
	for i, r := range ep.posted {
		if r == req {
			ep.posted = append(ep.posted[:i], ep.posted[i+1:]...)
			return
		}
	}
}

// matchUnexpected returns and removes the first unexpected arrival matching
// (src, tag), preserving arrival order.
func (ep *Endpoint) matchUnexpected(src, tag int) *unexpMsg {
	for i, u := range ep.unexpected {
		if (src == AnySource || src == u.src) && (tag == AnyTag || tag == u.tag) {
			ep.unexpected = append(ep.unexpected[:i], ep.unexpected[i+1:]...)
			return u
		}
	}
	return nil
}

// completeRecv finalizes a receive request.
func (req *RecvReq) complete(ep *Endpoint, src, tag int, size int64) {
	req.ActualSrc = src
	req.ActualTag = tag
	req.ActualSize = size
	req.done = true
	ep.notify()
}

// returnCell hands an eager cell back to its owner's free pool; the
// returning core pays the queue operation and line handoff.
func (ep *Endpoint) returnCell(p *sim.Proc, c *cell) {
	ch := ep.Ch
	ch.M.LocalDelay(p, ep.Core, ch.M.Params().QueueOpCost)
	ch.M.ControlTransfer(p, ep.Core, c.owner.Core, 1)
	c.owner.freeCells = append(c.owner.freeCells, c)
	c.owner.notify()
}

// dispatchEager handles an arriving eager packet: deliver into a matching
// posted receive, or stage into a temp buffer (the unexpected-message copy
// real MPI implementations pay).
func (ep *Endpoint) dispatchEager(p *sim.Proc, pkt *packet) {
	ch := ep.Ch
	if pkt.viaNet {
		ep.dispatchNetEager(p, pkt)
		return
	}
	if req := ep.matchPosted(pkt.src, pkt.tag); req != nil {
		req.claimed = true
		ep.removePosted(req)
		if pkt.n > req.vec.TotalLen() {
			panic(fmt.Sprintf("nemesis: eager message of %d bytes overflows %d-byte receive",
				pkt.n, req.vec.TotalLen()))
		}
		if pkt.n > 0 {
			ep.copyIn(p, req.vec, mem.Region{Buf: pkt.cell.buf, Off: 0, Len: pkt.n})
		}
		ep.returnCell(p, pkt.cell)
		req.complete(ep, pkt.src, pkt.tag, pkt.n)
		return
	}
	// Unexpected: register the arrival synchronously (so receives posted
	// while we stage cannot miss it), then stage the payload into a temp
	// buffer so the (finite) cell pool is not held.
	u := &unexpMsg{typ: pktEager, src: pkt.src, tag: pkt.tag, seq: pkt.seq, size: pkt.n}
	ep.unexpected = append(ep.unexpected, u)
	temp := ep.Space.Alloc(pkt.n)
	if pkt.n > 0 {
		ch.M.CopyRange(p, ep.Core, mem.Region{Buf: temp, Off: 0, Len: pkt.n},
			mem.Region{Buf: pkt.cell.buf, Off: 0, Len: pkt.n}, hw.CopyOpts{})
	}
	ep.returnCell(p, pkt.cell)
	u.temp = temp
	u.ready = true
	ep.notify()
}

// dispatchNetEager handles an eager message that arrived over the network:
// its payload is already in pkt.data, so delivery is a NIC unstage into the
// matched receive (or a temp buffer when unexpected).
func (ep *Endpoint) dispatchNetEager(p *sim.Proc, pkt *packet) {
	if req := ep.matchPosted(pkt.src, pkt.tag); req != nil {
		req.claimed = true
		ep.removePosted(req)
		if pkt.n > req.vec.TotalLen() {
			panic(fmt.Sprintf("nemesis: eager message of %d bytes overflows %d-byte receive",
				pkt.n, req.vec.TotalLen()))
		}
		ep.netDeliver(p, req.vec.SliceInto(nil, 0, pkt.n), pkt.data)
		req.complete(ep, pkt.src, pkt.tag, pkt.n)
		return
	}
	u := &unexpMsg{typ: pktEager, viaNet: true, src: pkt.src, tag: pkt.tag, seq: pkt.seq, size: pkt.n}
	ep.unexpected = append(ep.unexpected, u)
	temp := ep.Space.Alloc(pkt.n)
	var tv mem.IOVec
	if pkt.n > 0 {
		tv = mem.IOVec{{Buf: temp, Off: 0, Len: pkt.n}}
	}
	ep.netDeliver(p, tv, pkt.data)
	u.temp = temp
	u.ready = true
	ep.notify()
}

// copyIn copies src into the first src.Len bytes of dst as the
// endpoint's core: an eager payload (a cell, or the temp an unexpected one
// was staged in) delivered into the receive vector.
func (ep *Endpoint) copyIn(p *sim.Proc, dst mem.IOVec, src mem.Region) {
	var win [4]mem.Region
	ep.copyVec(p, dst.SliceInto(win[:0], 0, src.Len), mem.IOVec{src})
}

// copyVec copies src into dst (equal lengths) as the endpoint's core.
func (ep *Endpoint) copyVec(p *sim.Proc, dst, src mem.IOVec) {
	mem.OverlayEach(dst, src, 0, func(pair mem.RegionPair) {
		ep.Ch.M.CopyRange(p, ep.Core, pair.Dst, pair.Src, hw.CopyOpts{})
	})
}
