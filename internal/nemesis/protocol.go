package nemesis

import (
	"fmt"

	"knemesis/internal/mem"
	"knemesis/internal/sim"
)

// Isend starts a send of vec to rank dst with the given tag and returns a
// request. The protocol runs in its own process on the sender's core, so
// multiple operations by one rank interleave (and contend for the CPU)
// exactly like a real progress engine's state machines.
func (ep *Endpoint) Isend(dst, tag int, vec mem.IOVec) *SendReq {
	if err := vec.Validate(); err != nil {
		panic(err)
	}
	ep.Ch.validRank(dst)
	req := &SendReq{ep: ep}
	tick := ep.sendTicket[dst]
	ep.sendTicket[dst] = tick + 1
	ep.Ch.M.Eng.Spawn(ep.sendName, func(p *sim.Proc) {
		ep.runSend(p, req, dst, tag, vec, tick)
	})
	return req
}

// Irecv starts a receive matching (src, tag) — wildcards allowed — into vec.
func (ep *Endpoint) Irecv(src, tag int, vec mem.IOVec) *RecvReq {
	if err := vec.Validate(); err != nil {
		panic(err)
	}
	req := &RecvReq{ep: ep, src: src, tag: tag, vec: vec}
	ep.Ch.M.Eng.Spawn(ep.recvName, func(p *sim.Proc) {
		ep.runRecv(p, req)
	})
	return req
}

// Send is the blocking form of Isend.
func (ep *Endpoint) Send(p *sim.Proc, dst, tag int, vec mem.IOVec) {
	ep.Wait(p, ep.Isend(dst, tag, vec))
}

// Recv is the blocking form of Irecv; it returns the completed request for
// its status fields.
func (ep *Endpoint) Recv(p *sim.Proc, src, tag int, vec mem.IOVec) *RecvReq {
	req := ep.Irecv(src, tag, vec)
	ep.Wait(p, req)
	return req
}

// Waiter is anything with request completion semantics.
type Waiter interface{ Done() bool }

// Wait blocks p until the request completes, pumping the endpoint's queue
// meanwhile (a polling progress engine).
func (ep *Endpoint) Wait(p *sim.Proc, req Waiter) {
	for !req.Done() {
		ep.waitEvent(p)
	}
}

// runSend executes the send protocol. tick is the send's per-destination
// position: the envelope may not be enqueued before every earlier send to
// dst has enqueued its own, preserving matching order (see Endpoint).
func (ep *Endpoint) runSend(p *sim.Proc, req *SendReq, dst, tag int, vec mem.IOVec, tick uint64) {
	ch := ep.Ch
	size := vec.TotalLen()
	ch.BytesSent += size

	for ep.sendTurn[dst] != tick {
		ep.waitEvent(p)
	}

	if ch.cl != nil && !ch.isLocal(dst) {
		ep.runNetSend(p, req, dst, tag, vec)
		return
	}

	if ch.lmt == nil || size <= ch.Cfg.EagerMax {
		ep.eagerSend(p, dst, tag, vec)
		ep.bumpSendTurn(dst)
		req.done = true
		ep.notify()
		return
	}

	// Rendezvous via the LMT backend.
	ch.RndvMsgs++
	t := &Transfer{
		Seq:     ch.nextSeq(),
		SrcRank: ep.Rank,
		DstRank: dst,
		Tag:     tag,
		Size:    size,
		SrcVec:  vec,
		Ch:      ch,
	}
	req.t = t
	wantsCTS, finCompletes := ch.lmt.Flags()
	cookie := ch.lmt.InitiateSend(p, t)
	ep.sendReqs[t.Seq] = req
	ep.sendPacket(p, &packet{
		typ: pktRTS, src: ep.Rank, dst: dst, tag: tag, seq: t.Seq, size: size, cookie: cookie,
	})
	ep.bumpSendTurn(dst)

	if wantsCTS {
		for !t.ctsSeen {
			ep.waitEvent(p)
		}
		ch.lmt.HandleCTS(p, t, t.ctsInfo)
	}
	if finCompletes {
		for !t.senderDone {
			ep.waitEvent(p)
		}
	}
	delete(ep.sendReqs, t.Seq)
	req.done = true
	ep.notify()
}

// runNetSend executes the send protocol for an inter-node destination.
// Small messages go eager: the payload rides the envelope's network message.
// Large ones rendezvous (RTS → CTS → DATA) so the wire only carries bytes
// the receiver is ready to land — same shape as the intranode protocol, but
// the data pump is the modelled network, not an LMT backend. Matching order
// is preserved because the envelope (eager or RTS) is enqueued on the
// per-node-pair FIFO connection before the send turn advances.
func (ep *Endpoint) runNetSend(p *sim.Proc, req *SendReq, dst, tag int, vec mem.IOVec) {
	ch := ep.Ch
	net := ch.cl.Net
	size := vec.TotalLen()

	if size <= ch.Cfg.EagerMax {
		net.EagerMsgs++
		data := ep.netCapture(p, vec)
		ep.sendNetPacket(p, &packet{
			typ: pktEager, viaNet: true, src: ep.Rank, dst: dst, tag: tag,
			seq: ch.nextSeq(), size: size, n: size, data: data,
		}, size)
		ep.bumpSendTurn(dst)
		req.done = true
		ep.notify()
		return
	}

	net.RndvMsgs++
	t := &Transfer{
		Seq:     ch.nextSeq(),
		SrcRank: ep.Rank,
		DstRank: dst,
		Tag:     tag,
		Size:    size,
		SrcVec:  vec,
		Ch:      ch,
	}
	req.t = t
	ep.sendReqs[t.Seq] = req
	ep.sendNetPacket(p, &packet{
		typ: pktRTS, viaNet: true, src: ep.Rank, dst: dst, tag: tag, seq: t.Seq, size: size,
	}, 0)
	ep.bumpSendTurn(dst)

	for !t.ctsSeen {
		ep.waitEvent(p)
	}
	data := ep.netCapture(p, vec)
	ep.sendNetPacket(p, &packet{
		typ: pktData, viaNet: true, src: ep.Rank, dst: dst, seq: t.Seq, size: size, n: size, data: data,
	}, size)
	delete(ep.sendReqs, t.Seq)
	req.done = true
	ep.notify()
}

// bumpSendTurn records that the current send to dst has enqueued its
// envelope, releasing the next send in program order.
func (ep *Endpoint) bumpSendTurn(dst int) {
	ep.sendTurn[dst]++
	ep.notify()
}

// eagerSend copies the message through a shared-memory cell (§2's
// double-copy strategy for small messages).
func (ep *Endpoint) eagerSend(p *sim.Proc, dst, tag int, vec mem.IOVec) {
	ch := ep.Ch
	ch.EagerMsgs++
	n := vec.TotalLen()
	if n > CellBytes {
		panic(fmt.Sprintf("nemesis: eager message of %d bytes exceeds cell capacity", n))
	}
	for len(ep.freeCells) == 0 {
		ep.waitEvent(p) // flow control: wait for a cell to come home
	}
	c := ep.freeCells[len(ep.freeCells)-1]
	ep.freeCells = ep.freeCells[:len(ep.freeCells)-1]

	if n > 0 {
		cellVec := mem.IOVec{{Buf: c.buf, Off: 0, Len: n}}
		ep.copyVec(p, cellVec, vec)
	}
	ep.sendPacket(p, &packet{
		typ: pktEager, src: ep.Rank, dst: dst, tag: tag,
		seq: ch.nextSeq(), size: n, cell: c, n: n,
	})
}

// runRecv executes the receive protocol.
func (ep *Endpoint) runRecv(p *sim.Proc, req *RecvReq) {
	// Unexpected arrivals first (arrival order).
	if u := ep.matchUnexpected(req.src, req.tag); u != nil {
		ep.deliverUnexpected(p, u, req)
		return
	}
	ep.posted = append(ep.posted, req)
	for !req.done {
		ep.waitEvent(p)
	}
}

// deliverUnexpected completes a receive from a staged arrival, waiting for
// in-progress staging to finish first.
func (ep *Endpoint) deliverUnexpected(p *sim.Proc, u *unexpMsg, req *RecvReq) {
	for !u.ready {
		ep.waitEvent(p)
	}
	switch u.typ {
	case pktEager:
		if u.size > req.vec.TotalLen() {
			panic(fmt.Sprintf("nemesis: unexpected eager of %d bytes overflows %d-byte receive",
				u.size, req.vec.TotalLen()))
		}
		if u.size > 0 {
			ep.copyIn(p, req.vec, mem.Region{Buf: u.temp, Off: 0, Len: u.size})
		}
		req.complete(ep, u.src, u.tag, u.size)
	case pktRTS:
		if u.viaNet {
			// Registers the pull and answers CTS; the receive completes
			// when the DATA packet lands (pumped by the waiter).
			ep.runNetRecv(p, u.src, u.tag, u.seq, u.size, req)
			return
		}
		ep.runLMTRecv(p, u.src, u.tag, u.seq, u.size, u.cookie, req)
	default:
		panic("nemesis: bad unexpected message type")
	}
}

// dispatchRTS handles an arriving RTS: match a posted receive (spawning the
// LMT pump so the queue pump never blocks on the peer), or park it.
func (ep *Endpoint) dispatchRTS(p *sim.Proc, pkt *packet) {
	if req := ep.matchPosted(pkt.src, pkt.tag); req != nil {
		req.claimed = true
		ep.removePosted(req)
		if pkt.viaNet {
			// Never blocks on the peer: safe to run inline in the pump.
			ep.runNetRecv(p, pkt.src, pkt.tag, pkt.seq, pkt.size, req)
			return
		}
		ep.Ch.M.Eng.Spawn(ep.lmtRecvName, func(lp *sim.Proc) {
			ep.runLMTRecv(lp, pkt.src, pkt.tag, pkt.seq, pkt.size, pkt.cookie, req)
		})
		return
	}
	ep.unexpected = append(ep.unexpected, &unexpMsg{
		typ: pktRTS, src: pkt.src, tag: pkt.tag, seq: pkt.seq, size: pkt.size,
		cookie: pkt.cookie, ready: true, viaNet: pkt.viaNet,
	})
}

// runNetRecv is the receiver side of a network rendezvous: it registers the
// pull, then clears the sender to transmit. The receive completes when the
// DATA packet is pumped (pumpOne's pktData case).
func (ep *Endpoint) runNetRecv(p *sim.Proc, src, tag int, seq uint64, size int64, req *RecvReq) {
	if size > req.vec.TotalLen() {
		panic(fmt.Sprintf("nemesis: rendezvous message of %d bytes overflows %d-byte receive",
			size, req.vec.TotalLen()))
	}
	ep.netPulls[seq] = &netPull{req: req, vec: req.vec.SliceInto(nil, 0, size), src: src, tag: tag, size: size}
	ep.sendNetPacket(p, &packet{typ: pktCTS, viaNet: true, src: ep.Rank, dst: src, seq: seq}, 0)
}

// runLMTRecv drives the receiver side of a rendezvous transfer.
func (ep *Endpoint) runLMTRecv(p *sim.Proc, src, tag int, seq uint64, size int64, cookie any, req *RecvReq) {
	ch := ep.Ch
	if size > req.vec.TotalLen() {
		panic(fmt.Sprintf("nemesis: rendezvous message of %d bytes overflows %d-byte receive",
			size, req.vec.TotalLen()))
	}
	t := &Transfer{
		Seq:     seq,
		SrcRank: src,
		DstRank: ep.Rank,
		Tag:     tag,
		Size:    size,
		DstVec:  req.vec.SliceInto(nil, 0, size),
		Ch:      ch,
	}
	wantsCTS, finCompletes := ch.lmt.Flags()
	if wantsCTS {
		info := ch.lmt.PrepareCTS(p, t)
		ep.sendPacket(p, &packet{typ: pktCTS, src: ep.Rank, dst: src, seq: seq, info: info})
	}
	ch.lmt.Recv(p, t, cookie)
	if finCompletes {
		ep.sendPacket(p, &packet{typ: pktFIN, src: ep.Rank, dst: src, seq: seq})
	}
	req.complete(ep, src, tag, size)
}
