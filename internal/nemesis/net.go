package nemesis

import (
	"fmt"

	"knemesis/internal/hw"
	"knemesis/internal/mem"
	"knemesis/internal/sim"
	"knemesis/internal/topo"
)

// The modelled inter-node network: every cluster cable becomes a pair of
// directional fluid bandwidth resources (full duplex), and every ordered
// node pair gets a lazily created FIFO connection whose transmissions
// consume all the links of the (deterministic, shortest-hop) route
// concurrently — a store-and-forward-free wormhole approximation — and
// deliver after the summed propagation latency. Per-connection FIFO plus a
// constant path latency preserves per-pair arrival order, which the
// endpoint matching machinery relies on (MPI non-overtaking).
//
// Message payloads travel as host byte slices (captured on the sender,
// delivered on the receiver), because each node is its own mem.World —
// simulated address spaces of different machines overlap, so no CopyRange
// may ever span two nodes. The modelled CPU/cache cost of moving payload
// between user buffers and the NIC is charged locally on each side through
// a per-endpoint staging ring (netStageBytes chunks).

// envelopeBytes is the wire overhead of one message (header/envelope).
const envelopeBytes = 64

// netStageBytes sizes the per-endpoint NIC staging ring: user-buffer bytes
// are charged through it in chunks, keeping the modelled working set small
// and cache-resident like a real driver's descriptor ring.
const netStageBytes = 16 * 1024

// Net is the modelled cluster network.
type Net struct {
	Eng  *sim.Engine
	Topo *topo.Cluster

	links []*netLink          // 2 per cluster link: 2i is A→B, 2i+1 is B→A
	paths map[[2]int]*netPath // ordered (srcNode, dstNode) → route
	conns map[[2]int]*netConn // ordered (srcNode, dstNode) → FIFO connection

	// jitter, when set, returns extra propagation latency added to each
	// delivery (perturbation injection; see SetDeliverJitter).
	jitter func() sim.Time

	// Stats (read after Run; the engine is single-timeline).
	Msgs      int64   // messages transmitted
	Bytes     int64   // payload bytes transmitted
	ByteHops  int64   // sum over messages of payload bytes x route links
	EagerMsgs int64   // eager messages over the network
	RndvMsgs  int64   // rendezvous messages over the network
	LinkBytes []int64 // wire bytes per cluster link (both directions)
}

// ScaleBandwidth multiplies every directional link's current capacity by
// factor (a degraded or restored fabric). In-flight transmissions finish
// at the new rate from this simulated instant on.
func (n *Net) ScaleBandwidth(factor float64) {
	if factor <= 0 {
		panic("nemesis: ScaleBandwidth factor must be positive")
	}
	for _, l := range n.links {
		l.fluid.SetCapacity(l.fluid.Capacity() * factor)
	}
}

// SetDeliverJitter installs a latency-jitter source consulted once per
// delivered message. Deliveries on one connection are clamped to stay in
// transmission order, so jitter perturbs timing without ever violating the
// per-pair FIFO the matching machinery relies on. The function runs in the
// engine's deterministic event order.
func (n *Net) SetDeliverJitter(fn func() sim.Time) { n.jitter = fn }

type netLink struct {
	fluid   *sim.Fluid
	latency sim.Time
	cable   int // cluster link index, for stats
}

type netPath struct {
	links   []*netLink
	latency sim.Time
}

// NewNet builds the network runtime for a cluster on a shared engine.
func NewNet(eng *sim.Engine, tc *topo.Cluster) *Net {
	n := &Net{
		Eng:       eng,
		Topo:      tc,
		paths:     make(map[[2]int]*netPath),
		conns:     make(map[[2]int]*netConn),
		LinkBytes: make([]int64, len(tc.Links)),
	}
	for i, l := range tc.Links {
		n.links = append(n.links,
			&netLink{fluid: sim.NewFluid(eng, fmt.Sprintf("net.l%d.ab", i), l.Bandwidth),
				latency: l.Latency, cable: i},
			&netLink{fluid: sim.NewFluid(eng, fmt.Sprintf("net.l%d.ba", i), l.Bandwidth),
				latency: l.Latency, cable: i})
	}
	return n
}

// path returns (building if needed) the directional route srcNode→dstNode.
func (n *Net) path(srcNode, dstNode int) *netPath {
	key := [2]int{srcNode, dstNode}
	if p, ok := n.paths[key]; ok {
		return p
	}
	cables, lat := n.Topo.Path(srcNode, dstNode)
	p := &netPath{latency: lat}
	cur := srcNode
	for _, ci := range cables {
		cable := n.Topo.Links[ci]
		if cable.A == cur {
			p.links = append(p.links, n.links[2*ci])
			cur = cable.B
		} else {
			p.links = append(p.links, n.links[2*ci+1])
			cur = cable.A
		}
	}
	n.paths[key] = p
	return p
}

// netMsg is one queued transmission.
type netMsg struct {
	wire    int64 // bytes on the wire (payload + envelope)
	deliver func()
}

// netConn is the FIFO transmission queue of one ordered node pair. A burst
// process drains it: each message's wire bytes flow on every route link
// concurrently (pipelined cut-through), then delivery fires one path
// latency after the last byte left.
type netConn struct {
	net  *Net
	path *netPath
	name string
	q    []*netMsg
	busy bool
	seq  int
	// flows holds the in-flight message's flow on each link of the path;
	// the connection's one process reuses it message after message.
	flows []*sim.Flow
	// lastDeliver is the latest delivery time scheduled on this connection:
	// jittered deliveries clamp to it so per-pair FIFO order survives any
	// jitter magnitude (equal-time events fire in schedule order).
	lastDeliver sim.Time
}

func (n *Net) conn(srcNode, dstNode int) *netConn {
	key := [2]int{srcNode, dstNode}
	if c, ok := n.conns[key]; ok {
		return c
	}
	c := &netConn{net: n, path: n.path(srcNode, dstNode),
		name: fmt.Sprintf("net.%s-%s", n.Topo.Nodes[srcNode].Name, n.Topo.Nodes[dstNode].Name)}
	n.conns[key] = c
	return c
}

// Transmit queues one message from srcNode to dstNode; deliver runs on the
// machine timeline after transmission and propagation. Never blocks the
// caller: senders only pay their local capture cost.
func (n *Net) Transmit(srcNode, dstNode int, payload int64, deliver func()) {
	if srcNode == dstNode {
		panic("nemesis: net transmit within one node")
	}
	c := n.conn(srcNode, dstNode)
	wire := payload + envelopeBytes
	n.Msgs++
	n.Bytes += payload
	n.ByteHops += payload * int64(len(c.path.links))
	for _, l := range c.path.links {
		n.LinkBytes[l.cable] += wire
	}
	c.q = append(c.q, &netMsg{wire: wire, deliver: deliver})
	if !c.busy {
		c.busy = true
		c.seq++
		n.Eng.Spawn(fmt.Sprintf("%s#%d", c.name, c.seq), c.run)
	}
}

func (c *netConn) run(p *sim.Proc) {
	for len(c.q) > 0 {
		m := c.q[0]
		c.q = c.q[1:]
		c.flows = c.flows[:0]
		for _, l := range c.path.links {
			c.flows = append(c.flows, l.fluid.Start(float64(m.wire)))
		}
		for _, f := range c.flows {
			f.Wait(p)
		}
		for i, l := range c.path.links {
			l.fluid.Release(c.flows[i])
		}
		at := p.Now() + c.path.latency
		if j := c.net.jitter; j != nil {
			at += j()
		}
		if at < c.lastDeliver {
			at = c.lastDeliver
		}
		c.lastDeliver = at
		c.net.Eng.Schedule(at, m.deliver)
	}
	c.busy = false
}

// netStageBuf returns the endpoint's NIC staging ring, allocating it on
// first network use.
func (ep *Endpoint) netStageBuf() *mem.Buffer {
	if ep.netStage == nil {
		ep.netStage = ep.Space.Alloc(netStageBytes)
	}
	return ep.netStage
}

// netStageCost charges the modelled CPU/cache/bus cost of moving vec
// between the user buffer and the NIC staging ring, chunk by chunk.
// toNIC selects the direction (capture vs deliver).
func (ep *Endpoint) netStageCost(p *sim.Proc, vec mem.IOVec, toNIC bool) {
	ch := ep.Ch
	ch.M.LocalDelay(p, ep.Core, ch.M.Params().SyscallCost)
	if vec.TotalLen() == 0 {
		return
	}
	stage := ep.netStageBuf()
	for _, r := range vec {
		for off := int64(0); off < r.Len; off += netStageBytes {
			n := r.Len - off
			if n > netStageBytes {
				n = netStageBytes
			}
			user := mem.Region{Buf: r.Buf, Off: r.Off + off, Len: n}
			ring := mem.Region{Buf: stage, Off: 0, Len: n}
			if toNIC {
				ch.M.CopyRange(p, ep.Core, ring, user, hw.CopyOpts{})
			} else {
				ch.M.CopyRange(p, ep.Core, user, ring, hw.CopyOpts{})
			}
		}
	}
}

// netCapture snapshots vec's payload for the wire and charges the capture
// cost. Phantom (bench) regions contribute zero bytes: their content is
// never verified, only their modelled cost matters.
func (ep *Endpoint) netCapture(p *sim.Proc, vec mem.IOVec) []byte {
	n := vec.TotalLen()
	if n == 0 {
		ep.netStageCost(p, nil, true)
		return nil
	}
	data := make([]byte, 0, n)
	for _, r := range vec {
		if r.Buf.Phantom() {
			data = append(data, make([]byte, r.Len)...)
		} else {
			data = append(data, r.Bytes()...)
		}
	}
	ep.netStageCost(p, vec, true)
	return data
}

// netDeliver writes wire payload into vec and charges the delivery cost.
// The modelled copy runs first (it moves staging-ring bytes), then the real
// payload lands so content is exact; phantom regions skip content.
func (ep *Endpoint) netDeliver(p *sim.Proc, vec mem.IOVec, data []byte) {
	ep.netStageCost(p, vec, false)
	off := 0
	for _, r := range vec {
		if !r.Buf.Phantom() {
			copy(r.Bytes(), data[off:off+int(r.Len)])
		}
		off += int(r.Len)
	}
}
