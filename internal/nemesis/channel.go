// Package nemesis reimplements the MPICH2-Nemesis intranode communication
// subsystem as a simulation: per-process receive queues with modelled
// lock-free enqueue/dequeue and cache-line handoff costs, an eager protocol
// that copies small messages through shared-memory cells, and a rendezvous
// protocol for large messages whose data movement is delegated to a
// pluggable Large Message Transfer (LMT) backend — the extension point the
// paper builds on (§2).
//
// The LMT backends themselves (shared-memory double-buffering, vmsplice,
// KNEM, KNEM+I/OAT) live in internal/core.
package nemesis

import (
	"fmt"

	"knemesis/internal/hw"
	"knemesis/internal/ioat"
	"knemesis/internal/kernel"
	"knemesis/internal/knem"
	"knemesis/internal/mem"
	"knemesis/internal/sim"
	"knemesis/internal/topo"
)

// CellBytes is the payload capacity of one shared-memory eager cell.
const CellBytes = 64 * 1024

// CellsPerRank sizes each rank's free-cell pool.
const CellsPerRank = 8

// DefaultEagerMax is Nemesis' default rendezvous threshold: messages above
// it use the LMT path ("NEMESIS usually enables LMT only after 64 KiB").
const DefaultEagerMax = 64 * 1024

// Config tunes a channel.
type Config struct {
	// EagerMax is the eager/rendezvous switchover (default 64 KiB,
	// clamped to CellBytes).
	EagerMax int64

	// LMT constructs the large-message backend for this channel; nil
	// means "eager only" (then EagerMax must cover all traffic).
	LMT func(ch *Channel) LMT
}

// Channel is the intranode communication state shared by all ranks.
type Channel struct {
	M    *hw.Machine
	OS   *kernel.OS
	DMA  *ioat.Engine
	KNEM *knem.Module

	Shm *mem.Space // queues, cells and copy rings live here

	Endpoints []*Endpoint
	Cfg       Config
	lmt       LMT

	// Multi-node membership (nil/zero on a single-node channel): the
	// cluster this channel is one node of, the cluster node index, and
	// the global-rank → local-endpoint map. Set by LinkCluster.
	cl     *Cluster
	node   int
	byRank map[int]*Endpoint

	seq uint64 // global transfer sequence

	// collHint is the upper layer's announcement of concurrent large
	// transfers (set around collectives): the paper's §6 proposal to
	// "lower thresholds for collective communication with the assistance
	// of the upper layers of the MPICH2 stack". Reference-counted because
	// every participating rank enters and leaves independently.
	collHint     int
	collHintRefs int

	// Stats
	EagerMsgs, RndvMsgs int64
	BytesSent           int64
}

// EnterCollective announces that roughly n large transfers will be in
// flight concurrently; each participating rank calls it before the exchange
// and must pair it with LeaveCollective.
func (ch *Channel) EnterCollective(n int) {
	ch.collHintRefs++
	if n > ch.collHint {
		ch.collHint = n
	}
}

// LeaveCollective withdraws one participant's announcement; the hint clears
// when the last participant leaves.
func (ch *Channel) LeaveCollective() {
	ch.collHintRefs--
	if ch.collHintRefs <= 0 {
		ch.collHintRefs = 0
		ch.collHint = 0
	}
}

// CollectiveHint reports the current hint (0 when none).
func (ch *Channel) CollectiveHint() int { return ch.collHint }

// NewChannelRanks creates a channel for ranks placed on the given cores.
// os, dma and km may share substrate with other components; dma and km may
// be nil when the experiment disables them. On one node of a cluster,
// ranks[i] is the global rank of the endpoint on cores[i], so cluster-wide
// rank numbers address endpoints directly; nil ranks means rank i on
// cores[i] (the single-node layout).
func NewChannelRanks(m *hw.Machine, os *kernel.OS, dma *ioat.Engine, km *knem.Module,
	cores []topo.CoreID, ranks []int, cfg Config) *Channel {
	if cfg.EagerMax == 0 {
		cfg.EagerMax = DefaultEagerMax
	}
	if cfg.EagerMax > CellBytes {
		cfg.EagerMax = CellBytes
	}
	if ranks != nil && len(ranks) != len(cores) {
		panic(fmt.Sprintf("nemesis: %d ranks placed on %d cores", len(ranks), len(cores)))
	}
	ch := &Channel{
		M:      m,
		OS:     os,
		DMA:    dma,
		KNEM:   km,
		Shm:    m.Mem.NewSharedSpace("nemesis-shm"),
		Cfg:    cfg,
		byRank: make(map[int]*Endpoint, len(cores)),
	}
	for i, core := range cores {
		rank := i
		if ranks != nil {
			rank = ranks[i]
		}
		ep := newEndpoint(ch, rank, core)
		ch.Endpoints = append(ch.Endpoints, ep)
		ch.byRank[rank] = ep
	}
	if cfg.LMT != nil {
		ch.lmt = cfg.LMT(ch)
	}
	return ch
}

// LMTName reports the active backend name ("eager-only" without one).
func (ch *Channel) LMTName() string {
	if ch.lmt == nil {
		return "eager-only"
	}
	return ch.lmt.Name()
}

// Transfer is one rendezvous message in flight, shared between the sender's
// and receiver's protocol state machines.
type Transfer struct {
	Seq     uint64
	SrcRank int
	DstRank int
	Tag     int
	Size    int64
	SrcVec  mem.IOVec // valid on the sender side
	DstVec  mem.IOVec // valid once the receiver matched
	Ch      *Channel

	senderDone bool
	ctsInfo    any
	ctsSeen    bool
}

// SenderCore returns the sending rank's core (LMT transfers are always
// intra-node, so both ranks resolve on the transfer's channel).
func (t *Transfer) SenderCore() topo.CoreID { return t.Ch.mustLocal(t.SrcRank).Core }

// RecvCore returns the receiving rank's core.
func (t *Transfer) RecvCore() topo.CoreID { return t.Ch.mustLocal(t.DstRank).Core }

// LMT is a Large Message Transfer backend: the internal interface the paper
// describes as "general enough to support various mechanisms for
// transferring large messages" (§2).
type LMT interface {
	// Name identifies the backend in reports.
	Name() string

	// Flags declares the backend's handshake shape: wantsCTS backends
	// receive a clear-to-send with receiver info and run a sender-side
	// data pump (HandleCTS); finCompletes backends finish the sender only
	// when the receiver's FIN arrives (single-copy backends, where the
	// receiver is last to touch the source).
	Flags() (wantsCTS, finCompletes bool)

	// InitiateSend runs in the sender's context before the RTS packet is
	// sent; the returned cookie travels inside the RTS (e.g. a KNEM
	// cookie id).
	InitiateSend(p *sim.Proc, t *Transfer) (cookie any)

	// PrepareCTS runs in the receiver's context after matching, before
	// the CTS packet; its result travels to the sender (e.g. a copy-ring
	// reference). Only called when wantsCTS.
	PrepareCTS(p *sim.Proc, t *Transfer) (info any)

	// HandleCTS is the sender-side data pump, run in the sender's context
	// when the CTS arrives. Only called when wantsCTS.
	HandleCTS(p *sim.Proc, t *Transfer, info any)

	// Recv moves the message payload into t.DstVec, running in the
	// receiver's context; it returns when the data has fully arrived.
	Recv(p *sim.Proc, t *Transfer, cookie any)
}

func (ch *Channel) nextSeq() uint64 {
	if ch.cl != nil {
		// Cluster-wide: transfer sequence numbers must be unique per
		// receiver across every sending node.
		return ch.cl.nextSeq()
	}
	ch.seq++
	return ch.seq
}

// worldSize is the number of addressable ranks: the cluster size when this
// channel is one node of a cluster, the local endpoint count otherwise.
func (ch *Channel) worldSize() int {
	if ch.cl != nil {
		return ch.cl.Size()
	}
	return len(ch.Endpoints)
}

// validRank panics on out-of-range ranks (protocol bug guard).
func (ch *Channel) validRank(r int) {
	if r < 0 || r >= ch.worldSize() {
		panic(fmt.Sprintf("nemesis: rank %d out of range (%d ranks)", r, ch.worldSize()))
	}
}

// isLocal reports whether rank lives on this channel's node.
func (ch *Channel) isLocal(r int) bool {
	_, ok := ch.byRank[r]
	return ok
}

// mustLocal returns the local endpoint of rank, panicking if it lives on
// another node (protocol bug guard: shared-memory paths are node-local).
func (ch *Channel) mustLocal(r int) *Endpoint {
	ep, ok := ch.byRank[r]
	if !ok {
		panic(fmt.Sprintf("nemesis: rank %d is not on this node", r))
	}
	return ep
}
