package core

import (
	"knemesis/internal/mem"
	"knemesis/internal/nemesis"
	"knemesis/internal/sim"
	"knemesis/internal/topo"
)

// stagedPipe is the bounded staging area a double-buffered two-sided copy
// pipeline flows through. The default LMT's shared-memory slot ring and the
// vmsplice LMT's kernel pipe are both instances: the sender pushes windows
// in while capacity allows, the receiver pulls them out, and the bounded
// capacity is what overlaps the two halves of the copy (§2: "the copies
// might overlap to some degree").
type stagedPipe interface {
	// Push moves a prefix of rest (the unsent remainder of the source
	// vector) into the stage as core, blocking while the stage is full,
	// and returns the bytes accepted.
	Push(p *sim.Proc, core topo.CoreID, rest mem.IOVec) int64

	// Pull moves staged bytes into a prefix of rest (the unfilled
	// remainder of the destination vector) as core, blocking until data
	// is available, and returns the bytes delivered.
	Pull(p *sim.Proc, core topo.CoreID, rest mem.IOVec) int64
}

// vecScratch is the stack room a chunk loop gives the I/O vector window
// it cuts per chunk: windows of up to this many regions allocate nothing.
const vecScratch = 4

// pumpSend drives the sender half of a staged pipeline: push successive
// windows of t.SrcVec until the whole transfer is in (or through) the stage.
// Every window is cut into the same scratch vector (Push keeps no window).
func pumpSend(p *sim.Proc, pipe stagedPipe, t *nemesis.Transfer) {
	core := t.SenderCore()
	var rest mem.IOVec
	var off int64
	for off < t.Size {
		rest = t.SrcVec.SliceInto(rest[:0], off, t.Size-off)
		off += pipe.Push(p, core, rest)
	}
}

// pumpRecv drives the receiver half: pull staged data into successive
// windows of t.DstVec until the transfer is complete.
func pumpRecv(p *sim.Proc, pipe stagedPipe, t *nemesis.Transfer) {
	core := t.RecvCore()
	var rest mem.IOVec
	var off int64
	for off < t.Size {
		rest = t.DstVec.SliceInto(rest[:0], off, t.Size-off)
		off += pipe.Pull(p, core, rest)
	}
}

// stageGate admits one transfer at a time to a shared per-connection
// staging resource (the shm copy ring, the vmsplice pipe). MPICH's staged
// LMTs likewise run one active transfer per connection copy buffer;
// without the gate, two concurrent rendezvous transfers between the same
// ordered rank pair would interleave windows through the shared stage and
// corrupt both payloads (the cross-engine conformance suite catches this).
type stageGate struct {
	busy bool
	cond *sim.Cond
}

func newStageGate(eng *sim.Engine, name string) *stageGate {
	return &stageGate{cond: sim.NewCond(eng, name)}
}

// acquire blocks (progressing the simulation) until the stage is free and
// claims it. It runs in the receiver's per-transfer protocol process, so
// waiting here stalls only the queued transfer, never channel progress.
func (g *stageGate) acquire(p *sim.Proc) {
	for g.busy {
		g.cond.Wait(p)
	}
	g.busy = true
}

// release frees the stage and wakes queued transfers.
func (g *stageGate) release() {
	g.busy = false
	g.cond.Broadcast()
}
