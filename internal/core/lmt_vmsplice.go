package core

import (
	"fmt"

	"knemesis/internal/kernel"
	"knemesis/internal/mem"
	"knemesis/internal/nemesis"
	"knemesis/internal/sim"
	"knemesis/internal/topo"
)

func init() {
	register(&Backend{Name: VmspliceLMT, Info: Info{
		Summary:     "single copy through a kernel pipe via vmsplice (§3.1)",
		Order:       1,
		NeedsKernel: true,
	}, New: func(ch *nemesis.Channel, opt Options) nemesis.LMT {
		return newVmspliceLMT(ch, false)
	}})
	register(&Backend{Name: VmspliceWritevLMT, Info: Info{
		Summary:     "vmsplice backend forced to copy through writev (Fig. 3 control)",
		Order:       2,
		NeedsKernel: true,
	}, New: func(ch *nemesis.Channel, opt Options) nemesis.LMT {
		return newVmspliceLMT(ch, true)
	}})
}

// vmspliceLMT transfers large messages through a per-connection Unix pipe
// (§3.1): the sender attaches its pages with vmsplice (no copy) and the
// receiver's readv performs the single copy into the destination buffer.
// The pipe's 16-page capacity bounds each window to 64 KiB, which the paper
// notes conveniently preserves Nemesis responsiveness between chunks.
//
// With useWritev the sender copies into the pipe instead — the two-copy
// control the paper measures in Figure 3 ("vmsplice LMT using writev").
type vmspliceLMT struct {
	ch        *nemesis.Channel
	useWritev bool
	pipes     map[[2]int]*lmtPipe
}

// lmtPipe couples a connection's kernel pipe with its admission gate (one
// active transfer per pipe: interleaving two transfers' windows through
// one FIFO would corrupt both).
type lmtPipe struct {
	pp   *kernel.Pipe
	gate *stageGate
}

func newVmspliceLMT(ch *nemesis.Channel, useWritev bool) *vmspliceLMT {
	return &vmspliceLMT{ch: ch, useWritev: useWritev, pipes: make(map[[2]int]*lmtPipe)}
}

func (l *vmspliceLMT) Name() string {
	if l.useWritev {
		return string(VmspliceWritevLMT)
	}
	return string(VmspliceLMT)
}

// Flags: the receiver opens (or finds) the shared pipe and announces
// readiness via CTS. With vmsplice the sender's pages are attached to the
// pipe until read, so only the receiver's FIN makes the source reusable;
// with writev the data was copied out, so the sender finishes on its own.
func (l *vmspliceLMT) Flags() (wantsCTS, finCompletes bool) { return true, !l.useWritev }

func (l *vmspliceLMT) InitiateSend(p *sim.Proc, t *nemesis.Transfer) any { return nil }

// pipeStage adapts a kernel pipe to the stagedPipe pipeline: Push is one
// vmsplice (or writev) window, Pull is one readv into the head destination
// region.
type pipeStage struct {
	pp        *kernel.Pipe
	useWritev bool
}

func (s pipeStage) Push(p *sim.Proc, core topo.CoreID, rest mem.IOVec) int64 {
	if s.useWritev {
		return s.pp.Writev(p, core, rest)
	}
	return s.pp.Vmsplice(p, core, rest)
}

func (s pipeStage) Pull(p *sim.Proc, core topo.CoreID, rest mem.IOVec) int64 {
	return s.pp.Readv(p, core, rest[0])
}

// PrepareCTS returns the per-ordered-pair pipe ("the sending and receiving
// processes open the same UNIX pipe"), claimed for this transfer; claiming
// may block until an earlier transfer through the same pipe drains.
func (l *vmspliceLMT) PrepareCTS(p *sim.Proc, t *nemesis.Transfer) any {
	key := [2]int{t.SrcRank, t.DstRank}
	lp, ok := l.pipes[key]
	if !ok {
		lp = &lmtPipe{
			pp:   l.ch.OS.NewPipe(fmt.Sprintf("lmt%d-%d", t.SrcRank, t.DstRank)),
			gate: newStageGate(l.ch.M.Eng, fmt.Sprintf("pipe-gate%d-%d", t.SrcRank, t.DstRank)),
		}
		l.pipes[key] = lp
	}
	lp.gate.acquire(p)
	return lp.pp
}

// HandleCTS is the sender pump: splice (or write) the source vector into
// the pipe, 64 KiB window by 64 KiB window.
func (l *vmspliceLMT) HandleCTS(p *sim.Proc, t *nemesis.Transfer, info any) {
	pumpSend(p, pipeStage{pp: info.(*kernel.Pipe), useWritev: l.useWritev}, t)
}

// Recv is the receiver pump: readv into each destination region in turn,
// then hand the pipe to the next queued transfer.
func (l *vmspliceLMT) Recv(p *sim.Proc, t *nemesis.Transfer, cookie any) {
	lp := l.pipes[[2]int{t.SrcRank, t.DstRank}]
	pumpRecv(p, pipeStage{pp: lp.pp}, t)
	lp.gate.release()
}
