package core

import (
	"knemesis/internal/mem"
	"knemesis/internal/nemesis"
	"knemesis/internal/sim"
)

func init() {
	register(&Backend{Name: CMALMT, Info: Info{
		Summary:     "Cross Memory Attach (process_vm_readv) single copy, no module needed",
		Order:       4,
		NeedsKernel: true,
	}, New: func(ch *nemesis.Channel, opt Options) nemesis.LMT {
		return newCMALMT(ch)
	}})
}

// cmaLMT transfers large messages with Linux Cross Memory Attach: the RTS
// advertises the sender's iovec and the receiver pulls it directly with
// process_vm_readv — a single kernel-mediated copy, like KNEM's synchronous
// mode but with no module, no cookie registration ioctl and no send-side
// syscall at all. CMA is the mechanism that ultimately shipped in mainline
// Linux (3.2) as the successor of KNEM for MPI intranode communication.
type cmaLMT struct {
	ch *nemesis.Channel
}

func newCMALMT(ch *nemesis.Channel) *cmaLMT {
	return &cmaLMT{ch: ch}
}

func (l *cmaLMT) Name() string { return string(CMALMT) }

// Flags: no CTS — the RTS already names the source buffer and the receiver
// pulls. The sender's pages are read in place, so its buffer is reusable
// only after the receiver's FIN.
func (l *cmaLMT) Flags() (wantsCTS, finCompletes bool) { return false, true }

// InitiateSend costs nothing: CMA needs no registration — the source iovec
// itself is the cookie the RTS carries.
func (l *cmaLMT) InitiateSend(p *sim.Proc, t *nemesis.Transfer) any {
	return t.SrcVec
}

func (l *cmaLMT) PrepareCTS(p *sim.Proc, t *nemesis.Transfer) any      { return nil }
func (l *cmaLMT) HandleCTS(p *sim.Proc, t *nemesis.Transfer, info any) {}

// Recv pulls the advertised source vector straight into the destination.
func (l *cmaLMT) Recv(p *sim.Proc, t *nemesis.Transfer, cookie any) {
	l.ch.OS.ProcessVMReadv(p, t.RecvCore(), t.DstVec, cookie.(mem.IOVec))
}
