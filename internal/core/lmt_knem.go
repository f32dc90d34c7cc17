package core

import (
	"knemesis/internal/knem"
	"knemesis/internal/nemesis"
	"knemesis/internal/sim"
)

func init() {
	register(&Backend{Name: KnemLMT, Info: Info{
		Summary:   "KNEM kernel-module single copy, optionally I/OAT-offloaded (§3.2-3.4)",
		Order:     3,
		NeedsKNEM: true,
		NeedsDMA:  knemNeedsDMA,
		Label:     knemLabel,
		Variants: []Variant{
			{Help: "KNEM kernel copy (no offload)"},
			{Suffix: "ioat", Help: "KNEM offloading every transfer to I/OAT",
				Apply: func(o *Options) { o.IOAT = IOATAlways }},
			{Suffix: "ioat-auto", Help: "KNEM with the §3.5 DMAmin offload threshold",
				Apply: func(o *Options) { o.IOAT = IOATAuto }},
			{Suffix: "async", Help: "KNEM kernel-thread asynchronous copy (Fig. 6)",
				Apply: func(o *Options) {
					md := knem.AsyncKThread
					o.ForceKnemMode = &md
				}},
		},
	}, New: func(ch *nemesis.Channel, opt Options) nemesis.LMT {
		return newKnemLMT(ch, opt)
	}})
}

// knemNeedsDMA reports whether the configuration will submit I/OAT work:
// either an explicit I/OAT mode is forced, or the offload policy may engage.
func knemNeedsDMA(opt Options) bool {
	if opt.ForceKnemMode != nil {
		return *opt.ForceKnemMode == knem.SyncIOAT || *opt.ForceKnemMode == knem.AsyncIOAT
	}
	return opt.IOAT != IOATOff
}

// knemLabel renders the configuration as in the paper's tables.
func knemLabel(opt Options) string {
	s := string(KnemLMT)
	if opt.ForceKnemMode != nil {
		return s + "/" + opt.ForceKnemMode.String()
	}
	switch opt.IOAT {
	case IOATAlways:
		s += "+ioat"
	case IOATAuto:
		s += "+ioat-auto"
	}
	return s
}

// knemLMT transfers large messages through the KNEM kernel module (§3.2):
// the sender declares its buffer (send command) and passes the resulting
// cookie through the usual Nemesis rendezvous handshake; the receiver's
// receive command moves the data with a single copy — synchronously on its
// own core, asynchronously in a kernel thread, or offloaded to I/OAT.
type knemLMT struct {
	ch  *nemesis.Channel
	opt Options
}

func newKnemLMT(ch *nemesis.Channel, opt Options) *knemLMT {
	return &knemLMT{ch: ch, opt: opt}
}

func (l *knemLMT) Name() string { return l.opt.Label() }

// Flags: no CTS — the RTS already carries the cookie, and the receiver pulls
// the data. The sender's buffer is pinned until the receiver is done, so a
// FIN completes the send.
func (l *knemLMT) Flags() (wantsCTS, finCompletes bool) { return false, true }

// InitiateSend issues the KNEM send command; the cookie travels in the RTS.
func (l *knemLMT) InitiateSend(p *sim.Proc, t *nemesis.Transfer) any {
	return l.ch.KNEM.SendCmd(p, t.SenderCore(), t.SrcVec)
}

func (l *knemLMT) PrepareCTS(p *sim.Proc, t *nemesis.Transfer) any      { return nil }
func (l *knemLMT) HandleCTS(p *sim.Proc, t *nemesis.Transfer, info any) {}

// Recv issues the receive command in the mode chosen by the policy and, for
// asynchronous modes, busy-polls the status variable — the spinning poll of
// Nemesis' progress engine (which is exactly what competes with the kernel
// thread in the non-I/OAT asynchronous mode, §4.3).
func (l *knemLMT) Recv(p *sim.Proc, t *nemesis.Transfer, cookie any) {
	mode := l.chooseMode(t)
	st := l.ch.KNEM.RecvCmd(p, t.RecvCore(), cookie.(knem.Cookie), t.DstVec, mode)
	l.ch.M.BusyPoll(p, t.RecvCore(), BusyPollQuantum, st.Done, st.Cond())
}

// chooseMode applies Figure-6 overrides or the §3.5 dynamic policy. As the
// paper prescribes, asynchronous mode is enabled by default only together
// with I/OAT.
func (l *knemLMT) chooseMode(t *nemesis.Transfer) knem.Mode {
	if l.opt.ForceKnemMode != nil {
		return *l.opt.ForceKnemMode
	}
	switch l.opt.IOAT {
	case IOATAlways:
		return knem.AsyncIOAT
	case IOATAuto:
		if t.Size >= dmaMinFor(l.ch, l.opt, t.RecvCore()) {
			return knem.AsyncIOAT
		}
		return knem.SyncCopy
	default:
		return knem.SyncCopy
	}
}
