// Package knem reimplements the paper's KNEM ("Kernel Nemesis") Linux
// kernel module: a pseudo-character device offering two commands (Fig. 1):
//
//   - a send command declaring a (possibly vectorial) send buffer, which the
//     driver pins and registers under a unique cookie, and
//   - a receive command that, given a cookie and a receive buffer, moves the
//     data inside the kernel with a single copy.
//
// The receive command supports four operating modes (§3.2-§3.4): a
// synchronous kernel copy on the calling core; a synchronous I/OAT-offloaded
// copy; an asynchronous copy performed by a kernel thread on the receiver's
// core (which then competes with the user process for the CPU); and an
// asynchronous I/OAT copy whose completion is notified by an in-order
// status write, fully in the background.
package knem

import (
	"fmt"

	"knemesis/internal/hw"
	"knemesis/internal/ioat"
	"knemesis/internal/kernel"
	"knemesis/internal/mem"
	"knemesis/internal/sim"
	"knemesis/internal/topo"
)

// Cookie identifies a registered send buffer.
type Cookie uint64

// Mode selects the receive command's data-movement strategy.
type Mode int

// Receive modes.
const (
	// SyncCopy: the receiving process's core performs the copy inside the
	// kernel and returns when done.
	SyncCopy Mode = iota
	// SyncIOAT: the copy is offloaded to the DMA engine; the kernel
	// busy-polls completion before returning (CPU occupied, caches clean).
	SyncIOAT
	// AsyncKThread: a kernel thread on the receiver's core performs the
	// copy; the receive command returns immediately with a status to poll.
	AsyncKThread
	// AsyncIOAT: DMA copy plus in-order status write; fully background.
	AsyncIOAT
)

// String names the mode for reports.
func (md Mode) String() string {
	switch md {
	case SyncCopy:
		return "sync"
	case SyncIOAT:
		return "sync+ioat"
	case AsyncKThread:
		return "async-kthread"
	case AsyncIOAT:
		return "async+ioat"
	default:
		return fmt.Sprintf("Mode(%d)", int(md))
	}
}

// copyChunkBytes is the kernel copy loop granularity.
const copyChunkBytes = 64 * 1024

// Status reports completion of an asynchronous receive. For synchronous
// modes the returned status is already done.
type Status struct {
	done bool
	cond *sim.Cond
}

// Done reports whether the transfer has completed.
func (s *Status) Done() bool { return s.done }

// Cond is broadcast when the transfer completes.
func (s *Status) Cond() *sim.Cond { return s.cond }

// WaitIdle blocks without consuming CPU until completion (used when the
// caller has nothing else to do; progress loops poll Done instead).
func (s *Status) WaitIdle(p *sim.Proc) {
	for !s.done {
		s.cond.Wait(p)
	}
}

type sendReg struct {
	vec   mem.IOVec
	pages int64
}

// Module is a loaded KNEM instance.
type Module struct {
	os  *kernel.OS
	dma *ioat.Engine // nil when the host lacks I/OAT

	cookies map[Cookie]*sendReg
	next    Cookie

	kthreads map[topo.CoreID]*kernel.KThread

	// Stats
	SendCmds, RecvCmds int64
	BytesCopied        int64
}

// Load initializes the module. dma may be nil (no I/OAT hardware).
func Load(os *kernel.OS, dma *ioat.Engine) *Module {
	return &Module{
		os:       os,
		dma:      dma,
		cookies:  make(map[Cookie]*sendReg),
		kthreads: make(map[topo.CoreID]*kernel.KThread),
	}
}

// HasIOAT reports whether I/OAT offload is available.
func (k *Module) HasIOAT() bool { return k.dma != nil }

// SendCmd declares a send buffer: an ioctl that pins the buffer's pages and
// registers its virtual segments under a fresh cookie (§3.2; the send buffer
// is always pinned, §3.3).
func (k *Module) SendCmd(p *sim.Proc, core topo.CoreID, vec mem.IOVec) Cookie {
	if err := vec.Validate(); err != nil {
		panic(err)
	}
	k.SendCmds++
	k.os.SyscallEnter(p, core)
	k.os.M.LocalDelay(p, core, k.os.M.Params().IoctlCost)
	pages := k.os.Pin(p, core, vec)
	k.next++
	c := k.next
	k.cookies[c] = &sendReg{vec: vec, pages: pages}
	return c
}

// RecvCmd performs the receive command: look up the cookie and move the data
// into dst with a single copy using the requested mode. It returns a Status
// (already done for synchronous modes). Completion unpins the send buffer
// and retires the cookie.
func (k *Module) RecvCmd(p *sim.Proc, core topo.CoreID, c Cookie, dst mem.IOVec, md Mode) *Status {
	if err := dst.Validate(); err != nil {
		panic(err)
	}
	reg, ok := k.cookies[c]
	if !ok {
		panic(fmt.Sprintf("knem: receive with unknown cookie %d", c))
	}
	if dst.TotalLen() != reg.vec.TotalLen() {
		panic(fmt.Sprintf("knem: receive length %d != declared %d", dst.TotalLen(), reg.vec.TotalLen()))
	}
	k.RecvCmds++
	par := k.os.M.Params()
	k.os.SyscallEnter(p, core)
	k.os.M.LocalDelay(p, core, par.IoctlCost)

	st := &Status{cond: sim.NewCond(k.os.M.Eng, "knem-status")}
	finish := func(fp *sim.Proc) {
		k.os.Unpin(fp, core, reg.pages)
		delete(k.cookies, c)
		st.done = true
		st.cond.Broadcast()
	}

	switch md {
	case SyncCopy:
		k.copyLoop(p, core, dst, reg.vec)
		finish(p)

	case SyncIOAT, AsyncIOAT:
		if k.dma == nil {
			panic("knem: I/OAT mode requested but no DMA engine present")
		}
		// I/OAT addresses physical memory: the receive buffer must be
		// pinned too (§3.3), and the driver pays per-transfer descriptor
		// preparation and alignment-fixup costs (calibrated, see topo).
		dstPages := k.os.Pin(p, core, dst)
		k.os.M.LocalDelay(p, core, par.DMAPrepFixed+par.DMAPrepPerPage*sim.Time(dstPages))
		var pairs []mem.RegionPair // the engine queues them: not scratch
		mem.OverlayEach(dst, reg.vec, 0, func(pair mem.RegionPair) { pairs = append(pairs, pair) })
		dmaStatus := k.dma.Submit(p, core, pairs)
		if md == SyncIOAT {
			// Busy-poll completion before returning to user space:
			// the core is occupied but the caches stay clean.
			k.os.M.BusyPoll(p, core, sim.Microsecond, dmaStatus.Done, dmaStatus.Cond())
			k.os.Unpin(p, core, dstPages)
			finish(p)
		} else {
			// Completion (status write) happens in the background;
			// bookkeeping is charged when the library notices.
			k.os.M.Eng.SpawnDaemon("knem-ioat-completion", func(cp *sim.Proc) {
				dmaStatus.WaitIdle(cp)
				k.BytesCopied += dst.TotalLen()
				st.done = true
				st.cond.Broadcast()
				delete(k.cookies, c)
			})
		}

	case AsyncKThread:
		kt := k.kthreadFor(core)
		kt.Submit(p, core, k.os, func(kp *sim.Proc) {
			k.copyLoop(kp, core, dst, reg.vec)
			finish(kp)
		})

	default:
		panic(fmt.Sprintf("knem: unknown mode %d", md))
	}
	return st
}

// kthreadFor lazily creates the per-core copy worker.
func (k *Module) kthreadFor(core topo.CoreID) *kernel.KThread {
	kt, ok := k.kthreads[core]
	if !ok {
		kt = k.os.SpawnKThread(core, fmt.Sprintf("knem-copy-%d", core))
		k.kthreads[core] = kt
	}
	return kt
}

// copyLoop is the kernel single-copy path: chunked so the machine model
// captures pipelined cache/bus behaviour.
func (k *Module) copyLoop(p *sim.Proc, core topo.CoreID, dst, src mem.IOVec) {
	mem.OverlayEach(dst, src, copyChunkBytes, func(pair mem.RegionPair) {
		k.os.M.CopyRange(p, core, pair.Dst, pair.Src, hw.CopyOpts{Kernel: true})
		k.BytesCopied += pair.Src.Len
	})
}
