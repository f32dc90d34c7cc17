// Package ioat models Intel I/OAT copy-offload hardware: a DMA engine on
// the memory controller that performs memory-to-memory copies in the
// background. The three properties the paper exploits are reproduced:
//
//  1. The engine does not run on any CPU core, so copies overlap with
//     computation (§3.4).
//  2. The engine bypasses the caches entirely: it never pollutes them, but
//     must snoop dirty source lines and invalidate stale destination lines.
//  3. Requests complete strictly in order, which enables the paper's §3.4
//     trick of appending a one-byte status-write "copy" after a bulk copy so
//     that completion notification also happens in the background.
//
// Submission is not free: the CPU pays an MMIO descriptor write per
// physically contiguous chunk (§4.2), which is why I/OAT only wins for
// large messages.
package ioat

import (
	"knemesis/internal/hw"
	"knemesis/internal/mem"
	"knemesis/internal/sim"
	"knemesis/internal/topo"
)

// Status is the completion flag a request writes when it finishes. The
// paper's asynchronous model has the library poll such a variable (§3.4).
type Status struct {
	done bool
	cond *sim.Cond
}

// Done reports completion. Polling costs are charged by the caller.
func (s *Status) Done() bool { return s.done }

// Cond is broadcast when the status is written.
func (s *Status) Cond() *sim.Cond { return s.cond }

// WaitIdle blocks p without consuming CPU until the status is written
// (models a context that has nothing else to do; the asynchronous progress
// loops in Nemesis poll Done instead).
func (s *Status) WaitIdle(p *sim.Proc) {
	for !s.done {
		s.cond.Wait(p)
	}
}

// request is one queued copy, already linearized into matched pairs.
type request struct {
	pairs  []mem.RegionPair
	bytes  int64
	status *Status
}

// Engine is one I/OAT DMA engine (the testbed chipset exposes one).
type Engine struct {
	m     *hw.Machine
	queue *sim.Mailbox[*request]

	// Stats
	Requests    int64
	BytesCopied int64
	Descriptors int64
}

// NewEngine creates the engine and starts its device process.
func NewEngine(m *hw.Machine) *Engine {
	e := &Engine{m: m, queue: sim.NewMailbox[*request](m.Eng, "ioat")}
	m.Eng.SpawnDaemon("ioat-engine", func(p *sim.Proc) { e.run(p) })
	return e
}

// Submit queues a copy of the matched region pairs and returns its status.
// The submitting CPU pays one MMIO descriptor write per physically
// contiguous chunk. The buffers must already be pinned (KNEM's job).
func (e *Engine) Submit(p *sim.Proc, core topo.CoreID, pairs []mem.RegionPair) *Status {
	par := e.m.Params()
	var descriptors int
	var bytes int64
	for _, rp := range pairs {
		descriptors += rp.PhysDescriptors(par.PhysRunPages)
		bytes += rp.Src.Len
	}
	descriptors++ // the trailing status-write descriptor
	e.Descriptors += int64(descriptors)
	e.m.LocalDelay(p, core, par.DMASubmitPerSegment*sim.Time(descriptors))

	st := &Status{cond: sim.NewCond(e.m.Eng, "ioat-status")}
	e.Requests++
	e.queue.Put(&request{pairs: pairs, bytes: bytes, status: st})
	return st
}

// run is the device process: strictly in-order FIFO service.
func (e *Engine) run(p *sim.Proc) {
	par := e.m.Params()
	for {
		req := e.queue.Get(p)
		p.Sleep(par.DMAEngineStartup)

		// Coherence maintenance: flush dirty source lines, invalidate
		// stale destination lines. These transfers use the bus.
		var cohBytes int64
		for _, rp := range req.pairs {
			cohBytes += e.m.DMASnoopSource(rp.Src.Addr(), rp.Src.Len)
			cohBytes += e.m.DMAInvalidateDest(rp.Dst.Addr(), rp.Dst.Len)
		}

		// The copy reads and writes memory: 2x bytes of bus traffic,
		// streamed at the engine's own rate — whichever is slower wins.
		flow := e.m.Bus.Start(float64(cohBytes + 2*req.bytes))
		p.Sleep(sim.FromSeconds(float64(req.bytes) / par.DMABandwidth))
		flow.Wait(p)
		e.m.Bus.Release(flow)

		for _, rp := range req.pairs {
			mem.CopyBytes(rp.Dst, rp.Src)
		}
		e.BytesCopied += req.bytes

		// In-order status write: the single-byte trailing "copy".
		p.Sleep(par.DMAEngineStartup / 4)
		req.status.done = true
		req.status.cond.Broadcast()
	}
}
