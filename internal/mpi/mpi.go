// Package mpi is the "sim" engine: a simJob runs one MPI job on the
// simulated stack (engine.go), and each of its ranks is a simPeer, the
// engine-neutral comm.Peer implemented directly on the rank's Nemesis
// endpoint — blocking and nonblocking sends and receives with tag matching,
// derived (strided) datatypes, a cost-modelled local copy, and the comm
// package's collective algorithms run over those primitives.
package mpi

import (
	"fmt"

	"knemesis/internal/comm"
	"knemesis/internal/hw"
	"knemesis/internal/mem"
	"knemesis/internal/nemesis"
	"knemesis/internal/sim"
)

// simPeer is one rank of a sim job, bound to the rank's process. It is not
// safe to share across simulated processes.
type simPeer struct {
	j    *simJob
	rank int
	ep   *nemesis.Endpoint
	p    *sim.Proc

	// recvOps counts this rank's posted receives: the delayed-recv
	// perturbation's deterministic per-op RNG counter.
	recvOps uint64
	seq     int // collective tag sequence
}

// recvDelay models a perturbed receiver: sleep the sampled posting delay
// before the receive reaches the matching machinery. The sample is a pure
// function of (rank, op), so every run of the same spec draws identically.
func (p *simPeer) recvDelay() {
	set := p.j.pset
	if set == nil || set.RecvDelay == nil {
		return
	}
	op := p.recvOps
	p.recvOps++
	if d := set.RecvDelay(p.rank, op); d > 0 {
		p.p.Sleep(d)
	}
}

func (p *simPeer) Rank() int           { return p.rank }
func (p *simPeer) Size() int           { return p.j.size }
func (p *simPeer) NodeOf(rank int) int { return p.j.nodeOf(rank) }
func (p *simPeer) Elapsed() comm.Time  { return p.p.Now() }

// Alloc allocates rank-private memory.
func (p *simPeer) Alloc(n int64) comm.Buf { return p.ep.Space.Alloc(n) }

// AllocBench allocates rank-private memory with real simulated addresses
// but no real backing storage: cache and bus modelling is exact while
// copies skip payload movement (content operations on the result panic,
// see mem.Buffer).
func (p *simPeer) AllocBench(n int64) comm.Buf { return p.ep.Space.AllocPhantom(n) }

// simBuffer unwraps an engine-neutral handle back to simulated memory.
func simBuffer(b comm.Buf) *mem.Buffer {
	mb, ok := b.(*mem.Buffer)
	if !ok {
		panic(fmt.Sprintf("sim: buffer of type %T belongs to a different engine", b))
	}
	return mb
}

// region converts a Range to a simulated memory region.
func region(r comm.Range) mem.Region {
	return mem.Region{Buf: simBuffer(r.Buf), Off: r.Off, Len: r.Len}
}

// vec converts a Range to a one-region IOVec (nil for a zero Range).
func vec(r comm.Range) mem.IOVec {
	if r.Buf == nil {
		return nil
	}
	return mem.IOVec{region(r)}
}

// SendVec is the blocking send of a (possibly noncontiguous) vector: the
// KNEM backend moves a strided vector in one kernel pass, without packing.
func (p *simPeer) SendVec(dst, tag int, v mem.IOVec) { p.ep.Send(p.p, dst, tag, v) }

// RecvVec is the blocking receive into a (possibly noncontiguous) vector
// (comm.AnySource/comm.AnyTag allowed).
func (p *simPeer) RecvVec(src, tag int, v mem.IOVec) comm.Status {
	p.recvDelay()
	r := p.ep.Recv(p.p, src, tag, v)
	return comm.Status{Source: r.ActualSrc, Tag: r.ActualTag, Bytes: r.ActualSize}
}

func (p *simPeer) Send(dst, tag int, r comm.Range) { p.SendVec(dst, tag, vec(r)) }

func (p *simPeer) Recv(src, tag int, r comm.Range) comm.Status {
	return p.RecvVec(src, tag, vec(r))
}

// Isend and Irecv return the channel's own requests: *nemesis.SendReq and
// *nemesis.RecvReq are comm.Requests as they are.
func (p *simPeer) Isend(dst, tag int, r comm.Range) comm.Request {
	return p.ep.Isend(dst, tag, vec(r))
}

func (p *simPeer) Irecv(src, tag int, r comm.Range) comm.Request {
	p.recvDelay()
	return p.ep.Irecv(src, tag, vec(r))
}

// Wait blocks until the request completes, progressing the channel.
func (p *simPeer) Wait(req comm.Request) comm.Status {
	switch r := req.(type) {
	case *nemesis.SendReq:
		p.ep.Wait(p.p, r)
		return comm.Status{}
	case *nemesis.RecvReq:
		p.ep.Wait(p.p, r)
		return comm.Status{Source: r.ActualSrc, Tag: r.ActualTag, Bytes: r.ActualSize}
	}
	panic(fmt.Sprintf("sim: waiting on a %T request from a different engine", req))
}

func (p *simPeer) Waitall(reqs ...comm.Request) {
	for _, r := range reqs {
		p.Wait(r)
	}
}

// Sendrecv runs a send and a receive concurrently (the building block of
// pairwise exchanges).
func (p *simPeer) Sendrecv(dst, sendTag int, s comm.Range, src, recvTag int, rv comm.Range) comm.Status {
	sreq := p.Isend(dst, sendTag, s)
	rreq := p.Irecv(src, recvTag, rv)
	p.Wait(sreq)
	return p.Wait(rreq)
}

// CopyLocal is a modelled memcpy within the rank's own memory
// (phantom-safe — bench buffers charge cost, skip content).
func (p *simPeer) CopyLocal(dst, src comm.Range) {
	if dst.Len == 0 && src.Len == 0 {
		return
	}
	d, s := region(dst), region(src)
	if d.Len != s.Len {
		panic(fmt.Sprintf("mpi: CopyLocal length mismatch %d != %d", d.Len, s.Len))
	}
	p.ep.Ch.M.CopyRange(p.p, p.ep.Core, d, s, hw.CopyOpts{})
}

// Compute models base seconds of application computation streaming over
// the given working-set ranges (cache effects included).
func (p *simPeer) Compute(base comm.Time, ws ...comm.Range) {
	regions := make([]mem.Region, 0, len(ws))
	for _, r := range ws {
		regions = append(regions, region(r))
	}
	p.ep.Ch.M.Compute(p.p, p.ep.Core, base, regions...)
}

// Collectives run the comm algorithms over this peer, so every message and
// every local block copy is charged by the model. The two exchanges also
// announce their n-1 concurrent transfers to the channel: the §6
// collective-aware threshold hint, a no-op unless the LMT policy opts in.

func (p *simPeer) Barrier() { comm.GenericBarrier(p, &p.seq) }

func (p *simPeer) Bcast(root int, r comm.Range) { comm.GenericBcast(p, &p.seq, root, r) }

func (p *simPeer) Allreduce(r comm.Range, op comm.ReduceOp) {
	comm.GenericAllreduce(p, &p.seq, r, op)
}

func (p *simPeer) Alltoall(send, recv comm.Buf, block int64) {
	p.ep.Ch.EnterCollective(p.Size() - 1)
	defer p.ep.Ch.LeaveCollective()
	comm.GenericAlltoall(p, &p.seq, send, recv, block)
}

func (p *simPeer) Alltoallv(send comm.Buf, sendCounts, sendDispls []int64,
	recv comm.Buf, recvCounts, recvDispls []int64) {
	p.ep.Ch.EnterCollective(p.Size() - 1)
	defer p.ep.Ch.LeaveCollective()
	comm.GenericAlltoallv(p, &p.seq, send, sendCounts, sendDispls,
		recv, recvCounts, recvDispls)
}

// TypeVector builds a strided (noncontiguous) datatype over buf: count
// blocks of blockLen bytes separated by stride bytes — MPI_Type_vector.
// The KNEM backend transfers such vectors without packing.
func TypeVector(buf *mem.Buffer, count int, blockLen, stride int64) mem.IOVec {
	if stride < blockLen {
		panic("mpi: TypeVector stride smaller than block length")
	}
	var v mem.IOVec
	for i := 0; i < count; i++ {
		v = append(v, mem.Region{Buf: buf, Off: int64(i) * stride, Len: blockLen})
	}
	if err := v.Validate(); err != nil {
		panic(err)
	}
	return v
}
