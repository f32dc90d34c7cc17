// Package mpi implements the MPI point-to-point subset the paper's
// benchmarks need on top of the Nemesis channel: blocking and nonblocking
// sends and receives with tag matching, derived (strided) datatypes, and a
// cost-modelled local copy. Its "sim" engine adapter (engine.go) exposes a
// rank as a comm.Peer, whose collectives are the comm package's algorithms
// run over these primitives.
package mpi

import (
	"fmt"

	"knemesis/internal/comm"
	"knemesis/internal/core"
	"knemesis/internal/hw"
	"knemesis/internal/mem"
	"knemesis/internal/nemesis"
	"knemesis/internal/perturb"
	"knemesis/internal/sim"
	"knemesis/internal/topo"
)

// World is one MPI job on a simulated machine — or, when built from a
// ClusterStack, on several machines joined by the modelled network.
type World struct {
	Stack   *core.Stack        // single-node job (nil when clustered)
	Cluster *core.ClusterStack // multi-node job (nil on a single node)
	Size    int

	// pset is the installed perturbation set (nil unperturbed); the only
	// part the MPI layer consults directly is the receive-posting delay.
	pset *perturb.SimSet
}

// SetPerturb attaches an installed perturbation set: Recv/Irecv consult its
// RecvDelay hook before posting. Call before Run.
func (w *World) SetPerturb(set *perturb.SimSet) { w.pset = set }

// NewWorld wraps a stack (one MPI rank per channel endpoint).
func NewWorld(st *core.Stack) *World {
	return &World{Stack: st, Size: len(st.Ch.Endpoints)}
}

// NewClusterWorld wraps a multi-node cluster stack: ranks keep their global
// numbers, intra-node traffic rides each node's Nemesis channel, inter-node
// traffic the network.
func NewClusterWorld(cs *core.ClusterStack) *World {
	return &World{Cluster: cs, Size: cs.Size()}
}

// MultiNode reports whether the job spans more than one cluster node.
func (w *World) MultiNode() bool {
	return w.Cluster != nil && w.Cluster.Place.MultiNode()
}

// NodeOf returns the cluster node index of a rank (0 for all ranks of a
// single-node world).
func (w *World) NodeOf(rank int) int {
	if w.Cluster == nil {
		return 0
	}
	return w.Cluster.Place.NodeOf[rank]
}

// nodes returns the per-node stacks: the one stack, or every cluster node.
func (w *World) nodes() []*core.Stack {
	if w.Cluster != nil {
		return w.Cluster.Nodes
	}
	return []*core.Stack{w.Stack}
}

func (w *World) eng() *sim.Engine {
	if w.Cluster != nil {
		return w.Cluster.Eng
	}
	return w.Stack.M.Eng
}

func (w *World) endpoint(rank int) *nemesis.Endpoint {
	if w.Cluster != nil {
		return w.Cluster.Endpoint(rank)
	}
	return w.Stack.Ch.Endpoints[rank]
}

// Comm is a rank's handle, bound to the rank's process. It is not safe to
// share across simulated processes.
type Comm struct {
	w    *World
	rank int
	ep   *nemesis.Endpoint
	p    *sim.Proc

	// recvOps counts this rank's posted receives: the delayed-recv
	// perturbation's deterministic per-op RNG counter.
	recvOps uint64
}

// recvDelay models a perturbed receiver: sleep the sampled posting delay
// before the receive reaches the matching machinery. The sample is a pure
// function of (rank, op), so every run of the same spec draws identically.
func (c *Comm) recvDelay() {
	set := c.w.pset
	if set == nil || set.RecvDelay == nil {
		return
	}
	op := c.recvOps
	c.recvOps++
	if d := set.RecvDelay(c.rank, op); d > 0 {
		c.p.Sleep(d)
	}
}

// Run spawns one process per rank executing app and runs the simulation to
// completion. It returns the engine error (deadlocks included) and the
// simulated time at exit.
func (w *World) Run(app func(c *Comm)) (sim.Time, error) {
	for rank := 0; rank < w.Size; rank++ {
		rank := rank
		ep := w.endpoint(rank)
		w.eng().Spawn(fmt.Sprintf("mpi-rank%d", rank), func(p *sim.Proc) {
			app(&Comm{w: w, rank: rank, ep: ep, p: p})
		})
	}
	err := w.eng().Run()
	return w.eng().Now(), err
}

// Rank returns the calling rank.
func (c *Comm) Rank() int { return c.rank }

// Size returns the job size.
func (c *Comm) Size() int { return c.w.Size }

// Core returns the core this rank is bound to.
func (c *Comm) Core() topo.CoreID { return c.ep.Core }

// Proc exposes the simulated process (for Sleep/Now).
func (c *Comm) Proc() *sim.Proc { return c.p }

// Now returns the simulated time.
func (c *Comm) Now() sim.Time { return c.p.Now() }

// Alloc allocates rank-private memory.
func (c *Comm) Alloc(n int64) *mem.Buffer { return c.ep.Space.Alloc(n) }

// AllocPhantom allocates rank-private memory with real simulated addresses
// but no real backing storage: cache and bus modelling is exact while
// copies skip payload movement. For benchmark sweeps whose content is never
// verified (content operations on the result panic, see mem.Buffer).
func (c *Comm) AllocPhantom(n int64) *mem.Buffer { return c.ep.Space.AllocPhantom(n) }

// Space returns the rank's private address space.
func (c *Comm) Space() *mem.Space { return c.ep.Space }

// Compute models base seconds of application computation streaming over the
// given working-set regions (cache effects included).
func (c *Comm) Compute(base sim.Time, ws ...mem.Region) {
	c.ep.Ch.M.Compute(c.p, c.ep.Core, base, ws...)
}

// CopyLocal is the engine-neutral local copy: modelled memcpy within the
// rank's own memory (phantom-safe — bench buffers charge cost, skip content).
func (c *Comm) CopyLocal(dst, src mem.Region) {
	if dst.Len != src.Len {
		panic(fmt.Sprintf("mpi: CopyLocal length mismatch %d != %d", dst.Len, src.Len))
	}
	if dst.Len == 0 {
		return
	}
	c.ep.Ch.M.CopyRange(c.p, c.ep.Core, dst, src, hw.CopyOpts{})
}

// Status describes a completed receive.
type Status = comm.Status

// Request is a nonblocking operation handle.
type Request struct {
	send *nemesis.SendReq
	recv *nemesis.RecvReq
}

// Done reports completion without blocking.
func (r *Request) Done() bool {
	if r.send != nil {
		return r.send.Done()
	}
	return r.recv.Done()
}

// Isend starts a nonblocking send of vec to dst.
func (c *Comm) Isend(dst, tag int, vec mem.IOVec) *Request {
	return &Request{send: c.ep.Isend(dst, tag, vec)}
}

// Irecv starts a nonblocking receive (comm.AnySource/comm.AnyTag allowed).
func (c *Comm) Irecv(src, tag int, vec mem.IOVec) *Request {
	c.recvDelay()
	return &Request{recv: c.ep.Irecv(src, tag, vec)}
}

// Wait blocks until the request completes, progressing the channel.
func (c *Comm) Wait(r *Request) Status {
	if r.send != nil {
		c.ep.Wait(c.p, r.send)
		return Status{}
	}
	c.ep.Wait(c.p, r.recv)
	return Status{Source: r.recv.ActualSrc, Tag: r.recv.ActualTag, Bytes: r.recv.ActualSize}
}

// Waitall completes all requests.
func (c *Comm) Waitall(reqs ...*Request) {
	for _, r := range reqs {
		c.Wait(r)
	}
}

// Send is the blocking send.
func (c *Comm) Send(dst, tag int, vec mem.IOVec) { c.ep.Send(c.p, dst, tag, vec) }

// Recv is the blocking receive.
func (c *Comm) Recv(src, tag int, vec mem.IOVec) Status {
	c.recvDelay()
	req := c.ep.Recv(c.p, src, tag, vec)
	return Status{Source: req.ActualSrc, Tag: req.ActualTag, Bytes: req.ActualSize}
}

// Sendrecv runs a send and a receive concurrently (the building block of
// pairwise exchanges).
func (c *Comm) Sendrecv(dst, sendTag int, sendVec mem.IOVec, src, recvTag int, recvVec mem.IOVec) Status {
	s := c.Isend(dst, sendTag, sendVec)
	r := c.Irecv(src, recvTag, recvVec)
	c.Wait(s)
	return c.Wait(r)
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
