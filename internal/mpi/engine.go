package mpi

import (
	"context"
	"fmt"
	"time"

	"knemesis/internal/comm"
	"knemesis/internal/core"
	"knemesis/internal/hw"
	"knemesis/internal/mem"
	"knemesis/internal/nemesis"
	"knemesis/internal/perturb"
	"knemesis/internal/sim"
	"knemesis/internal/topo"
)

// The "sim" engine: the deterministic discrete-event simulator behind every
// paper artefact, exposed through the engine-neutral comm interface. The
// adapter is a pass-through — every point-to-point call and local copy maps
// 1:1 onto an mpi.Comm operation, and the collectives are comm's algorithms
// built from those calls, so simulation results (and the recorded goldens)
// are bit-identical to the old direct entry points.

func init() {
	comm.Engines.Register(comm.Engine{
		Name:  "sim",
		Help:  "deterministic simulator of the paper's testbed (modelled caches, bus, KNEM, I/OAT)",
		Order: 1,
		NewJob: func(spec comm.JobSpec) (comm.Job, error) {
			lmt := spec.LMT
			if lmt == "" {
				lmt = string(core.DefaultLMT)
			}
			opt, err := core.ParseSpec(lmt)
			if err != nil {
				return nil, err
			}
			cfg := nemesis.Config{EagerMax: spec.EagerMax}
			if spec.Topology != nil {
				pl, err := spec.Place(spec.Ranks)
				if err != nil {
					return nil, err
				}
				cs := core.NewClusterStack(sim.NewEngine(), pl, opt, cfg)
				j := newClusterSimJob(cs, !spec.FlatCollectives).(*simJob)
				if err := j.installPerturb(spec); err != nil {
					return nil, err
				}
				return j, nil
			}
			m := spec.Machine
			if m == nil {
				m = topo.XeonE5345()
			}
			cores := spec.Cores
			if len(cores) == 0 {
				if spec.Ranks > m.Cores {
					return nil, fmt.Errorf("sim: machine %s has %d cores, requested %d ranks",
						m.Name, m.Cores, spec.Ranks)
				}
				cores = m.AllCores()[:spec.Ranks]
			}
			if len(cores) != spec.Ranks {
				return nil, fmt.Errorf("sim: %d cores pinned for %d ranks", len(cores), spec.Ranks)
			}
			j := NewSimJob(core.NewStack(m, cores, opt, cfg)).(*simJob)
			if err := j.installPerturb(spec); err != nil {
				return nil, err
			}
			return j, nil
		},
	})
}

// simJob adapts a wired stack (or multi-node cluster stack) to the
// engine-neutral Job interface.
type simJob struct {
	w    *World
	hier bool // wrap peers with the hierarchical collectives
	ran  bool
}

// NewSimJob wraps an existing simulated stack as an engine-neutral job: the
// bridge from a hand-built stack (the experiments build their own) to the
// comm drivers. The job runs once: when its Run returns, the stack's
// machines have handed their cache state back for later stacks to fill
// from (their statistics and usage stay readable), and a second Run
// returns an error.
func NewSimJob(st *core.Stack) comm.Job {
	return &simJob{w: NewWorld(st)}
}

// newClusterSimJob wraps a multi-node cluster stack; hier selects the
// topology-aware collectives (on by default for multi-node placements).
func newClusterSimJob(cs *core.ClusterStack, hier bool) comm.Job {
	w := NewClusterWorld(cs)
	return &simJob{w: w, hier: hier && w.MultiNode()}
}

// Cluster returns the underlying multi-node stack (nil for single-node
// jobs) — the hook topology tests and experiments use to read network stats.
func (j *simJob) Cluster() *core.ClusterStack { return j.w.Cluster }

func (j *simJob) Size() int { return j.w.Size }

func (j *simJob) Label() string { return j.w.nodes()[0].Ch.LMTName() }

// installPerturb installs the spec's perturbation set onto the simulated
// hardware (no-op for an empty list).
func (j *simJob) installPerturb(spec comm.JobSpec) error {
	if len(spec.Perturbations) == 0 {
		return nil
	}
	w := j.w
	t := &perturb.SimTarget{Eng: w.eng(), Ranks: w.Size,
		RankLoc: func(r int) (*hw.Machine, topo.CoreID) { ep := w.endpoint(r); return ep.Ch.M, ep.Core }}
	for _, s := range w.nodes() {
		t.Machines = append(t.Machines, s.M)
	}
	if w.Cluster != nil {
		t.Net = w.Cluster.Net
	}
	set, err := perturb.InstallSim(t, spec.Perturbations, spec.Seed)
	if err != nil {
		return err
	}
	w.SetPerturb(set)
	return nil
}

func (j *simJob) Run(app func(p comm.Peer)) error {
	return j.RunCtx(context.Background(), app)
}

// RunCtx runs the job under a context. A cancellation watcher stops the
// engine (re-asserting Stop until the event loop actually exits, since
// RunUntil clears the flag at entry); the dump is taken after the loop has
// returned — on this goroutine, so it races nothing — and Terminate then
// force-unwinds every remaining process. Terminate also runs after normal
// completion, reaping perturbation daemons parked mid-sleep, and when a
// rank's panic resurfaces from Run, reaping the ranks that survived it —
// so however RunCtx leaves, it leaves no goroutine behind, and nothing is
// left to touch a cache: every node machine then releases its cache state
// (hw.Machine.Release). The first call spends the job, even one cancelled
// before start; a later call returns an error.
func (j *simJob) RunCtx(ctx context.Context, app func(p comm.Peer)) error {
	if j.ran {
		return fmt.Errorf("sim: job %q (%d ranks) has already run: a sim job runs once", j.Label(), j.Size())
	}
	j.ran = true
	defer func() {
		for _, s := range j.w.nodes() {
			s.M.Release()
		}
	}()
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("sim: job cancelled before start: %w", err)
	}
	eng := j.w.eng()
	defer eng.Terminate()
	done := make(chan struct{})
	stopWatch := context.AfterFunc(ctx, func() {
		for {
			eng.Stop()
			select {
			case <-done:
				return
			case <-time.After(time.Millisecond):
			}
		}
	})
	defer stopWatch()
	defer close(done)
	_, err := j.w.Run(func(c *Comm) {
		var p comm.Peer = &simPeer{c: c}
		if j.hier {
			p = comm.WrapHier(p)
		}
		app(p)
	})
	if cerr := ctx.Err(); cerr != nil {
		return fmt.Errorf("sim: job cancelled: %w\n%s", cerr, eng.StateDump())
	}
	return err
}

// Usage aggregates over the per-node machines: one shared engine, one
// elapsed time; bus bytes, capacity and core seconds sum, and the bus
// utilisation is hw.UtilizationReport's formula over the sums.
func (j *simJob) Usage() comm.Usage {
	var out comm.Usage
	for _, s := range j.w.nodes() {
		u := s.M.UtilizationReport()
		out.Elapsed = u.Elapsed
		out.BusBytesServed += u.BusBytesServed
		out.BusCapacityBps += u.BusCapacityBps
		out.CoreBusySec = append(out.CoreBusySec, u.CoreBusySec...)
	}
	if secs := out.Elapsed.Seconds(); secs > 0 {
		out.BusUtilization = out.BusBytesServed / (out.BusCapacityBps * secs)
	}
	return out
}

func (j *simJob) MissLines() int64 {
	var total int64
	for _, s := range j.w.nodes() {
		total += s.M.L2MissLines()
	}
	return total
}

// simPeer adapts one rank's mpi.Comm to the engine-neutral Peer.
type simPeer struct {
	c   *Comm
	seq int // collective tag sequence
}

func (p *simPeer) Rank() int           { return p.c.Rank() }
func (p *simPeer) Size() int           { return p.c.Size() }
func (p *simPeer) NodeOf(rank int) int { return p.c.w.NodeOf(rank) }
func (p *simPeer) Elapsed() comm.Time  { return p.c.Now() }
func (p *simPeer) Alloc(n int64) comm.Buf {
	return p.c.Alloc(n)
}
func (p *simPeer) AllocBench(n int64) comm.Buf { return p.c.AllocPhantom(n) }

// simBuffer unwraps an engine-neutral handle back to simulated memory.
func simBuffer(b comm.Buf) *mem.Buffer {
	mb, ok := b.(*mem.Buffer)
	if !ok {
		panic(fmt.Sprintf("sim: buffer of type %T belongs to a different engine", b))
	}
	return mb
}

// vec converts a Range to the simulator's IOVec (nil for a zero Range).
func vec(r comm.Range) mem.IOVec {
	if r.Buf == nil {
		return nil
	}
	return mem.IOVec{{Buf: simBuffer(r.Buf), Off: r.Off, Len: r.Len}}
}

// regions converts working-set ranges for Compute.
func regions(ws []comm.Range) []mem.Region {
	out := make([]mem.Region, 0, len(ws))
	for _, r := range ws {
		out = append(out, mem.Region{Buf: simBuffer(r.Buf), Off: r.Off, Len: r.Len})
	}
	return out
}

func (p *simPeer) Send(dst, tag int, r comm.Range) { p.c.Send(dst, tag, vec(r)) }

func (p *simPeer) Recv(src, tag int, r comm.Range) comm.Status {
	return p.c.Recv(src, tag, vec(r))
}

func (p *simPeer) Isend(dst, tag int, r comm.Range) comm.Request {
	return p.c.Isend(dst, tag, vec(r))
}

func (p *simPeer) Irecv(src, tag int, r comm.Range) comm.Request {
	return p.c.Irecv(src, tag, vec(r))
}

func (p *simPeer) Wait(req comm.Request) comm.Status {
	r, ok := req.(*Request)
	if !ok {
		panic(fmt.Sprintf("sim: waiting on a %T request from a different engine", req))
	}
	return p.c.Wait(r)
}

func (p *simPeer) Waitall(reqs ...comm.Request) {
	for _, r := range reqs {
		p.Wait(r)
	}
}

func (p *simPeer) Sendrecv(dst, sendTag int, s comm.Range, src, recvTag int, rv comm.Range) comm.Status {
	return p.c.Sendrecv(dst, sendTag, vec(s), src, recvTag, vec(rv))
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
	p.c.ep.Ch.EnterCollective(p.Size() - 1)
	defer p.c.ep.Ch.LeaveCollective()
	comm.GenericAlltoall(p, &p.seq, send, recv, block)
}

func (p *simPeer) Alltoallv(send comm.Buf, sendCounts, sendDispls []int64,
	recv comm.Buf, recvCounts, recvDispls []int64) {
	p.c.ep.Ch.EnterCollective(p.Size() - 1)
	defer p.c.ep.Ch.LeaveCollective()
	comm.GenericAlltoallv(p, &p.seq, send, sendCounts, sendDispls,
		recv, recvCounts, recvDispls)
}

func (p *simPeer) CopyLocal(dst, src comm.Range) {
	if dst.Len == 0 && src.Len == 0 {
		return
	}
	p.c.CopyLocal(mem.Region{Buf: simBuffer(dst.Buf), Off: dst.Off, Len: dst.Len},
		mem.Region{Buf: simBuffer(src.Buf), Off: src.Off, Len: src.Len})
}

func (p *simPeer) Compute(base comm.Time, ws ...comm.Range) {
	p.c.Compute(base, regions(ws)...)
}
