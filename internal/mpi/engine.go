package mpi

import (
	"context"
	"fmt"
	"time"

	"knemesis/internal/comm"
	"knemesis/internal/core"
	"knemesis/internal/hw"
	"knemesis/internal/nemesis"
	"knemesis/internal/perturb"
	"knemesis/internal/sim"
	"knemesis/internal/topo"
)

// The "sim" engine: the deterministic discrete-event simulator behind every
// paper artefact, exposed through the engine-neutral comm interface. A
// simJob is the job and a simPeer (mpi.go) each of its ranks; the
// collectives are comm's algorithms built from the ranks' point-to-point
// calls.

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
			var j *simJob
			if spec.Topology != nil {
				pl, err := spec.Place(spec.Ranks)
				if err != nil {
					return nil, err
				}
				j = newClusterSimJob(core.NewClusterStack(sim.NewEngine(), pl, opt, cfg), !spec.FlatCollectives)
			} else {
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
				j = NewSimJob(core.NewStack(m, cores, opt, cfg)).(*simJob)
			}
			if err := j.installPerturb(spec); err != nil {
				return nil, err
			}
			return j, nil
		},
	})
}

// simJob is one MPI job on a wired stack — or, when built from a cluster
// stack, on several machines joined by the modelled network.
type simJob struct {
	stack   *core.Stack        // single-node job (nil when clustered)
	cluster *core.ClusterStack // multi-node job (nil on a single node)
	size    int
	hier    bool // wrap peers with the hierarchical collectives
	ran     bool

	// pset is the installed perturbation set (nil unperturbed); the only
	// part the ranks consult directly is the receive-posting delay.
	pset *perturb.SimSet
}

// NewSimJob wraps an existing simulated stack (one rank per channel
// endpoint) as an engine-neutral job: the bridge from a hand-built stack
// (the experiments build their own) to the comm drivers. The job runs
// once: when its Run returns, the stack's machines have handed their cache
// state back for later stacks to fill from (their statistics and usage
// stay readable), and a second Run returns an error.
func NewSimJob(st *core.Stack) comm.Job {
	return &simJob{stack: st, size: len(st.Ch.Endpoints)}
}

// newClusterSimJob wraps a multi-node cluster stack: ranks keep their
// global numbers, intra-node traffic rides each node's Nemesis channel,
// inter-node traffic the network. hier selects the topology-aware
// collectives (on by default for multi-node placements).
func newClusterSimJob(cs *core.ClusterStack, hier bool) *simJob {
	return &simJob{cluster: cs, size: cs.Size(), hier: hier && cs.Place.MultiNode()}
}

// nodes returns the per-node stacks: the one stack, or every cluster node.
func (j *simJob) nodes() []*core.Stack {
	if j.cluster != nil {
		return j.cluster.Nodes
	}
	return []*core.Stack{j.stack}
}

// eng returns the job's engine: every node machine runs on the same one.
func (j *simJob) eng() *sim.Engine { return j.nodes()[0].M.Eng }

func (j *simJob) endpoint(rank int) *nemesis.Endpoint {
	if j.cluster != nil {
		return j.cluster.Endpoint(rank)
	}
	return j.stack.Ch.Endpoints[rank]
}

// nodeOf returns the cluster node index of a rank (0 for all ranks of a
// single-node job).
func (j *simJob) nodeOf(rank int) int {
	if j.cluster == nil {
		return 0
	}
	return j.cluster.Place.NodeOf[rank]
}

// Cluster returns the underlying multi-node stack (nil for single-node
// jobs) — the hook topology tests and experiments use to read network stats.
func (j *simJob) Cluster() *core.ClusterStack { return j.cluster }

func (j *simJob) Size() int { return j.size }

func (j *simJob) Label() string { return j.nodes()[0].Ch.LMTName() }

// installPerturb installs the spec's perturbation set onto the simulated
// hardware (no-op for an empty list).
func (j *simJob) installPerturb(spec comm.JobSpec) error {
	if len(spec.Perturbations) == 0 {
		return nil
	}
	t := &perturb.SimTarget{Eng: j.eng(), Ranks: j.size,
		RankLoc: func(r int) (*hw.Machine, topo.CoreID) { ep := j.endpoint(r); return ep.Ch.M, ep.Core }}
	for _, s := range j.nodes() {
		t.Machines = append(t.Machines, s.M)
	}
	if j.cluster != nil {
		t.Net = j.cluster.Net
	}
	set, err := perturb.InstallSim(t, spec.Perturbations, spec.Seed)
	if err != nil {
		return err
	}
	j.pset = set
	return nil
}

func (j *simJob) Run(app func(p comm.Peer)) error {
	return j.RunCtx(context.Background(), app)
}

// RunCtx spawns one process per rank executing app and runs the job under
// a context. A cancellation watcher stops the engine (re-asserting Stop
// until the event loop actually exits, since RunUntil clears the flag at
// entry); the dump is taken after the loop has returned — on this
// goroutine, so it races nothing — and Terminate then force-unwinds every
// remaining process. Terminate also runs after normal completion, reaping
// perturbation daemons parked mid-sleep, and when a rank's panic resurfaces
// from Run, reaping the ranks that survived it — so however RunCtx leaves,
// it leaves no goroutine behind, and nothing is left to touch a cache:
// every node machine then releases its cache state (hw.Machine.Release).
// The first call spends the job, even one cancelled before start; a later
// call returns an error.
func (j *simJob) RunCtx(ctx context.Context, app func(p comm.Peer)) error {
	if j.ran {
		return fmt.Errorf("sim: job %q (%d ranks) has already run: a sim job runs once", j.Label(), j.Size())
	}
	j.ran = true
	defer func() {
		for _, s := range j.nodes() {
			s.M.Release()
		}
	}()
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("sim: job cancelled before start: %w", err)
	}
	eng := j.eng()
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
	for rank := 0; rank < j.size; rank++ {
		ep := j.endpoint(rank)
		eng.Spawn(fmt.Sprintf("mpi-rank%d", rank), func(proc *sim.Proc) {
			var p comm.Peer = &simPeer{j: j, rank: rank, ep: ep, p: proc}
			if j.hier {
				p = comm.WrapHier(p)
			}
			app(p)
		})
	}
	err := eng.Run()
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
	for _, s := range j.nodes() {
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
	for _, s := range j.nodes() {
		total += s.M.L2MissLines()
	}
	return total
}
