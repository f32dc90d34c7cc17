package mpi

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"knemesis/internal/comm"
	"knemesis/internal/core"
	"knemesis/internal/hw"
	"knemesis/internal/nemesis"
	"knemesis/internal/perturb"
	"knemesis/internal/sim"
	"knemesis/internal/topo"
	"knemesis/internal/units"
)

// Seeded determinism of the perturbation layer on the simulator: a
// perturbed workload — slowed core, saturated bus, MMPP noise bursts,
// delayed receivers, degraded, jittery and flapping links — must produce
// byte-identical artefacts (timestamps, message accounting, the full
// executed-event trace) across repeat runs of the same (spec, seed). Every
// perturbation draw is a counter-based pure function of (seed, stream,
// counter), so nothing but the spec and the seed can move it.

// perturbArtefacts is everything a single-node perturbed run is compared
// on: per-rank observed timestamps, final simulated time, channel message
// accounting and the executed-event trace.
type perturbArtefacts struct {
	obs       [][]sim.Time
	final     sim.Time
	eager     int64
	rndv      int64
	bytesSent int64
	trace     []traceRec
}

// clusterPerturbArtefacts is the multi-node variant: per-node channel and
// network accounting in place of one channel's.
type clusterPerturbArtefacts struct {
	obs      [][]sim.Time
	final    sim.Time
	eager    int64
	rndv     int64
	netPkts  int64
	netHops  int64
	netEager int64
	netRndv  int64
	trace    []traceRec
}

// traceRec is one executed event, as the engine's trace observer saw it.
type traceRec struct {
	at  sim.Time
	seq uint64
}

// recordTrace appends every event eng executes to *trace.
func recordTrace(eng *sim.Engine, trace *[]traceRec) {
	eng.SetTrace(func(at sim.Time, seq uint64, _ sim.Domain) {
		*trace = append(*trace, traceRec{at, seq})
	})
}

func perturbSpecs(t *testing.T) []perturb.Spec {
	t.Helper()
	var specs []perturb.Spec
	for _, s := range []string{
		"slow-core:rank=1,factor=0.4",
		"sat-bus:load=0.3,streams=2",
		"noisy-rank:rank=2,rate=200000",
		"delayed-recv:mean=2e-6,dist=exp",
	} {
		sp, err := perturb.ParseSpec(s)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, sp)
	}
	return specs
}

// runPerturbedWorkload runs a fixed traffic mix under the given
// perturbation set and returns the comparison artefacts.
func runPerturbedWorkload(t *testing.T, specs []perturb.Spec, seed uint64, ranks int) perturbArtefacts {
	t.Helper()
	m := topo.XeonE5345()
	st := core.NewStack(m, m.AllCores()[:ranks], core.Options{Kind: core.KnemLMT}, nemesis.Config{})
	eng := st.M.Eng
	j := NewSimJob(st).(*simJob)

	target := &perturb.SimTarget{
		Eng:      eng,
		Machines: []*hw.Machine{st.M},
		Ranks:    ranks,
		RankLoc:  func(r int) (*hw.Machine, topo.CoreID) { return st.M, st.Ch.Endpoints[r].Core },
	}
	set, err := perturb.InstallSim(target, specs, seed)
	if err != nil {
		t.Fatal(err)
	}
	j.pset = set

	art := perturbArtefacts{obs: make([][]sim.Time, ranks)}
	recordTrace(eng, &art.trace)

	final, err := runRanks(j, func(c *simPeer) {
		buf := alloc(c, 192*units.KiB)
		rbuf := alloc(c, 192*units.KiB)
		note := func() { art.obs[c.Rank()] = append(art.obs[c.Rank()], c.Elapsed()) }
		for iter := 0; iter < 3; iter++ {
			for _, size := range []int64{1024, 180 * units.KiB} {
				peer := (c.Rank() + 1) % c.Size()
				prev := (c.Rank() - 1 + c.Size()) % c.Size()
				c.Sendrecv(peer, iter, comm.Whole(buf.Slice(0, size)),
					prev, iter, comm.Whole(rbuf.Slice(0, size)))
				note()
			}
			c.Compute(2*sim.Microsecond, comm.R(buf, 0, 64*units.KiB))
			c.Barrier()
			note()
		}
	})
	if err != nil {
		t.Fatalf("perturbed run: %v", err)
	}
	art.final = final
	art.eager, art.rndv = st.Ch.EagerMsgs, st.Ch.RndvMsgs
	art.bytesSent = st.Ch.BytesSent
	return art
}

func TestPerturbedRepeatRunDeterminism(t *testing.T) {
	specs := perturbSpecs(t)
	const seed = 99
	a := runPerturbedWorkload(t, specs, seed, 4)
	b := runPerturbedWorkload(t, specs, seed, 4)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same (spec, seed) produced different artefacts across runs")
	}
}

// A different seed must actually change the perturbed timing — the layer
// is seeded, not decorative.
func TestPerturbedSeedMatters(t *testing.T) {
	specs := perturbSpecs(t)
	a := runPerturbedWorkload(t, specs, 1, 4)
	b := runPerturbedWorkload(t, specs, 2, 4)
	if a.final == b.final && reflect.DeepEqual(a.obs, b.obs) {
		t.Fatal("seeds 1 and 2 produced identical perturbed timelines")
	}
}

// runPerturbedClusterWorkload is the multi-node variant: mixed intra- and
// inter-node traffic over the modeled network with the link perturbations
// (degraded bandwidth, delivery jitter, flapping) plus a delayed receiver.
// The jitter path exercises the per-connection delivery-order clamp: jitter
// must never reorder a pair's deliveries.
func runPerturbedClusterWorkload(t *testing.T, seed uint64) clusterPerturbArtefacts {
	t.Helper()
	cl := topo.TwoNode(2, 1*sim.Microsecond, 1.25e9)
	pl, err := cl.Place(4)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	cs := core.NewClusterStack(eng, pl, core.Options{Kind: core.KnemLMT}, nemesis.Config{})
	j := newClusterSimJob(cs, false)

	var machines []*hw.Machine
	for _, s := range cs.Nodes {
		machines = append(machines, s.M)
	}
	target := &perturb.SimTarget{
		Eng:      eng,
		Machines: machines,
		Net:      cs.Net,
		Ranks:    j.size,
		RankLoc:  func(r int) (*hw.Machine, topo.CoreID) { return cs.Endpoint(r).Ch.M, pl.CoreOf[r] },
	}
	var specs []perturb.Spec
	for _, s := range []string{
		"link-degrade:factor=0.5",
		"link-jitter:mean=3e-6",
		"link-flap:period=1e-4,down=0.3,factor=0.01",
		"delayed-recv:mean=2e-6",
	} {
		sp, err := perturb.ParseSpec(s)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, sp)
	}
	set, err := perturb.InstallSim(target, specs, seed)
	if err != nil {
		t.Fatal(err)
	}
	j.pset = set

	art := clusterPerturbArtefacts{obs: make([][]sim.Time, j.size)}
	recordTrace(eng, &art.trace)
	final, err := runRanks(j, func(c *simPeer) {
		buf := alloc(c, 192*units.KiB)
		rbuf := alloc(c, 192*units.KiB)
		note := func() { art.obs[c.Rank()] = append(art.obs[c.Rank()], c.Elapsed()) }
		for iter := 0; iter < 3; iter++ {
			for _, size := range []int64{1024, 180 * units.KiB} {
				peer := (c.Rank() + 1) % c.Size()
				prev := (c.Rank() - 1 + c.Size()) % c.Size()
				c.Sendrecv(peer, iter, comm.Whole(buf.Slice(0, size)),
					prev, iter, comm.Whole(rbuf.Slice(0, size)))
				note()
			}
			c.Barrier()
			note()
		}
	})
	if err != nil {
		t.Fatalf("perturbed cluster run: %v", err)
	}
	art.final = final
	for _, s := range cs.Nodes {
		art.eager += s.Ch.EagerMsgs
		art.rndv += s.Ch.RndvMsgs
	}
	art.netPkts = cs.Net.Msgs
	art.netHops = cs.Net.ByteHops
	art.netEager = cs.Net.EagerMsgs
	art.netRndv = cs.Net.RndvMsgs
	return art
}

func TestPerturbedClusterRepeatRunDeterminism(t *testing.T) {
	const seed = 13
	a := runPerturbedClusterWorkload(t, seed)
	if a.netPkts == 0 {
		t.Fatal("workload sent no network traffic; link perturbations untested")
	}
	b := runPerturbedClusterWorkload(t, seed)
	if !reflect.DeepEqual(a.trace, b.trace) {
		t.Fatalf("perturbed cluster event trace diverged across runs (%d vs %d events)",
			len(a.trace), len(b.trace))
	}
	a.trace, b.trace = nil, nil
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same (spec, seed) produced different cluster artefacts:\nrun 1: %+v\nrun 2: %+v", a, b)
	}
}

// An unperturbed run and a perturbed one must differ in modeled time: the
// perturbations inject real modeled contention, not no-ops.
func TestPerturbationsChangeTiming(t *testing.T) {
	perturbed := runPerturbedWorkload(t, perturbSpecs(t), 7, 4)
	clean := runPerturbedWorkload(t, nil, 7, 4)
	if perturbed.final <= clean.final {
		t.Fatalf("perturbed run (%v) not slower than clean run (%v)",
			perturbed.final, clean.final)
	}
}

// A rank perturbation lands on the rank's own host. The switch presets list
// their switches among the cluster nodes, so a rank's cluster node index is
// no index into the used hosts: slow-core on the last rank must lower
// exactly that rank's core capacity, under block and spread placement.
func TestPerturbSlowCoreHitsItsRankOnSwitchTopologies(t *testing.T) {
	const ranks = 6
	slow, err := perturb.ParseList(fmt.Sprintf("slow-core:rank=%d,factor=0.5", ranks-1))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"four-node", "fat-tree-16", "dragonfly-24"} {
		for _, placement := range []string{"block", "spread"} {
			capacities := func(specs []perturb.Spec) (*core.ClusterStack, [][]float64) {
				cl, err := topo.LookupCluster(name)
				if err != nil {
					t.Fatal(err)
				}
				job, err := comm.NewJob("sim", comm.JobSpec{Ranks: ranks, Topology: cl,
					Placement: placement, Perturbations: specs, Seed: 1})
				if err != nil {
					t.Fatal(err)
				}
				cs := job.(*simJob).Cluster()
				caps := make([][]float64, len(cs.Nodes))
				for i, s := range cs.Nodes {
					for _, c := range s.M.Cores {
						caps[i] = append(caps[i], c.CPU.Capacity())
					}
				}
				return cs, caps
			}
			_, clean := capacities(nil)
			cs, got := capacities(slow)
			host := slices.Index(cs.Place.UsedHosts(), cs.Place.NodeOf[ranks-1])
			victim := int(cs.Place.CoreOf[ranks-1])
			for i := range clean {
				for c, want := range clean[i] {
					if i == host && c == victim {
						want *= 0.5
					}
					if got[i][c] != want {
						t.Errorf("%s/%s: host %d core %d capacity %v, want %v", name, placement, i, c, got[i][c], want)
					}
				}
			}
		}
	}
}
