package main

import (
	"fmt"
	"math/rand"
	"time"

	"knemesis/internal/comm"
	"knemesis/internal/core"
	"knemesis/internal/imb"
	"knemesis/internal/knem"
	"knemesis/internal/mpi"
	"knemesis/internal/nemesis"
	"knemesis/internal/topo"
	"knemesis/internal/units"
)

// simCase is one sim-figs op: build a fresh stack on the paper's testbed
// and run one IMB driver at one size. sim is the simulated MiB/s (aggregate
// for the collective and multipair drivers), which must equal simTable.
type simCase struct {
	name  string
	cores func(m *topo.Machine) []topo.CoreID
	opt   core.Options
	cfg   nemesis.Config
	run   func(j comm.Job, size int64) (float64, error)
	size  int64
}

func runPingPong(j comm.Job, size int64) (float64, error) {
	res, err := imb.RunPingPong(j, []int64{size})
	if err != nil {
		return 0, err
	}
	return res.Points[0].Throughput, nil
}

func runAlltoall(j comm.Job, size int64) (float64, error) {
	res, err := imb.RunAlltoall(j, []int64{size})
	if err != nil {
		return 0, err
	}
	return res.Points[0].Throughput, nil
}

func runMultiPingPong(j comm.Job, size int64) (float64, error) {
	res, err := imb.RunMultiPingPong(j, []int64{size})
	if err != nil {
		return 0, err
	}
	return res.Points[0].Throughput, nil
}

func sharedPair(m *topo.Machine) []topo.CoreID {
	a, b := m.PairSharedCache()
	return []topo.CoreID{a, b}
}

func crossPair(m *topo.Machine) []topo.CoreID {
	a, b := m.PairDifferentDies()
	return []topo.CoreID{a, b}
}

func fourCrossPairs(m *topo.Machine) []topo.CoreID {
	pairs, err := m.CrossDiePairs(4)
	if err != nil {
		panic(err) // the E5345 hosts four cross-die pairs
	}
	return topo.PairCores(pairs)
}

type simBackend struct {
	name string
	opt  core.Options
}

// pingPongBackends is the Fig. 3-6 backend axis: the six LMT curves plus
// the four pinned KNEM receive modes of Fig. 6.
func pingPongBackends() []simBackend {
	out := []simBackend{
		{"default", core.Options{Kind: core.DefaultLMT}},
		{"vmsplice", core.Options{Kind: core.VmspliceLMT}},
		{"vmsplice-writev", core.Options{Kind: core.VmspliceWritevLMT}},
		{"knem", core.Options{Kind: core.KnemLMT, IOAT: core.IOATOff}},
		{"knem-ioat", core.Options{Kind: core.KnemLMT, IOAT: core.IOATAlways}},
		{"cma", core.Options{Kind: core.CMALMT}},
	}
	for _, md := range []knem.Mode{knem.SyncCopy, knem.AsyncKThread, knem.SyncIOAT, knem.AsyncIOAT} {
		md := md
		out = append(out, simBackend{"knem-mode-" + modeSlug(md), core.Options{Kind: core.KnemLMT, ForceKnemMode: &md}})
	}
	return out
}

func modeSlug(md knem.Mode) string {
	switch md {
	case knem.SyncCopy:
		return "sync"
	case knem.AsyncKThread:
		return "async-kthread"
	case knem.SyncIOAT:
		return "sync-ioat"
	default:
		return "async-ioat"
	}
}

var simSizes = []int64{256 * units.KiB, 1 * units.MiB, 4 * units.MiB}

// simCases is the op mix of one pass: the Fig. 3-6 PingPong grid, the
// Fig. 7 8-rank Alltoall and the 4-pair cross-die 1 MiB contention cases.
func simCases() []simCase {
	var out []simCase
	for _, b := range pingPongBackends() {
		for _, pl := range []struct {
			name  string
			cores func(*topo.Machine) []topo.CoreID
		}{{"shared", sharedPair}, {"cross", crossPair}} {
			for _, size := range simSizes {
				out = append(out, simCase{
					name:  fmt.Sprintf("pingpong/%s/%s/%s", b.name, pl.name, units.FormatSize(size)),
					cores: pl.cores, opt: b.opt, run: runPingPong, size: size,
				})
			}
		}
	}
	all := func(m *topo.Machine) []topo.CoreID { return m.AllCores() }
	for _, b := range []struct {
		name string
		opt  core.Options
		cfg  nemesis.Config
	}{
		{"default", core.Options{Kind: core.DefaultLMT}, nemesis.Config{}},
		{"knem", core.Options{Kind: core.KnemLMT, IOAT: core.IOATOff}, nemesis.Config{EagerMax: 4 * units.KiB}},
		{"knem-ioat", core.Options{Kind: core.KnemLMT, IOAT: core.IOATAlways}, nemesis.Config{EagerMax: 4 * units.KiB}},
	} {
		for _, size := range []int64{32 * units.KiB, 256 * units.KiB} {
			out = append(out, simCase{
				name:  fmt.Sprintf("alltoall8/%s/%s", b.name, units.FormatSize(size)),
				cores: all, opt: b.opt, cfg: b.cfg, run: runAlltoall, size: size,
			})
		}
	}
	for _, kind := range core.Names() {
		out = append(out, simCase{
			name:  fmt.Sprintf("multipair4/%s/cross/1MiB", kind),
			cores: fourCrossPairs, opt: core.Options{Kind: kind}, run: runMultiPingPong, size: 1 * units.MiB,
		})
	}
	return out
}

// exec runs the case on a fresh stack and returns its simulated MiB/s. The
// stack is handed to observe (if non-nil) before the run and after it, so
// layer probes can install an event trace and read counters.
func (c simCase) exec(tr *tracer, parent, op int, observe func(st *core.Stack, done bool)) (float64, error) {
	m := topo.XeonE5345()
	s := tr.begin("core.NewStack", parent, op)
	st := core.NewStack(m, c.cores(m), c.opt, c.cfg)
	tr.end(s)
	if observe != nil {
		observe(st, false)
	}
	s = tr.begin("imb.Run", parent, op)
	mibps, err := c.run(mpi.NewSimJob(st), c.size)
	tr.end(s)
	if observe != nil {
		observe(st, true)
	}
	return mibps, err
}

// simPasses is how many times a round walks the op mix.
const simPasses = 2

type simInstance struct {
	cases []simCase
	order [][]int // per round, the op order of its passes (from the seed)
}

// newSimFigs is the paper reproduction itself: every op spends its time in
// sim/hw/cache/kernel/knem/ioat/nemesis/core/mpi/imb and none in rt or
// serve. The small ops are hand-off bound, the 4 MiB ops cache-model bound.
func newSimFigs() *workload {
	cases := simCases()
	return &workload{
		name:     "sim-figs",
		why:      "the paper's Fig. 3-7 grid on the simulator: all time in sim/hw/cache/kernel/knem/ioat/nemesis/core/mpi/imb, none in rt or serve; p50 is a hand-off-bound op, p90 a cache-model-bound 4 MiB op",
		ops:      simPasses * len(cases),
		procs:    1, // goroutine procs bounce between threads at GOMAXPROCS>1 (README, finding 3)
		rate:     0.9,
		newProbe: func(string) (*probe, error) { return newSimProbe(), nil },
		setup: func(env *runEnv) (instance, error) {
			return &simInstance{cases: cases, order: simOrders(env.seed, len(cases), env.rounds+1)}, nil
		},
	}
}

// simOrders derives every round's op order from the seed: the seed changes
// only the order the fixed op mix is walked in.
func simOrders(seed uint64, n, rounds int) [][]int {
	rng := rand.New(rand.NewSource(int64(seed)))
	out := make([][]int, rounds)
	for r := range out {
		for p := 0; p < simPasses; p++ {
			out[r] = append(out[r], rng.Perm(n)...)
		}
	}
	return out
}

func (s *simInstance) round(r int, lat []float64, tr *tracer) (float64, int) {
	failed := 0
	start := time.Now()
	for i, ci := range s.order[r%len(s.order)] {
		c := s.cases[ci]
		t0 := time.Now()
		root := tr.begin(c.name, 0, i+1)
		mibps, err := c.exec(tr, root, i+1, nil)
		tr.end(root)
		lat[i] = time.Since(t0).Seconds()
		if err != nil || mibps != simTable[c.name] {
			failed++
		}
	}
	return time.Since(start).Seconds(), failed
}

func (s *simInstance) close() {}
