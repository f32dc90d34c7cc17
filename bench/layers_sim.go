package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"knemesis/internal/cache"
	"knemesis/internal/core"
	"knemesis/internal/hw"
	"knemesis/internal/imb"
	"knemesis/internal/mem"
	"knemesis/internal/sim"
	"knemesis/internal/topo"
	"knemesis/internal/units"
)

// layerBackends are the backends the per-backend layer metrics cover: the
// paper's four table columns plus CMA.
var layerBackends = []string{"default", "vmsplice", "knem", "knem-ioat", "cma"}

// simPassStats is what one walk over the sim-figs op mix measured.
type simPassStats struct {
	secs   float64
	wall   map[string]float64 // case -> host seconds
	mibps  map[string]float64 // case -> simulated MiB/s
	events int64
	eager  int64
	rndv   int64
	bytes  int64
	l2     cache.Stats
	bus    map[string]float64 // case -> whole-run bus utilisation
}

// simPass walks the op mix once in catalogue order. With count set it also
// installs an event trace on every engine and reads the layers' counters
// after every op (exact counts; the walk's time is then not used).
func simPass(cases []simCase, count bool) (simPassStats, error) {
	ps := simPassStats{wall: map[string]float64{}, mibps: map[string]float64{}, bus: map[string]float64{}}
	start := time.Now()
	for _, c := range cases {
		var observe func(st *core.Stack, done bool)
		if count {
			observe = func(st *core.Stack, done bool) {
				if !done {
					st.M.Eng.SetTrace(func(sim.Time, uint64, sim.Domain) { ps.events++ })
					return
				}
				ps.eager += st.Ch.EagerMsgs
				ps.rndv += st.Ch.RndvMsgs
				ps.bytes += st.Ch.BytesSent
				ps.l2.Add(st.M.TotalL2Stats())
				ps.bus[c.name] = st.M.UtilizationReport().BusUtilization
			}
		}
		t0 := time.Now()
		mibps, err := c.exec(nil, 0, 0, observe)
		if err != nil {
			return ps, fmt.Errorf("%s: %w", c.name, err)
		}
		ps.wall[c.name] = time.Since(t0).Seconds()
		ps.mibps[c.name] = mibps
	}
	ps.secs = time.Since(start).Seconds()
	return ps, nil
}

// simLayers measures the simulator's layers with the sim-figs inputs.
func simLayers(tr *tracer, parent int, out map[string]float64) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // as sim-figs runs
	cases := simCases()
	probeSpan := func(name string, fn func() error) error { return tr.span(name, parent, fn) }

	var counted, timed, timedMP simPassStats
	err := probeSpan("sim.pass(counted)", func() (err error) {
		counted, err = simPass(cases, true)
		return err
	})
	if err != nil {
		return err
	}
	err = probeSpan("sim.pass(GOMAXPROCS=1)", func() (err error) {
		timed, err = simPass(cases, false)
		return err
	})
	if err != nil {
		return err
	}
	err = probeSpan("sim.pass(GOMAXPROCS=nproc)", func() (err error) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU()))
		timedMP, err = simPass(cases, false)
		return err
	})
	if err != nil {
		return err
	}

	n := float64(len(cases))
	out["sim.events_per_op"] = float64(counted.events) / n
	out["sim.host_ns_per_event"] = timed.secs * 1e9 / float64(counted.events)
	out["sim.mp_slowdown"] = timedMP.secs / timed.secs
	out["cache.hit_ratio"] = float64(counted.l2.Hits) / float64(counted.l2.Accesses)
	out["nemesis.eager_msgs"] = float64(counted.eager)
	out["nemesis.rndv_msgs"] = float64(counted.rndv)
	out["nemesis.bytes_sent"] = float64(counted.bytes)
	out["hw.bus_util.fig5-default"] = counted.bus["pingpong/default/cross/4MiB"]
	// One-way transfers in a 4 MiB PingPong op: a warm-up round trip plus
	// the timed iterations, two transfers each.
	xfers := float64(2 * (imb.Iterations(4*units.MiB) + 1))
	for _, b := range layerBackends {
		out["core.host_us_per_xfer."+b] = timed.wall["pingpong/"+b+"/cross/4MiB"] * 1e6 / xfers
		for _, pl := range []string{"shared", "cross"} {
			out["core.sim_mibps."+b+"."+pl] = counted.mibps["pingpong/"+b+"/"+pl+"/4MiB"]
		}
	}

	probeSpan("sim.Engine.Schedule+Run", func() error {
		out["sim.engine_ns_per_event"] = engineStorm()
		return nil
	})
	err = probeSpan("sim.Mailbox hand-off", func() (err error) {
		out["sim.handoff_ns"], err = mailboxHandoff()
		return err
	})
	if err != nil {
		return err
	}
	probeSpan("hw.Machine.CopyRange", func() error {
		out["hw.copyrange_ns_per_line"] = copyRangeCost()
		return nil
	})
	probeSpan("cache.Cache.Access", func() error {
		out["cache.access_ns_per_line"] = cacheAccessCost()
		return nil
	})
	return nil
}

// engineStorm is the bare event loop: schedule events at scattered times
// and run them, nothing else. Returns host ns per event.
func engineStorm() float64 {
	const events = 200_000
	e := sim.NewEngine()
	rng := rand.New(rand.NewSource(1))
	ran := 0
	fn := func() { ran++ }
	t0 := time.Now()
	for i := 0; i < events; i++ {
		e.Schedule(sim.Time(rng.Intn(1_000_000)), fn)
	}
	if err := e.Run(); err != nil || ran != events {
		panic(fmt.Sprintf("bench: event storm ran %d of %d events: %v", ran, events, err))
	}
	return float64(time.Since(t0).Nanoseconds()) / events
}

// mailboxHandoff bounces a token between two simulated procs: what one
// blocking hand-off between procs (goroutines) costs the host, in ns.
func mailboxHandoff() (float64, error) {
	const trips = 20_000
	e := sim.NewEngine()
	ab := sim.NewMailbox[int](e, "a->b")
	ba := sim.NewMailbox[int](e, "b->a")
	e.Spawn("a", func(p *sim.Proc) {
		for i := 0; i < trips; i++ {
			ab.Put(i)
			ba.Get(p)
		}
	})
	e.Spawn("b", func(p *sim.Proc) {
		for i := 0; i < trips; i++ {
			ba.Put(ab.Get(p))
		}
	})
	t0 := time.Now()
	if err := e.Run(); err != nil {
		return 0, err
	}
	return float64(time.Since(t0).Nanoseconds()) / (2 * trips), nil
}

// copyRangeCost is the host cost of the hardware model classifying one
// 4 MiB copy (cache + coherence state machine over both ranges, no simulated
// time), per 64-byte line of payload.
func copyRangeCost() float64 {
	const size, reps = 4 * units.MiB, 24
	t := topo.XeonE5345()
	m := hw.New(t)
	a, _ := t.PairDifferentDies()
	src := m.Mem.NewSpace("src").AllocPhantom(size)
	dst := m.Mem.NewSharedSpace("dst").AllocPhantom(size)
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		m.CopyRange(nil, a, mem.Region{Buf: dst, Len: size}, mem.Region{Buf: src, Len: size}, hw.CopyOpts{NoTime: true})
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(reps*size/64)
}

// cacheAccessCost streams twice the cache's capacity through one modelled
// L2 (misses with evictions, then the same again), in host ns per access.
func cacheAccessCost() float64 {
	t := topo.XeonE5345()
	c := cache.New("probe", t.L2SizeBytes, t.Params.BlockBytes, t.L2Assoc)
	blocks := uint64(2 * t.L2SizeBytes / t.Params.BlockBytes)
	const passes = 6
	t0 := time.Now()
	for p := 0; p < passes; p++ {
		for b := uint64(0); b < blocks; b++ {
			c.Access(b, p%2 == 1)
		}
	}
	lines := float64(passes*blocks) * float64(t.Params.BlockBytes) / 64
	return float64(time.Since(t0).Nanoseconds()) / lines
}
