package perturb

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"knemesis/internal/sim"
)

// The registered perturbation kinds. Every kind changes timing only — the
// conformance-under-chaos gate holds content delivery exact under each of
// them on both engines. Kinds that modulate the modeled network (link-*)
// are no-ops on single-node sim jobs (no Net) and approximate a reference
// 1 GiB/s link on rt (which has no modeled network at all).

// maxRank bounds rank parameters; victims are clamped to the job size.
const maxRank = 4096

// satBusPeriod is the duty-cycle window of the modeled background bus load.
const satBusPeriod = 50 * sim.Microsecond

func init() {
	Kinds.Register(Kind{
		Name: "slow-core", Order: 1,
		Help: "scale one rank's core compute rate by factor",
		Param: []Param{
			{Key: "rank", Help: "victim rank", Def: 0, Min: 0, Max: maxRank},
			{Key: "factor", Help: "remaining compute rate fraction", Def: 0.5, Min: 0.01, Max: 1},
		},
		Sim: func(t *SimTarget, set *SimSet, in Inst) error {
			_, core := t.victim(int(in.F("rank")))
			core.CPU.SetCapacity(core.CPU.Capacity() * in.F("factor"))
			return nil
		},
		RT: func(pl *RTPlan, in Inst) error {
			// No core pinning in-process: a competing burn goroutine with
			// duty cycle 1-factor steals the complementary share of a core.
			busy := time.Duration((1 - in.F("factor")) * float64(injectPeriod))
			idle := injectPeriod - busy
			pl.injectors = append(pl.injectors, func(stop <-chan struct{}) {
				for !stopped(stop) {
					burn(busy, stop)
					time.Sleep(idle)
				}
			})
			return nil
		},
	})

	Kinds.Register(Kind{
		Name: "sat-bus", Order: 2,
		Help: "background load on every machine's memory bus",
		Param: []Param{
			{Key: "load", Help: "bus capacity fraction consumed", Def: 0.5, Min: 0.05, Max: 1},
			{Key: "streams", Help: "concurrent background flows per machine", Def: 1, Min: 1, Max: 8},
		},
		Sim: func(t *SimTarget, set *SimSet, in Inst) error {
			load, streams := in.F("load"), int(in.F("streams"))
			period := satBusPeriod.Seconds()
			idle := sim.FromSeconds((1 - load) * period)
			for mi, m := range t.Machines {
				m := m
				bytes := m.Bus.Capacity() * load * period / float64(streams)
				for s := 0; s < streams; s++ {
					// Desynchronize the streams with a seeded phase so
					// several flows beat rather than lockstep.
					phase := sim.FromSeconds(period * u01(in.Seed, in.Stream, uint64(mi*streams+s)))
					eng := t.Eng
					t.Eng.SpawnDaemon(fmt.Sprintf("perturb.sat-bus.m%d.s%d", mi, s), func(p *sim.Proc) {
						p.Sleep(phase)
						for eng.LiveProcs() > 0 {
							m.Bus.Consume(p, bytes)
							p.Sleep(idle)
						}
					})
				}
			}
			return nil
		},
		RT: func(pl *RTPlan, in Inst) error {
			load, streams := in.F("load"), int(in.F("streams"))
			busy := time.Duration(load * float64(injectPeriod))
			idle := injectPeriod - busy
			for s := 0; s < streams; s++ {
				pl.injectors = append(pl.injectors, func(stop <-chan struct{}) {
					buf := make([]byte, 128*1024)
					for !stopped(stop) {
						end := time.Now().Add(busy)
						for time.Now().Before(end) && !stopped(stop) {
							churn(buf, 64*1024)
							runtime.Gosched()
						}
						time.Sleep(idle)
					}
				})
			}
			return nil
		},
	})

	Kinds.Register(Kind{
		Name: "noisy-rank", Order: 3,
		Help: "compute+traffic bursts on one rank's core, optionally MMPP-modulated",
		Param: []Param{
			{Key: "rank", Help: "victim rank", Def: 0, Min: 0, Max: maxRank},
			{Key: "cpu", Help: "CPU burst seconds per arrival", Def: 2e-6, Min: 0, Max: 1e-3},
			{Key: "bytes", Help: "bus bytes per arrival", Def: 256 * 1024, Min: 0, Max: 1 << 24},
			{Key: "rate", Help: "calm arrival rate (1/s)", Def: 50000, Min: 1, Max: 1e7},
			{Key: "mmpp", Help: "1 = MMPP burst modulation, 0 = plain Poisson", Def: 1, Min: 0, Max: 1},
			{Key: "burstx", Help: "burst-state rate multiplier", Def: 8, Min: 1, Max: 100},
			{Key: "flip", Help: "MMPP state-change rate (1/s)", Def: 2000, Min: 0.1, Max: 1e6},
		},
		Sim: func(t *SimTarget, set *SimSet, in Inst) error {
			m, core := t.victim(int(in.F("rank")))
			g := newArrivalGen(in, in.F("rate"), in.F("rate")*in.F("burstx"), in.F("flip"), in.F("mmpp") != 0)
			cpu, bytes := in.F("cpu"), in.F("bytes")
			eng := t.Eng
			eng.SpawnDaemon(fmt.Sprintf("perturb.noisy-rank.%d", int(in.F("rank"))), func(p *sim.Proc) {
				for eng.LiveProcs() > 0 {
					p.Sleep(sim.FromSeconds(g.Next()))
					if eng.LiveProcs() == 0 {
						return
					}
					if cpu > 0 {
						core.CPU.Consume(p, cpu)
					}
					if bytes > 0 {
						m.Bus.Consume(p, bytes)
					}
				}
			})
			return nil
		},
		RT: func(pl *RTPlan, in Inst) error {
			// Replay the seeded schedule (the same one Schedule exposes and
			// the determinism test pins), cycling once exhausted.
			sched := Schedule(in, 1024)
			pl.injectors = append(pl.injectors, func(stop <-chan struct{}) {
				buf := make([]byte, 128*1024)
				start := time.Now()
				var base time.Duration
				for !stopped(stop) {
					for _, ev := range sched {
						if stopped(stop) {
							return
						}
						if wait := base + ev.At - time.Since(start); wait > 0 {
							time.Sleep(wait)
						}
						burn(ev.Dur, stop)
						if ev.Bytes > 0 {
							churn(buf, ev.Bytes)
						}
					}
					base += sched[len(sched)-1].At
				}
			})
			return nil
		},
	})

	Kinds.Register(Kind{
		Name: "delayed-recv", Order: 4,
		Help: "defer receive posting by a sampled delay",
		Param: []Param{
			{Key: "rank", Help: "victim rank (-1 = every rank)", Def: -1, Min: -1, Max: maxRank},
			{Key: "mean", Help: "mean posting delay in seconds", Def: 3e-6, Min: 0, Max: 1e-2},
			{Key: "dist", Help: "delay distribution", Enum: []string{"exp", "fixed", "uniform"}},
		},
		Sim: func(t *SimTarget, set *SimSet, in Inst) error {
			fn := recvDelaySampler(in)
			prev := set.RecvDelay
			set.RecvDelay = func(rank int, op uint64) sim.Time {
				var d time.Duration
				if prev != nil {
					d = time.Duration(prev(rank, op))
				}
				return sim.Time(d) + sim.FromSeconds(fn(rank, op))
			}
			return nil
		},
		RT: func(pl *RTPlan, in Inst) error {
			fn := recvDelaySampler(in)
			pl.addRecvDelay(func(rank int, op uint64) time.Duration {
				return time.Duration(fn(rank, op) * float64(time.Second))
			})
			return nil
		},
	})

	Kinds.Register(Kind{
		Name: "link-degrade", Order: 5,
		Help: "scale every network link's bandwidth by factor",
		Param: []Param{
			{Key: "factor", Help: "remaining bandwidth fraction", Def: 0.25, Min: 0.01, Max: 1},
		},
		Sim: func(t *SimTarget, set *SimSet, in Inst) error {
			if t.Net == nil {
				return nil // single-node job: no modeled network to degrade
			}
			t.Net.ScaleBandwidth(in.F("factor"))
			return nil
		},
		RT: func(pl *RTPlan, in Inst) error {
			factor := in.F("factor")
			pl.addCrossDelay(func(bytes int) time.Duration {
				extra := float64(bytes)/(refCrossBW*factor) - float64(bytes)/refCrossBW
				return time.Duration(extra * float64(time.Second))
			})
			return nil
		},
	})

	Kinds.Register(Kind{
		Name: "link-jitter", Order: 6,
		Help: "exponential delivery jitter on every network message",
		Param: []Param{
			{Key: "mean", Help: "mean added latency in seconds", Def: 5e-6, Min: 0, Max: 1e-2},
		},
		Sim: func(t *SimTarget, set *SimSet, in Inst) error {
			if t.Net == nil {
				return nil
			}
			// The jitter closure advances a counter per delivery; network
			// deliveries execute in the engine's deterministic event
			// order, so the draw sequence is reproducible.
			seed, stream, mean := in.Seed, in.Stream, in.F("mean")
			var ctr uint64
			fn := func() sim.Time {
				u := u01(seed, stream, ctr)
				ctr++
				return sim.FromSeconds(expSample(u, mean))
			}
			prev := set.netJitter
			if prev != nil {
				set.netJitter = func() sim.Time { return prev() + fn() }
			} else {
				set.netJitter = fn
			}
			t.Net.SetDeliverJitter(set.netJitter)
			return nil
		},
		RT: func(pl *RTPlan, in Inst) error {
			seed, stream, mean := in.Seed, in.Stream, in.F("mean")
			// Atomic: ranks draw concurrently. rt cross sends are
			// wall-clock ordered anyway; no determinism to protect.
			var ctr atomic.Uint64
			pl.addCrossDelay(func(bytes int) time.Duration {
				u := u01(seed, stream, ctr.Add(1)-1)
				return time.Duration(expSample(u, mean) * float64(time.Second))
			})
			return nil
		},
	})

	Kinds.Register(Kind{
		Name: "link-flap", Order: 7,
		Help: "periodically collapse link bandwidth to factor and restore it",
		Param: []Param{
			{Key: "period", Help: "flap cycle length in seconds", Def: 2e-4, Min: 1e-6, Max: 1},
			{Key: "down", Help: "fraction of each cycle spent degraded", Def: 0.25, Min: 0, Max: 0.9},
			{Key: "factor", Help: "bandwidth fraction while down", Def: 1e-3, Min: 1e-4, Max: 1},
		},
		Sim: func(t *SimTarget, set *SimSet, in Inst) error {
			if t.Net == nil {
				return nil
			}
			period, down, factor := in.F("period"), in.F("down"), in.F("factor")
			upDur := sim.FromSeconds(period * (1 - down))
			downDur := sim.FromSeconds(period * down)
			eng, net := t.Eng, t.Net
			var goDown, goUp func()
			goDown = func() {
				if eng.LiveProcs() == 0 {
					return // job finished: stop the event chain so the run drains
				}
				net.ScaleBandwidth(factor)
				eng.After(downDur, goUp)
			}
			goUp = func() {
				net.ScaleBandwidth(1 / factor) // always restore, even when ending
				if eng.LiveProcs() == 0 {
					return
				}
				eng.After(upDur, goDown)
			}
			eng.After(upDur, goDown)
			return nil
		},
		RT: func(pl *RTPlan, in Inst) error {
			period, down, factor := in.F("period"), in.F("down"), in.F("factor")
			seed, stream := in.Seed, in.Stream
			var ctr atomic.Uint64 // ranks draw concurrently
			pl.addCrossDelay(func(bytes int) time.Duration {
				u := u01(seed, stream, ctr.Add(1)-1)
				if u >= down {
					return 0 // the send missed the outage window
				}
				// Caught by an outage: half a down-window residual stall
				// plus the transfer at collapsed bandwidth.
				stall := period * down / 2
				extra := float64(bytes)/(refCrossBW*factor) - float64(bytes)/refCrossBW
				return time.Duration((stall + extra) * float64(time.Second))
			})
			return nil
		},
	})
}

// recvDelaySampler builds the pure (rank, op) → delay-seconds sampler of a
// delayed-recv instance: the victim filter plus the configured distribution,
// hashed counter-style so sim and rt draw the identical sequence.
func recvDelaySampler(in Inst) func(rank int, op uint64) float64 {
	victim := int(in.F("rank"))
	dist, mean := in.S("dist"), in.F("mean")
	seed, stream := in.Seed, in.Stream
	return func(rank int, op uint64) float64 {
		if victim >= 0 && rank != victim {
			return 0
		}
		u := u01(seed, stream, uint64(rank)*0x9e3779b97f4a7c15+op)
		return sampleDist(dist, mean, u)
	}
}
