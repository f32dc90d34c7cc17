package perturb

import (
	"knemesis/internal/hw"
	"knemesis/internal/nemesis"
	"knemesis/internal/sim"
	"knemesis/internal/topo"
)

// SimTarget is the simulated hardware a perturbation set installs onto: the
// shared engine, every machine (one for a single-node stack, one per host
// for a cluster), the modeled network (nil single-node) and the rank →
// location mapping.
type SimTarget struct {
	Eng      *sim.Engine
	Machines []*hw.Machine
	Net      *nemesis.Net // nil for a single-node job
	Ranks    int
	// RankLoc maps a rank to its hosting machine and core.
	RankLoc func(rank int) (*hw.Machine, topo.CoreID)
}

// SimSet is the installed result the engine consults at runtime.
type SimSet struct {
	// RecvDelay, when non-nil, returns the modeled posting delay for a
	// rank's op-th receive (a pure function of its arguments, so every run
	// of the same spec and seed samples identically).
	RecvDelay func(rank int, op uint64) sim.Time

	// netJitter is the accumulated delivery-jitter chain (composed across
	// link-jitter instances and re-installed on the Net as one function).
	netJitter func() sim.Time
}

// InstallSim validates specs against the registry and installs the modeled
// form of each onto the target: core capacities scaled, background bus
// daemons spawned, network links degraded/jittered/flapped, and the
// receiver-delay hook composed. Injected daemons and event chains stop
// rescheduling once the last application process finishes (Engine.LiveProcs
// hits zero), so perturbed runs still drain and terminate.
func InstallSim(t *SimTarget, specs []Spec, seed uint64) (*SimSet, error) {
	set := &SimSet{}
	insts, err := Instances(specs, seed)
	if err != nil {
		return nil, err
	}
	for _, in := range insts {
		if in.kind.Sim == nil {
			continue
		}
		if err := in.kind.Sim(t, set, in); err != nil {
			return nil, err
		}
	}
	return set, nil
}

// victim resolves a rank parameter to its machine and core, clamping the
// configured rank onto the job's actual size so defaults work at any scale.
func (t *SimTarget) victim(rank int) (*hw.Machine, *hw.Core) {
	if rank >= t.Ranks {
		rank = t.Ranks - 1
	}
	if rank < 0 {
		rank = 0
	}
	m, core := t.RankLoc(rank)
	return m, m.Cores[core]
}
