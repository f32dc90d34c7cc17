package comm

import (
	"fmt"

	"knemesis/internal/perturb"
	"knemesis/internal/registry"
	"knemesis/internal/topo"
)

// JobSpec is the engine-neutral job description. Engines read the fields
// they understand and ignore the rest, so one spec drives every engine:
// the simulator consumes Machine/Cores/LMT, the real runtime consumes
// RTMode, and both honour Ranks and EagerMax.
type JobSpec struct {
	// Ranks is the job size (required, >= 1).
	Ranks int

	// EagerMax overrides the eager/rendezvous switch in bytes (0 keeps
	// the engine default, 64 KiB on both current engines).
	EagerMax int64

	// Machine is the simulated host (simulator only; nil = XeonE5345).
	Machine *topo.Machine
	// Cores pins one rank per entry (simulator only; empty = the first
	// Ranks cores of Machine).
	Cores []topo.CoreID
	// LMT names a backend preset from the core registry, e.g. "default",
	// "knem-ioat-auto", "cma" (simulator only; "" = "default").
	LMT string

	// RTMode selects the real runtime's large-message strategy: "eager",
	// "single-copy" or "offload" (rt only; "" = "single-copy").
	RTMode string

	// Topology describes a multi-node cluster (nil = single node). When
	// the placement spans more than one node, the simulator routes
	// inter-node traffic over its modelled network, the real runtime
	// confines its shared-memory fast paths to intra-node pairs, and both
	// switch the data collectives to the topology-aware hierarchical
	// algorithms (see WrapHier).
	Topology *topo.Cluster
	// Placement selects rank placement on Topology: "block" (default,
	// fill each node before the next) or "spread" (round-robin).
	Placement string
	// FlatCollectives keeps the single-level collective algorithms even
	// on a multi-node placement — the control arm of the hierarchical
	// differential tests.
	FlatCollectives bool

	// Perturbations injects the listed fault/skew perturbations into the
	// job (see internal/perturb): modeled on the simulator, wall-clock
	// injector goroutines on the real runtime. Empty = unperturbed.
	Perturbations []perturb.Spec
	// Seed drives every perturbation's deterministic RNG streams. The
	// same (spec, Seed) reproduces the identical perturbed simulation.
	Seed uint64
}

// Place resolves the spec's placement of n ranks on its topology (nil when
// the spec has no topology).
func (s JobSpec) Place(n int) (*topo.Placement, error) {
	if s.Topology == nil {
		return nil, nil
	}
	switch s.Placement {
	case "", "block":
		return s.Topology.Place(n)
	case "spread":
		return s.Topology.PlaceSpread(n)
	default:
		return nil, fmt.Errorf("comm: unknown placement %q (have block|spread)", s.Placement)
	}
}

// Engine is one entry of the engine registry: a named factory turning a
// JobSpec into a runnable Job.
type Engine struct {
	// Name is the registry key (the CLIs' -engine flag value).
	Name string
	// Help is one line for flag help text.
	Help string
	// Order positions the engine in Engines.
	Order int
	// NewJob builds a single-use job for the spec.
	NewJob func(spec JobSpec) (Job, error)
}

// Engines is the engine registry, in presentation order.
var Engines = registry.New("comm", "engine", func(e Engine) (string, int) { return e.Name, e.Order })

// NewJob builds a job on the named engine.
func NewJob(engine string, spec JobSpec) (Job, error) {
	e, err := Engines.Lookup(engine)
	if err != nil {
		return nil, err
	}
	if spec.Ranks < 1 {
		return nil, fmt.Errorf("comm: job needs at least 1 rank, got %d", spec.Ranks)
	}
	return e.NewJob(spec)
}
