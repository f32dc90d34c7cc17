package experiments

import (
	"context"
	"io"

	"knemesis/internal/nas"
	"knemesis/internal/registry"
	"knemesis/internal/topo"
)

// Env is the declarative input every experiment runs against: the machine
// preset, the sweep axes, the NAS proxy suite and the worker-pool width for
// sharded stack simulations. Every axis is read as given (an empty one
// sweeps nothing); DefaultEnv and QuickEnv fill them all.
type Env struct {
	Machine    *topo.Machine
	PingSizes  []int64
	A2ASizes   []int64
	MultiSizes []int64 // multipair contention sweep
	RTSizes    []int64 // real-runtime wall-clock sweep
	TopoSizes  []int64 // multi-node topology sweep
	SkewSizes  []int64 // perturbed-PingPong robustness sweep
	Kernels    []nas.Kernel
	ISKernel   nas.Kernel

	// Workers caps the number of concurrently simulated stacks. Zero
	// means DefaultWorkers(); 1 forces the serial path. Results are
	// byte-identical at any width: every stack is a self-contained
	// deterministic simulation and results land in index-addressed slots.
	Workers int
}

// DefaultEnv returns the full-scale evaluation setup of the paper on m.
func DefaultEnv(m *topo.Machine) Env {
	return Env{
		Machine:    m,
		PingSizes:  DefaultPingPongSizes(),
		A2ASizes:   DefaultAlltoallSizes(),
		MultiSizes: DefaultMultiPairSizes(),
		RTSizes:    DefaultRTSizes(),
		TopoSizes:  DefaultTopologySizes(),
		SkewSizes:  DefaultSkewSizes(),
		Kernels:    nas.Kernels(),
		ISKernel:   nas.IS(),
	}
}

func (env Env) workers() int {
	if env.Workers <= 0 {
		return DefaultWorkers()
	}
	return env.Workers
}

// Result is a runnable experiment's artefact: it renders as text and
// returns its CSV/JSON files by name — the bytes knemsim -out writes and
// the daemon stores.
type Result interface {
	Render(w io.Writer)
	Files() (map[string][]byte, error)
}

// Experiment is one entry of the paper-artefact registry.
type Experiment struct {
	// ID is the registry key (the -experiment flag value).
	ID string
	// Title is one line of help text.
	Title string
	// Order positions the experiment in Experiments — the order the
	// paper presents them.
	Order int
	// Run regenerates the artefact for env. Cancelling ctx (or letting its
	// deadline pass) cuts the sweep between — and, for the engine-driven
	// cases, inside — its cases; the returned error then wraps ctx.Err()
	// and notes how far the sweep got.
	Run func(ctx context.Context, env Env) (Result, error)
}

// Experiments is the paper-artefact registry, in presentation order.
var Experiments = registry.New("experiments", "experiment", func(e Experiment) (string, int) { return e.ID, e.Order })

// Run regenerates the artefact of the experiment registered under id,
// preemptible through ctx.
func Run(ctx context.Context, id string, env Env) (Result, error) {
	e, err := Experiments.Lookup(id)
	if err != nil {
		return nil, err
	}
	return e.Run(ctx, env)
}
