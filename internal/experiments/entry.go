package experiments

import (
	"knemesis/internal/nas"
	"knemesis/internal/topo"
	"knemesis/internal/units"
)

// The Env builders behind a canonical experiment spec: api.Spec's
// Canonicalize turns its machine preset and quick flag into DefaultEnv or
// QuickEnv of that machine, and cmd/knemsim and the knemd experiment
// service both pass that one Env to Run, which is what makes a
// daemon-produced artefact byte-identical to a direct CLI run.

// QuickEnv returns the reduced-scale evaluation setup on m: the -quick
// sweep of cmd/knemsim (a handful of sizes per axis, scaled NAS kernels).
func QuickEnv(m *topo.Machine) Env {
	env := DefaultEnv(m)
	env.PingSizes = []int64{128 * units.KiB, 512 * units.KiB, 2 * units.MiB}
	env.A2ASizes = []int64{16 * units.KiB, 128 * units.KiB, 1 * units.MiB}
	env.MultiSizes = []int64{1 * units.MiB} // the contention-crossover size
	env.RTSizes = []int64{64 * units.KiB, 1 * units.MiB}
	env.TopoSizes = []int64{16 * units.KiB}
	env.SkewSizes = []int64{4 * units.KiB, 64 * units.KiB}
	env.Kernels = []nas.Kernel{nas.MG().Scaled(4), nas.FT().Scaled(10), nas.ISSized(1<<21, 3, 8)}
	env.ISKernel = nas.ISSized(1<<21, 3, 8)
	return env
}
