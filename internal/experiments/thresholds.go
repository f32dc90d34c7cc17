package experiments

import (
	"context"
	"fmt"
	"io"

	"knemesis/internal/comm"
	"knemesis/internal/core"
	"knemesis/internal/imb"
	"knemesis/internal/mpi"
	"knemesis/internal/nemesis"
	"knemesis/internal/topo"
	"knemesis/internal/units"
)

func init() {
	Experiments.Register(Experiment{
		ID: "thresholds", Order: 10,
		Title: "DMAmin formula vs measured I/OAT crossover (§3.5)",
		Run: func(ctx context.Context, env Env) (Result, error) {
			return thresholds(ctx, env.workers())
		},
	})
}

// ThresholdResult is one §3.5 calibration point: the message size where the
// I/OAT-offloaded transfer overtakes the kernel copy, compared against the
// paper's DMAmin formula.
type ThresholdResult struct {
	Machine   string
	Placement string
	// FormulaDMAmin is CacheSize / (2 x processes using the cache).
	FormulaDMAmin int64
	// MeasuredCrossover is the first swept size where I/OAT wins.
	MeasuredCrossover int64
}

// ThresholdSet is the full §3.5 study. It implements Result.
type ThresholdSet []ThresholdResult

// Render writes the study as text.
func (ts ThresholdSet) Render(w io.Writer) { RenderThresholds(w, ts) }

// Files returns the study's JSON artefact.
func (ts ThresholdSet) Files() (map[string][]byte, error) {
	return jsonFiles(map[string]any{"thresholds": ts})
}

// thresholds reproduces the §3.5 study: on the 4 MiB-cache machine the
// offload threshold is ~1 MiB under a shared cache and ~2 MiB across dies,
// and a 6 MiB cache raises it by 50%.
func thresholds(ctx context.Context, workers int) (ThresholdSet, error) {
	type place struct {
		name   string
		cores  func(*topo.Machine) (topo.CoreID, topo.CoreID)
		shared bool
	}
	places := []place{
		{"shared cache", func(m *topo.Machine) (topo.CoreID, topo.CoreID) { return m.PairSharedCache() }, true},
		{"different dies", func(m *topo.Machine) (topo.CoreID, topo.CoreID) { return m.PairDifferentDies() }, false},
	}
	machines := []*topo.Machine{topo.XeonE5345(), topo.XeonX5460()}
	out := make(ThresholdSet, len(machines)*len(places))
	err := forEach(ctx, workers, len(out), func(i int) error {
		m, pl := machines[i/len(places)], places[i%len(places)]
		c0, c1 := pl.cores(m)
		cross, err := measureCrossover(ctx, m, []topo.CoreID{c0, c1})
		if err != nil {
			return fmt.Errorf("%s/%s: %w", m.Name, pl.name, err)
		}
		procs := 1
		if pl.shared {
			procs = 2
		}
		out[i] = ThresholdResult{
			Machine:           m.Name,
			Placement:         pl.name,
			FormulaDMAmin:     m.DMAMin(procs),
			MeasuredCrossover: cross,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// measureCrossover sweeps message sizes and returns the first size at which
// the I/OAT transfer is at least as fast as the synchronous kernel copy
// (0 when I/OAT never wins in the swept range).
func measureCrossover(ctx context.Context, m *topo.Machine, cores []topo.CoreID) (int64, error) {
	sizes := []int64{
		256 * units.KiB, 384 * units.KiB, 512 * units.KiB, 768 * units.KiB,
		1 * units.MiB, 3 * units.MiB / 2, 2 * units.MiB, 3 * units.MiB,
		4 * units.MiB, 6 * units.MiB,
	}
	run := func(opt core.Options) ([]imb.Point, error) {
		st := core.NewStack(m, cores, opt, nemesis.Config{})
		res, err := imb.RunPingPong(comm.WithContext(ctx, mpi.NewSimJob(st)), sizes)
		if err != nil {
			return nil, err
		}
		return res.Points, nil
	}
	copyPts, err := run(core.Options{Kind: core.KnemLMT, IOAT: core.IOATOff})
	if err != nil {
		return 0, err
	}
	ioatPts, err := run(core.Options{Kind: core.KnemLMT, IOAT: core.IOATAlways})
	if err != nil {
		return 0, err
	}
	for i := range sizes {
		if ioatPts[i].Time <= copyPts[i].Time {
			return sizes[i], nil
		}
	}
	return 0, nil
}
