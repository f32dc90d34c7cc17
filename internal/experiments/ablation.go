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
		ID: "ablation", Order: 11,
		Title: "model-mechanism ablation behind the headline results",
		Run: func(ctx context.Context, env Env) (Result, error) {
			return modelAblation(ctx, env.Machine, env.workers())
		},
	})
	Experiments.Register(Experiment{
		ID: "collective-aware", Order: 12,
		Title: "§6 collective-aware DMAmin policy on Alltoall",
		Run: func(ctx context.Context, env Env) (Result, error) {
			return collectiveAwareStudy(ctx, env.Machine, env.A2ASizes, env.workers())
		},
	})
}

// AblationRow is one model-mechanism ablation: a headline measurement with
// the mechanism enabled (the calibrated model) and disabled.
type AblationRow struct {
	Mechanism string
	Metric    string
	With      float64
	Without   float64
}

// AblationSet is the full ablation study. It implements Result.
type AblationSet []AblationRow

// Render writes the rows as text.
func (rows AblationSet) Render(w io.Writer) { RenderAblation(w, rows) }

// Files returns the rows' JSON artefact.
func (rows AblationSet) Files() (map[string][]byte, error) {
	return jsonFiles(map[string]any{"ablation": rows})
}

// modelAblation quantifies the three model mechanisms DESIGN.md calls out as
// load-bearing for the paper's headline results:
//
//   - RemoteDirtyStallFactor (slow modified-line interventions) is what
//     makes the default double-buffered LMT collapse across dies (Fig. 5);
//   - SchedWakeLatency (pipe wakeups) is what keeps vmsplice below KNEM;
//   - DMAPrep* (per-transfer I/OAT preparation) is what keeps offload
//     unattractive below DMAmin.
//
// Each row reports the 1 MiB cross-die PingPong throughput of the affected
// backend with the mechanism on and off.
func modelAblation(ctx context.Context, base *topo.Machine, workers int) (AblationSet, error) {
	const size = 1 * units.MiB
	// Each mechanism ablates on a private copy of the machine preset with
	// the parameter neutralized; the with/without pair shards as two
	// independent stack simulations.
	mechanisms := []struct {
		name    string
		metric  string
		opt     core.Options
		disable func(*topo.Machine)
	}{
		{
			name:   "RemoteDirtyStallFactor (FSB modified-line intervention)",
			metric: "default LMT cross-die 1MiB PingPong MiB/s",
			opt:    core.Options{Kind: core.DefaultLMT},
			disable: func(m *topo.Machine) {
				m.Params.RemoteDirtyStallFactor = 1.0
			},
		},
		{
			name:   "SchedWakeLatency (pipe wakeup synchronization)",
			metric: "vmsplice LMT cross-die 1MiB PingPong MiB/s",
			opt:    core.Options{Kind: core.VmspliceLMT},
			disable: func(m *topo.Machine) {
				m.Params.SchedWakeLatency = 0
			},
		},
		{
			name:   "DMAPrep* (I/OAT per-transfer driver preparation)",
			metric: "knem+ioat cross-die 1MiB PingPong MiB/s",
			opt:    core.Options{Kind: core.KnemLMT, IOAT: core.IOATAlways},
			disable: func(m *topo.Machine) {
				m.Params.DMAPrepFixed = 0
				m.Params.DMAPrepPerPage = 0
			},
		},
	}

	measure := func(m *topo.Machine, opt core.Options) (float64, error) {
		c0, c1 := m.PairDifferentDies()
		st := core.NewStack(m, []topo.CoreID{c0, c1}, opt, nemesis.Config{})
		res, err := imb.RunPingPong(comm.WithContext(ctx, mpi.NewSimJob(st)), []int64{size})
		if err != nil {
			return 0, err
		}
		return res.Points[0].Throughput, nil
	}

	// Two jobs per mechanism: even index = calibrated model, odd = ablated.
	vals := make([]float64, 2*len(mechanisms))
	err := forEach(ctx, workers, len(vals), func(i int) error {
		mech := mechanisms[i/2]
		m := *base // shallow copy: jobs only mutate value-typed Params fields
		if i%2 == 1 {
			mech.disable(&m)
		}
		v, err := measure(&m, mech.opt)
		if err != nil {
			return err
		}
		vals[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	rows := make(AblationSet, len(mechanisms))
	for i, mech := range mechanisms {
		rows[i] = AblationRow{
			Mechanism: mech.name,
			Metric:    mech.metric,
			With:      vals[2*i],
			Without:   vals[2*i+1],
		}
	}
	return rows, nil
}

// collectiveAwareStudy measures the §6 future-work policy: an 8-rank
// Alltoall under IOATAuto with and without the upper-layer concurrency
// hint. With the hint, the threshold drops by the transfer concurrency and
// I/OAT engages at the ~200 KiB sizes the paper observed (§4.4).
func collectiveAwareStudy(ctx context.Context, m *topo.Machine, sizes []int64, workers int) (Figure, error) {
	fig := Figure{
		ID:     "collective-aware",
		Title:  "Alltoall with the section-6 collective-aware DMAmin policy",
		YLabel: "Aggregated Throughput (MiB/s)",
	}
	cfg := nemesis.Config{EagerMax: 4 * units.KiB}
	cases := []struct {
		opt   core.Options
		label string
	}{
		{core.Options{Kind: core.KnemLMT, IOAT: core.IOATAuto}, "IOATAuto (per-pair DMAmin)"},
		{core.Options{Kind: core.KnemLMT, IOAT: core.IOATAuto, CollectiveAware: true}, "IOATAuto + collective hint"},
		{core.Options{Kind: core.KnemLMT, IOAT: core.IOATAlways}, "I/OAT always (reference)"},
	}
	fig.Series = make([]Series, len(cases))
	err := forEach(ctx, workers, len(cases), func(i int) error {
		cs := cases[i]
		st := core.NewStack(m, m.AllCores(), cs.opt, cfg)
		res, err := imb.RunAlltoall(comm.WithContext(ctx, mpi.NewSimJob(st)), sizes)
		if err != nil {
			return fmt.Errorf("%s: %w", cs.label, err)
		}
		fig.Series[i] = Series{Label: cs.label, Points: res.Points}
		return nil
	})
	return fig, err
}

// RenderAblation writes the ablation rows as text.
func RenderAblation(w io.Writer, rows AblationSet) {
	fmt.Fprintln(w, "# ablation: model mechanisms behind the headline results")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\n  %s: with=%.0f without=%.0f (x%.2f)\n",
			r.Mechanism, r.Metric, r.With, r.Without, r.Without/r.With)
	}
}
