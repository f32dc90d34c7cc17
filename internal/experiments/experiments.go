// Package experiments regenerates every figure and table of the paper's
// evaluation section (§4): Figures 3-7, Tables 1-2 and the §3.5 threshold
// study, each as a typed result that can be rendered as text, CSV or JSON.
//
// Experiments live in a declarative registry (the Experiments
// registry.Registry): every entry maps an ID to a Run function over a
// common Env. Run(ctx, id, env) is the only entry point; cmd/knemsim and
// the knemd experiment service both reach it with the Env a canonical job
// spec resolved to (api.Spec's Env). Independent stack simulations inside
// each experiment are sharded across a worker pool (Env.Workers); results
// are byte-identical to a serial run because every stack is a
// self-contained deterministic simulation.
//
// The per-experiment index in DESIGN.md maps each entry here to the paper
// artefact it reproduces; EXPERIMENTS.md records paper-vs-measured.
package experiments

import (
	"bytes"
	"context"
	"fmt"
	"io"

	"knemesis/internal/comm"
	"knemesis/internal/core"
	"knemesis/internal/imb"
	"knemesis/internal/knem"
	"knemesis/internal/mpi"
	"knemesis/internal/nas"
	"knemesis/internal/nemesis"
	"knemesis/internal/topo"
	"knemesis/internal/units"
)

// Series is one labelled curve of an experiment figure.
type Series struct {
	Label  string
	Points []imb.Point
}

// Figure is a reproduced paper figure. It implements Result.
type Figure struct {
	ID     string
	Title  string
	YLabel string
	Series []Series
}

// Render writes the figure as a fixed-width text table.
func (f Figure) Render(w io.Writer) { RenderFigure(w, f) }

// Files returns the figure's CSV and JSON artefacts.
func (f Figure) Files() (map[string][]byte, error) {
	var csv bytes.Buffer
	if err := WriteFigureCSV(&csv, f); err != nil {
		return nil, err
	}
	files, err := jsonFiles(map[string]any{f.ID: f})
	if err != nil {
		return nil, err
	}
	files[f.ID+".csv"] = csv.Bytes()
	return files, nil
}

// Table is a reproduced paper table. It implements Result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
}

// Render writes the table as fixed-width text.
func (t Table) Render(w io.Writer) { RenderTable(w, t) }

// Files returns the table's JSON artefact.
func (t Table) Files() (map[string][]byte, error) { return jsonFiles(map[string]any{t.ID: t}) }

// DefaultPingPongSizes spans the x axis of Figures 3-6.
func DefaultPingPongSizes() []int64 { return units.Pow2Sizes(64*units.KiB, 4*units.MiB) }

// DefaultAlltoallSizes spans the x axis of Figure 7.
func DefaultAlltoallSizes() []int64 { return units.Pow2Sizes(4*units.KiB, 4*units.MiB) }

func init() {
	Experiments.Register(Experiment{
		ID: "fig3", Order: 3,
		Title: "PingPong: vmsplice vs writev vs default, both placements",
		Run:   func(ctx context.Context, env Env) (Result, error) { return fig3(ctx, env) },
	})
	Experiments.Register(Experiment{
		ID: "fig4", Order: 4,
		Title: "PingPong throughput, 2 processes sharing an L2",
		Run:   func(ctx context.Context, env Env) (Result, error) { return fig4(ctx, env) },
	})
	Experiments.Register(Experiment{
		ID: "fig5", Order: 5,
		Title: "PingPong throughput, 2 processes on different dies",
		Run:   func(ctx context.Context, env Env) (Result, error) { return fig5(ctx, env) },
	})
	Experiments.Register(Experiment{
		ID: "fig6", Order: 6,
		Title: "KNEM synchronous vs asynchronous receive modes",
		Run:   func(ctx context.Context, env Env) (Result, error) { return fig6(ctx, env) },
	})
	Experiments.Register(Experiment{
		ID: "fig7", Order: 7,
		Title: "Alltoall aggregated throughput, 8 local processes",
		Run:   func(ctx context.Context, env Env) (Result, error) { return fig7(ctx, env) },
	})
	Experiments.Register(Experiment{
		ID: "table1", Order: 8,
		Title: "NAS Parallel Benchmark execution times",
		Run:   func(ctx context.Context, env Env) (Result, error) { return table1(ctx, env) },
	})
	Experiments.Register(Experiment{
		ID: "table2", Order: 9,
		Title: "L2 cache misses per workload and backend",
		Run:   func(ctx context.Context, env Env) (Result, error) { return table2(ctx, env) },
	})
}

// pingPongSeries runs one PingPong sweep on a fresh stack, preemptible
// through ctx.
func pingPongSeries(ctx context.Context, t *topo.Machine, cores []topo.CoreID, opt core.Options, label string, sizes []int64) (Series, error) {
	st := core.NewStack(t, cores, opt, nemesis.Config{})
	res, err := imb.RunPingPong(comm.WithContext(ctx, mpi.NewSimJob(st)), sizes)
	if err != nil {
		return Series{}, fmt.Errorf("%s: %w", label, err)
	}
	return Series{Label: label, Points: res.Points}, nil
}

// pingPongCase is one sharded PingPong curve of a figure.
type pingPongCase struct {
	opt   core.Options
	cores []topo.CoreID
	label string
}

// pingPongFigure shards one stack simulation per case across the worker
// pool; series slots are index-addressed, so the figure is identical to a
// serial run.
func pingPongFigure(ctx context.Context, env Env, fig Figure, cases []pingPongCase) (Figure, error) {
	fig.Series = make([]Series, len(cases))
	err := forEach(ctx, env.workers(), len(cases), func(i int) error {
		s, err := pingPongSeries(ctx, env.Machine, cases[i].cores, cases[i].opt, cases[i].label, env.PingSizes)
		if err != nil {
			return err
		}
		fig.Series[i] = s
		return nil
	})
	return fig, err
}

// fig3 reproduces Figure 3: PingPong with the vmsplice LMT using vmsplice
// (single copy) or writev (two copies), against the default LMT, for both
// core placements.
func fig3(ctx context.Context, env Env) (Figure, error) {
	t := env.Machine
	s0, s1 := t.PairSharedCache()
	d0, d1 := t.PairDifferentDies()
	shared, cross := []topo.CoreID{s0, s1}, []topo.CoreID{d0, d1}
	return pingPongFigure(ctx, env, Figure{
		ID:     "fig3",
		Title:  "IMB Pingpong with the vmsplice LMT using vmsplice (single-copy) or writev (two copies)",
		YLabel: "Throughput (MiB/s)",
	}, []pingPongCase{
		{core.Options{Kind: core.DefaultLMT}, shared, "default LMT - Shared Cache"},
		{core.Options{Kind: core.VmspliceLMT}, shared, "vmsplice LMT - Shared Cache"},
		{core.Options{Kind: core.VmspliceWritevLMT}, shared, "vmsplice LMT using writev - Shared Cache"},
		{core.Options{Kind: core.DefaultLMT}, cross, "default LMT - Different Dies"},
		{core.Options{Kind: core.VmspliceLMT}, cross, "vmsplice LMT - Different Dies"},
		{core.Options{Kind: core.VmspliceWritevLMT}, cross, "vmsplice LMT using writev - Different Dies"},
	})
}

// standardPingPongCases are the four curves of the paper's Figures 4 and 5
// plus the CMA backend — the post-paper single-copy successor of KNEM —
// as an extra curve.
func standardPingPongCases(cores []topo.CoreID) []pingPongCase {
	return []pingPongCase{
		{core.Options{Kind: core.DefaultLMT}, cores, "default LMT"},
		{core.Options{Kind: core.VmspliceLMT}, cores, "vmsplice LMT"},
		{core.Options{Kind: core.KnemLMT, IOAT: core.IOATOff}, cores, "KNEM LMT"},
		{core.Options{Kind: core.KnemLMT, IOAT: core.IOATAlways}, cores, "KNEM LMT with I/OAT"},
		{core.Options{Kind: core.CMALMT}, cores, "CMA LMT"},
	}
}

// fig4 reproduces Figure 4: PingPong between two processes sharing an L2.
func fig4(ctx context.Context, env Env) (Figure, error) {
	c0, c1 := env.Machine.PairSharedCache()
	return pingPongFigure(ctx, env, Figure{
		ID:     "fig4",
		Title:  "IMB Pingpong throughput between 2 processes sharing a 4MiB L2 cache",
		YLabel: "Throughput (MiB/s)",
	}, standardPingPongCases([]topo.CoreID{c0, c1}))
}

// fig5 reproduces Figure 5: PingPong between processes not sharing a cache.
func fig5(ctx context.Context, env Env) (Figure, error) {
	c0, c1 := env.Machine.PairDifferentDies()
	return pingPongFigure(ctx, env, Figure{
		ID:     "fig5",
		Title:  "IMB Pingpong throughput between 2 processes not sharing any cache",
		YLabel: "Throughput (MiB/s)",
	}, standardPingPongCases([]topo.CoreID{c0, c1}))
}

// fig6 reproduces Figure 6: KNEM synchronous vs asynchronous modes (with
// and without I/OAT), cross-die placement.
func fig6(ctx context.Context, env Env) (Figure, error) {
	c0, c1 := env.Machine.PairDifferentDies()
	cores := []topo.CoreID{c0, c1}
	force := func(md knem.Mode) core.Options {
		return core.Options{Kind: core.KnemLMT, ForceKnemMode: &md}
	}
	return pingPongFigure(ctx, env, Figure{
		ID:     "fig6",
		Title:  "Performance comparison of KNEM synchronous and asynchronous models",
		YLabel: "Throughput (MiB/s)",
	}, []pingPongCase{
		{force(knem.SyncCopy), cores, "KNEM LMT - synchronous"},
		{force(knem.AsyncKThread), cores, "KNEM LMT - asynchronous"},
		{force(knem.SyncIOAT), cores, "KNEM LMT - synchronous with I/OAT"},
		{force(knem.AsyncIOAT), cores, "KNEM LMT - asynchronous with I/OAT"},
	})
}

// fig7 reproduces Figure 7: IMB Alltoall aggregated throughput across all 8
// local processes. As in the paper's setup, the kernel-assisted backends run
// with a lowered rendezvous threshold (the paper observes KNEM is already
// worthwhile from 4 KiB in this pattern, §4.4), while the default
// configuration keeps Nemesis' stock 64 KiB threshold.
func fig7(ctx context.Context, env Env) (Figure, error) {
	t := env.Machine
	fig := Figure{
		ID:     "fig7",
		Title:  "IMB Alltoall aggregated throughput between 8 local processes",
		YLabel: "Aggregated Throughput (MiB/s)",
	}
	lowThreshold := nemesis.Config{EagerMax: 4 * units.KiB}
	cases := []struct {
		opt   core.Options
		cfg   nemesis.Config
		label string
	}{
		{core.Options{Kind: core.DefaultLMT}, nemesis.Config{}, "default LMT"},
		{core.Options{Kind: core.VmspliceLMT}, lowThreshold, "vmsplice LMT"},
		{core.Options{Kind: core.KnemLMT, IOAT: core.IOATOff}, lowThreshold, "KNEM LMT"},
		{core.Options{Kind: core.KnemLMT, IOAT: core.IOATAlways}, lowThreshold, "KNEM LMT with I/OAT"},
	}
	fig.Series = make([]Series, len(cases))
	err := forEach(ctx, env.workers(), len(cases), func(i int) error {
		cs := cases[i]
		st := core.NewStack(t, t.AllCores(), cs.opt, cs.cfg)
		res, err := imb.RunAlltoall(comm.WithContext(ctx, mpi.NewSimJob(st)), env.A2ASizes)
		if err != nil {
			return fmt.Errorf("%s: %w", cs.label, err)
		}
		fig.Series[i] = Series{Label: cs.label, Points: res.Points}
		return nil
	})
	return fig, err
}

// table1Result couples the rendered Table 1 with its typed rows (the JSON
// artefact knemsim writes).
type table1Result struct {
	Table
	NASRows []nas.Row
}

func (t table1Result) Files() (map[string][]byte, error) {
	return jsonFiles(map[string]any{t.ID: t.NASRows})
}

// table1 reproduces Table 1: NAS Parallel Benchmark execution times under
// the four LMT configurations, with the default column calibrated to the
// paper (see nas.Calibrate) and the speedup column comparing default
// against KNEM+I/OAT. Kernels shard across the pool (each Table1Row runs
// four full stacks).
func table1(ctx context.Context, env Env) (table1Result, error) {
	res := table1Result{Table: Table{
		ID:     "table1",
		Title:  "Execution time of some NAS Parallel Benchmarks",
		Header: []string{"NAS Kernel", "default LMT", "vmsplice LMT", "KNEM kernel copy", "KNEM I/OAT", "Speedup"},
	}}
	rows := make([]nas.Row, len(env.Kernels))
	err := forEach(ctx, env.workers(), len(env.Kernels), func(i int) error {
		row, err := nas.Table1Row(env.Kernels[i], env.Machine)
		if err != nil {
			return err
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return res, err
	}
	res.NASRows = rows
	for _, row := range rows {
		res.Rows = append(res.Rows, []string{
			row.Kernel,
			fmt.Sprintf("%.2f s", row.Seconds[0]),
			fmt.Sprintf("%.2f s", row.Seconds[1]),
			fmt.Sprintf("%.2f s", row.Seconds[2]),
			fmt.Sprintf("%.2f s", row.Seconds[3]),
			fmt.Sprintf("%+.1f%%", row.SpeedupPct),
		})
	}
	return res, nil
}

// table2 reproduces Table 2: L2 cache misses for 64 KiB / 4 MiB PingPong
// (different dies) and Alltoall (all 8 cores), plus the full is.B.8 run,
// under the four LMT configurations. Counts are 64-byte-line equivalents;
// point-to-point rows are per operation, the IS row is the whole run. Each
// (workload, backend) cell's stack shards across the pool.
func table2(ctx context.Context, env Env) (Table, error) {
	t := env.Machine
	tab := Table{
		ID:     "table2",
		Title:  "L2 cache misses (64B-line equivalents)",
		Header: []string{"Workload", "default LMT", "vmsplice LMT", "KNEM kernel copy", "KNEM I/OAT"},
	}
	opts := core.StandardOptions()

	ppSizes := []int64{64 * units.KiB, 4 * units.MiB}
	d0, d1 := t.PairDifferentDies()
	ppByOpt := make([][]int64, len(opts)) // [opt][sizeIdx]
	if err := forEach(ctx, env.workers(), len(opts), func(i int) error {
		st := core.NewStack(t, []topo.CoreID{d0, d1}, opts[i], nemesis.Config{})
		res, err := imb.RunPingPong(comm.WithContext(ctx, mpi.NewSimJob(st)), ppSizes)
		if err != nil {
			return err
		}
		for _, pt := range res.Points {
			ppByOpt[i] = append(ppByOpt[i], pt.L2Misses)
		}
		return nil
	}); err != nil {
		return tab, err
	}

	// As in Figure 7, the kernel-assisted backends run with the lowered
	// rendezvous threshold in the alltoall rows (the paper's 64 KiB
	// Alltoall row shows LMT differences, so their setup had it too).
	a2aSizes := []int64{64 * units.KiB, 4 * units.MiB}
	a2aByOpt := make([][]int64, len(opts))
	if err := forEach(ctx, env.workers(), len(opts), func(i int) error {
		cfg := nemesis.Config{}
		if opts[i].Kind != core.DefaultLMT {
			cfg.EagerMax = 4 * units.KiB
		}
		st := core.NewStack(t, t.AllCores(), opts[i], cfg)
		res, err := imb.RunAlltoall(comm.WithContext(ctx, mpi.NewSimJob(st)), a2aSizes)
		if err != nil {
			return err
		}
		for _, pt := range res.Points {
			a2aByOpt[i] = append(a2aByOpt[i], pt.L2Misses)
		}
		return nil
	}); err != nil {
		return tab, err
	}

	compute, err := nas.Calibrate(env.ISKernel, t)
	if err != nil {
		return tab, err
	}
	isMisses := make([]int64, len(opts))
	if err := forEach(ctx, env.workers(), len(opts), func(i int) error {
		res, err := nas.RunKernel(env.ISKernel, t, opts[i], compute)
		if err != nil {
			return err
		}
		isMisses[i] = res.L2MissLines
		return nil
	}); err != nil {
		return tab, err
	}

	addRow := func(name string, byOpt [][]int64, sizeIdx int) {
		row := []string{name}
		for i := range opts {
			row = append(row, formatCount(byOpt[i][sizeIdx]))
		}
		tab.Rows = append(tab.Rows, row)
	}
	addRow("64KiB Pingpong", ppByOpt, 0)
	addRow("4MiB Pingpong", ppByOpt, 1)
	addRow("64KiB Alltoall", a2aByOpt, 0)
	addRow("4MiB Alltoall", a2aByOpt, 1)
	isRow := []string{env.ISKernel.Name}
	for _, v := range isMisses {
		isRow = append(isRow, formatCount(v))
	}
	tab.Rows = append(tab.Rows, isRow)
	return tab, nil
}

// formatCount renders counts the way the paper does (91, 45k, 11.25M).
func formatCount(v int64) string {
	switch {
	case v >= 1_000_000:
		return fmt.Sprintf("%.2fM", float64(v)/1e6)
	case v >= 10_000:
		return fmt.Sprintf("%.0fk", float64(v)/1e3)
	case v >= 1_000:
		return fmt.Sprintf("%.1fk", float64(v)/1e3)
	default:
		return fmt.Sprintf("%d", v)
	}
}
