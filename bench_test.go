// Benchmarks regenerating each paper artefact at reduced scale (the full
// sweeps live behind cmd/knemsim). Simulated throughput is attached as a
// custom metric (sim-MiB/s); ns/op measures the simulator itself.
package knemesis

import (
	"context"
	"fmt"
	"testing"

	"knemesis/internal/core"
	"knemesis/internal/experiments"
	"knemesis/internal/imb"
	"knemesis/internal/knem"
	"knemesis/internal/mpi"
	"knemesis/internal/nas"
	"knemesis/internal/nemesis"
	"knemesis/internal/topo"
	"knemesis/internal/units"
)

var benchPingSizes = []int64{256 * units.KiB, 1 * units.MiB, 4 * units.MiB}

// benchPingPong runs a PingPong sweep per iteration and reports the
// simulated throughput of the largest size.
func benchPingPong(b *testing.B, opt core.Options, shared bool) {
	b.Helper()
	m := topo.XeonE5345()
	var c0, c1 topo.CoreID
	if shared {
		c0, c1 = m.PairSharedCache()
	} else {
		c0, c1 = m.PairDifferentDies()
	}
	var last imb.Result
	for i := 0; i < b.N; i++ {
		st := core.NewStack(m, []topo.CoreID{c0, c1}, opt, nemesis.Config{})
		res, err := imb.RunPingPong(mpi.NewSimJob(st), benchPingSizes)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	for _, pt := range last.Points {
		b.ReportMetric(pt.Throughput, fmt.Sprintf("sim-MiB/s@%s", units.FormatSize(pt.Size)))
	}
}

// BenchmarkFig3 regenerates the Figure 3 curves (vmsplice vs writev).
func BenchmarkFig3(b *testing.B) {
	for _, cs := range []struct {
		name   string
		opt    core.Options
		shared bool
	}{
		{"vmsplice/shared", core.Options{Kind: core.VmspliceLMT}, true},
		{"vmsplice/cross", core.Options{Kind: core.VmspliceLMT}, false},
		{"writev/shared", core.Options{Kind: core.VmspliceWritevLMT}, true},
		{"writev/cross", core.Options{Kind: core.VmspliceWritevLMT}, false},
		{"default/shared", core.Options{Kind: core.DefaultLMT}, true},
		{"default/cross", core.Options{Kind: core.DefaultLMT}, false},
	} {
		b.Run(cs.name, func(b *testing.B) { benchPingPong(b, cs.opt, cs.shared) })
	}
}

// BenchmarkFig4 regenerates Figure 4 (shared cache, four LMTs).
func BenchmarkFig4(b *testing.B) {
	for _, cs := range []struct {
		name string
		opt  core.Options
	}{
		{"default", core.Options{Kind: core.DefaultLMT}},
		{"vmsplice", core.Options{Kind: core.VmspliceLMT}},
		{"knem", core.Options{Kind: core.KnemLMT, IOAT: core.IOATOff}},
		{"knem-ioat", core.Options{Kind: core.KnemLMT, IOAT: core.IOATAlways}},
	} {
		b.Run(cs.name, func(b *testing.B) { benchPingPong(b, cs.opt, true) })
	}
}

// BenchmarkFig5 regenerates Figure 5 (no shared cache, four LMTs).
func BenchmarkFig5(b *testing.B) {
	for _, cs := range []struct {
		name string
		opt  core.Options
	}{
		{"default", core.Options{Kind: core.DefaultLMT}},
		{"vmsplice", core.Options{Kind: core.VmspliceLMT}},
		{"knem", core.Options{Kind: core.KnemLMT, IOAT: core.IOATOff}},
		{"knem-ioat", core.Options{Kind: core.KnemLMT, IOAT: core.IOATAlways}},
	} {
		b.Run(cs.name, func(b *testing.B) { benchPingPong(b, cs.opt, false) })
	}
}

// BenchmarkFig6 regenerates Figure 6 (KNEM sync/async modes).
func BenchmarkFig6(b *testing.B) {
	for _, cs := range []struct {
		name string
		mode knem.Mode
	}{
		{"sync", knem.SyncCopy},
		{"async-kthread", knem.AsyncKThread},
		{"sync-ioat", knem.SyncIOAT},
		{"async-ioat", knem.AsyncIOAT},
	} {
		md := cs.mode
		b.Run(cs.name, func(b *testing.B) {
			benchPingPong(b, core.Options{Kind: core.KnemLMT, ForceKnemMode: &md}, false)
		})
	}
}

// BenchmarkFig7 regenerates Figure 7 (8-rank Alltoall) at two sizes.
func BenchmarkFig7(b *testing.B) {
	sizes := []int64{32 * units.KiB, 256 * units.KiB}
	for _, cs := range []struct {
		name string
		opt  core.Options
		cfg  nemesis.Config
	}{
		{"default", core.Options{Kind: core.DefaultLMT}, nemesis.Config{}},
		{"vmsplice", core.Options{Kind: core.VmspliceLMT}, nemesis.Config{EagerMax: 4 * units.KiB}},
		{"knem", core.Options{Kind: core.KnemLMT, IOAT: core.IOATOff}, nemesis.Config{EagerMax: 4 * units.KiB}},
		{"knem-ioat", core.Options{Kind: core.KnemLMT, IOAT: core.IOATAlways}, nemesis.Config{EagerMax: 4 * units.KiB}},
	} {
		b.Run(cs.name, func(b *testing.B) {
			m := topo.XeonE5345()
			var last imb.Result
			for i := 0; i < b.N; i++ {
				st := core.NewStack(m, m.AllCores(), cs.opt, cs.cfg)
				res, err := imb.RunAlltoall(mpi.NewSimJob(st), sizes)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			for _, pt := range last.Points {
				b.ReportMetric(pt.Throughput, fmt.Sprintf("sim-aggMiB/s@%s", units.FormatSize(pt.Size)))
			}
		})
	}
}

// BenchmarkTable1 regenerates a reduced Table 1 (two representative rows).
func BenchmarkTable1(b *testing.B) {
	kernels := []nas.Kernel{nas.MG().Scaled(4), nas.FT().Scaled(10)}
	for _, k := range kernels {
		k := k
		b.Run(k.Name, func(b *testing.B) {
			var row nas.Row
			for i := 0; i < b.N; i++ {
				var err error
				row, err = nas.Table1Row(k, topo.XeonE5345())
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(row.SpeedupPct, "sim-speedup-%")
		})
	}
}

// BenchmarkTable2IS regenerates the Table 2 IS row at reduced scale.
func BenchmarkTable2IS(b *testing.B) {
	k := nas.ISSized(1<<20, 3, 8)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run(context.Background(), "table2", experiments.Env{Machine: topo.XeonE5345(), ISKernel: k}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkThresholds regenerates the §3.5 crossover study.
func BenchmarkThresholds(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run(context.Background(), "thresholds", experiments.Env{}); err != nil {
			b.Fatal(err)
		}
	}
}
