package experiments

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"

	"knemesis/internal/nas"
	"knemesis/internal/topo"
	"knemesis/internal/units"
)

// testEnv is the Env of every shared run (workers 1) and of every -j8
// determinism run: the paper's machine at reduced sizes. Skew and topology
// keep their default sizes, so their shared runs are the ones the goldens
// pin; multipair runs at its contention-crossover size.
func testEnv(workers int) Env {
	env := DefaultEnv(topo.XeonE5345())
	env.PingSizes = []int64{128 * units.KiB, 1 * units.MiB}
	env.A2ASizes = []int64{32 * units.KiB, 256 * units.KiB}
	env.MultiSizes = []int64{1 * units.MiB}
	env.RTSizes = []int64{4 * units.KiB, 128 * units.KiB}
	env.Kernels = []nas.Kernel{nas.MG().Scaled(4), nas.ISSized(1<<18, 2, 8)}
	env.ISKernel = nas.ISSized(1<<18, 2, 8)
	env.Workers = workers
	return env
}

var sharedRuns sync.Map // experiment id -> func() (Result, error)

// shared returns the one run of the registered experiment id on
// testEnv(1) that every test of the package reads.
func shared[R Result](t *testing.T, id string) R {
	t.Helper()
	run, _ := sharedRuns.LoadOrStore(id, sync.OnceValues(func() (Result, error) {
		return Run(context.Background(), id, testEnv(1))
	}))
	res, err := run.(func() (Result, error))()
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	r, ok := res.(R)
	if !ok {
		t.Fatalf("%s returned %T", id, res)
	}
	return r
}

// wideRun runs the registered experiment id once more on testEnv(8), the
// other side of a determinism check against its shared run.
func wideRun(t *testing.T, id string) Result {
	t.Helper()
	res, err := Run(context.Background(), id, testEnv(8))
	if err != nil {
		t.Fatalf("%s -j8: %v", id, err)
	}
	return res
}

// rendered is res's text rendering.
func rendered(res Result) string {
	var buf bytes.Buffer
	res.Render(&buf)
	return buf.String()
}

func TestFig3SmallSweep(t *testing.T) {
	fig := shared[Figure](t, "fig3")
	if len(fig.Series) != 6 {
		t.Fatalf("fig3 has %d series, want 6", len(fig.Series))
	}
	// Core claim: single-copy vmsplice beats its writev variant cross-die.
	vm := seriesByLabel(t, fig, "vmsplice LMT - Different Dies")
	wv := seriesByLabel(t, fig, "vmsplice LMT using writev - Different Dies")
	if vm.Points[1].Throughput <= wv.Points[1].Throughput {
		t.Fatalf("vmsplice (%.0f) should beat writev (%.0f) at 1MiB cross-die",
			vm.Points[1].Throughput, wv.Points[1].Throughput)
	}
}

func TestFig4Fig5Shapes(t *testing.T) {
	f4, f5 := shared[Figure](t, "fig4"), shared[Figure](t, "fig5")
	// Cross-die: KNEM far above default (paper: >3x at 1MiB).
	knem5 := seriesByLabel(t, f5, "KNEM LMT").Points[1].Throughput
	def5 := seriesByLabel(t, f5, "default LMT").Points[1].Throughput
	if knem5 < 2*def5 {
		t.Errorf("fig5: knem %.0f should be >= 2x default %.0f", knem5, def5)
	}
	// Shared cache: default competitive with KNEM.
	knem4 := seriesByLabel(t, f4, "KNEM LMT").Points[0].Throughput
	def4 := seriesByLabel(t, f4, "default LMT").Points[0].Throughput
	if def4 < 0.6*knem4 {
		t.Errorf("fig4: default %.0f should stay near knem %.0f under a shared cache", def4, knem4)
	}
	// Default is much better with the shared cache than across dies.
	if def4 < 2*def5 {
		t.Errorf("default shared (%.0f) should dwarf default cross-die (%.0f)", def4, def5)
	}
}

func TestFig6AsyncShape(t *testing.T) {
	fig := shared[Figure](t, "fig6")
	sync := seriesByLabel(t, fig, "KNEM LMT - synchronous").Points[1].Throughput
	async := seriesByLabel(t, fig, "KNEM LMT - asynchronous").Points[1].Throughput
	if async >= sync {
		t.Errorf("async kthread (%.0f) should trail sync (%.0f)", async, sync)
	}
}

func TestFig7SmallSweep(t *testing.T) {
	fig := shared[Figure](t, "fig7")
	// KNEM dramatically above default for medium alltoall (paper: up to 5x).
	knem := seriesByLabel(t, fig, "KNEM LMT").Points[0].Throughput
	def := seriesByLabel(t, fig, "default LMT").Points[0].Throughput
	if knem < 1.5*def {
		t.Errorf("fig7 32KiB: knem %.0f should be well above default %.0f", knem, def)
	}
}

func TestTable1SmallRun(t *testing.T) {
	tab := shared[table1Result](t, "table1")
	if len(tab.Rows) != 2 || len(tab.NASRows) != 2 {
		t.Fatalf("table1 rows = %d, want 2", len(tab.Rows))
	}
	var buf bytes.Buffer
	RenderTable(&buf, tab.Table)
	if !strings.Contains(buf.String(), "mg.B.8") {
		t.Fatalf("rendered table missing kernel name:\n%s", buf.String())
	}
}

func TestTable2SmallRun(t *testing.T) {
	if testing.Short() {
		t.Skip("4MiB miss-count rows skipped in -short mode")
	}
	tab := shared[Table](t, "table2")
	if len(tab.Rows) != 5 {
		t.Fatalf("table2 rows = %d, want 5", len(tab.Rows))
	}
	var buf bytes.Buffer
	RenderTable(&buf, tab)
	out := buf.String()
	for _, want := range []string{"64KiB Pingpong", "4MiB Pingpong", "64KiB Alltoall", "4MiB Alltoall"} {
		if !strings.Contains(out, want) {
			t.Errorf("table2 missing row %q", want)
		}
	}
}

func TestRenderAndCSV(t *testing.T) {
	fig := shared[Figure](t, "fig4")
	var buf bytes.Buffer
	RenderFigure(&buf, fig)
	if !strings.Contains(buf.String(), "128KiB") || !strings.Contains(buf.String(), "KNEM LMT") {
		t.Fatalf("rendered figure incomplete:\n%s", buf.String())
	}
	files, err := fig.Files()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{fig.ID + ".csv", fig.ID + ".json"} {
		if len(files[name]) == 0 {
			t.Errorf("artefact %s missing or empty (have %d files)", name, len(files))
		}
	}
}

func TestFormatCount(t *testing.T) {
	cases := map[int64]string{
		91: "91", 45_000: "45k", 3_700: "3.7k", 11_250_000: "11.25M", 624_000: "624k",
	}
	for v, want := range cases {
		if got := formatCount(v); got != want {
			t.Errorf("formatCount(%d) = %q, want %q", v, got, want)
		}
	}
}

func seriesByLabel(t *testing.T, fig Figure, label string) Series {
	t.Helper()
	for _, s := range fig.Series {
		if s.Label == label {
			return s
		}
	}
	t.Fatalf("%s: no series %q", fig.ID, label)
	return Series{}
}
