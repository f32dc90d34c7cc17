package experiments

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"knemesis/internal/imb"
	"knemesis/internal/units"
)

// Golden-file regression tests for the text renderers: the fixtures below
// are synthetic (independent of the simulation model), so these only fail
// when the *formatting* drifts. Refresh the files after an intentional
// format change with
//
//	go test ./internal/experiments -run TestRenderGolden -update
var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from current render output")

// goldenFigure exercises the column-alignment edge cases: labels shorter
// and longer than the minimum width, series of unequal length (missing
// points render as "-"), and fractional sizes.
func goldenFigure() Figure {
	return Figure{
		ID:     "figX",
		Title:  "synthetic fixture figure",
		YLabel: "Throughput (MiB/s)",
		Series: []Series{
			{Label: "short", Points: []imb.Point{
				{Size: 64 * units.KiB, Throughput: 1234.56},
				{Size: 96 * units.KiB, Throughput: 7.9},
			}},
			{Label: "a very long series label", Points: []imb.Point{
				{Size: 64 * units.KiB, Throughput: 888888.25},
			}},
		},
	}
}

func goldenTable() Table {
	return Table{
		ID:     "tabX",
		Title:  "synthetic fixture table",
		Header: []string{"Workload", "wide column header", "n"},
		Rows: [][]string{
			{"row with a very wide first cell", "1", "2"},
			{"r2", "middle", "3"},
		},
	}
}

func goldenThresholds() []ThresholdResult {
	return []ThresholdResult{
		{Machine: "fixture machine A", Placement: "shared cache", FormulaDMAmin: 1 * units.MiB, MeasuredCrossover: 2 * units.MiB},
		{Machine: "fixture machine B", Placement: "different dies", FormulaDMAmin: 3 * units.MiB, MeasuredCrossover: 0},
	}
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden file (re-run with -update if intentional)\n--- got\n%s--- want\n%s", name, got, want)
	}
}

func TestRenderGoldenFigure(t *testing.T) {
	var buf bytes.Buffer
	RenderFigure(&buf, goldenFigure())
	checkGolden(t, "figure", buf.Bytes())
}

func TestRenderGoldenTable(t *testing.T) {
	var buf bytes.Buffer
	RenderTable(&buf, goldenTable())
	checkGolden(t, "table", buf.Bytes())
}

func TestRenderGoldenThresholds(t *testing.T) {
	var buf bytes.Buffer
	RenderThresholds(&buf, goldenThresholds())
	checkGolden(t, "thresholds", buf.Bytes())
}

// The figure CSV artefact is golden-checked too: its schema is what external
// plotting scripts consume.
func TestRenderGoldenFigureCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFigureCSV(&buf, goldenFigure()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "figure_csv", buf.Bytes())
}

// failingWriter accepts n bytes, then fails every write, as a full disk
// does.
type failingWriter struct{ n int }

func (w *failingWriter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		k := w.n
		w.n = 0
		return k, errors.New("no space left on device")
	}
	w.n -= len(p)
	return len(p), nil
}

// A writer that fails must fail the CSV, not leave a truncated artefact
// behind a nil error. The CSV is smaller than csv.Writer's buffer, so the
// only write that reaches the writer is the final flush's.
func TestWriteFigureCSVSurfacesWriterError(t *testing.T) {
	for _, n := range []int{0, 40} {
		err := WriteFigureCSV(&failingWriter{n: n}, goldenFigure())
		if err == nil || !strings.Contains(err.Error(), "no space") {
			t.Errorf("writer failing after %d bytes: err = %v, want the write error", n, err)
		}
	}
}
