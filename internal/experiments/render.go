package experiments

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"knemesis/internal/units"
)

// RenderFigure writes a fixed-width text table of the figure: one row per
// size, one column per series (throughput in MiB/s).
func RenderFigure(w io.Writer, fig Figure) {
	fmt.Fprintf(w, "# %s: %s\n", fig.ID, fig.Title)
	fmt.Fprintf(w, "# %s\n", fig.YLabel)
	headers := []string{"size"}
	for _, s := range fig.Series {
		headers = append(headers, s.Label)
	}
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
		if widths[i] < 9 {
			widths[i] = 9
		}
	}
	rowCount := 0
	for _, s := range fig.Series {
		if len(s.Points) > rowCount {
			rowCount = len(s.Points)
		}
	}
	printRow(w, widths, headers)
	for r := 0; r < rowCount; r++ {
		cells := []string{""}
		for _, s := range fig.Series {
			if r < len(s.Points) {
				cells[0] = units.FormatSize(s.Points[r].Size)
				cells = append(cells, fmt.Sprintf("%.0f", s.Points[r].Throughput))
			} else {
				cells = append(cells, "-")
			}
		}
		printRow(w, widths, cells)
	}
}

// RenderTable writes a fixed-width text table.
func RenderTable(w io.Writer, tab Table) {
	fmt.Fprintf(w, "# %s: %s\n", tab.ID, tab.Title)
	widths := make([]int, len(tab.Header))
	for i, h := range tab.Header {
		widths[i] = len(h)
	}
	for _, row := range tab.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	printRow(w, widths, tab.Header)
	for _, row := range tab.Rows {
		printRow(w, widths, row)
	}
}

// printRow writes one fixed-width row: each cell left-aligned to its
// column width, two spaces apart, trailing blanks trimmed.
func printRow(w io.Writer, widths []int, cells []string) {
	var b strings.Builder
	for i, c := range cells {
		if i > 0 {
			b.WriteString("  ")
		}
		fmt.Fprintf(&b, "%-*s", widths[i], c)
	}
	fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
}

// RenderThresholds writes the §3.5 study.
func RenderThresholds(w io.Writer, results []ThresholdResult) {
	fmt.Fprintln(w, "# thresholds: DMAmin formula vs measured I/OAT crossover (section 3.5)")
	for _, r := range results {
		measured := "never in swept range"
		if r.MeasuredCrossover > 0 {
			measured = units.FormatSize(r.MeasuredCrossover)
		}
		fmt.Fprintf(w, "%-45s %-15s formula=%-8s measured=%s\n",
			r.Machine, r.Placement, units.FormatSize(r.FormulaDMAmin), measured)
	}
}

// WriteFigureCSV writes the figure as CSV: size,label,mibps,time_us,misses.
// A failing writer surfaces as the error, including on the final flush.
func WriteFigureCSV(w io.Writer, fig Figure) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"size_bytes", "series", "throughput_mibps", "time_us", "l2_miss_lines"}); err != nil {
		return err
	}
	for _, s := range fig.Series {
		for _, pt := range s.Points {
			rec := []string{
				strconv.FormatInt(pt.Size, 10),
				s.Label,
				fmt.Sprintf("%.2f", pt.Throughput),
				fmt.Sprintf("%.3f", pt.Time.Microseconds()),
				strconv.FormatInt(pt.L2Misses, 10),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// jsonFiles marshals each named artefact as the bytes of <name>.json.
func jsonFiles(named map[string]any) (map[string][]byte, error) {
	out := make(map[string][]byte, len(named))
	for name, v := range named {
		data, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			return nil, err
		}
		out[name+".json"] = append(data, '\n')
	}
	return out, nil
}
