package experiments

import (
	"encoding/json"
	"sort"
	"testing"
)

// The rt rows are wall-clock measurements, so their values vary run to run.
// What must not drift is the artefact's *shape*: the (bench, mode, size)
// grid, the row ordering, and the JSON schema external consumers parse.
// The schema is golden-checked (testdata/rt_row.golden) like the renderers.

func TestRTExperimentShape(t *testing.T) {
	rt := shared[rtResult](t, "rt")

	// Full grid: 2 benches x 3 modes x 2 sizes, in deterministic order.
	wantRows := 2 * 3 * 2
	if len(rt.RTRows) != wantRows {
		t.Fatalf("rt rows = %d, want %d", len(rt.RTRows), wantRows)
	}
	if len(rt.Rows) != wantRows {
		t.Fatalf("rendered rows = %d, want %d", len(rt.Rows), wantRows)
	}
	benchesSeen := map[string]int{}
	modesSeen := map[string]int{}
	for i, row := range rt.RTRows {
		benchesSeen[row.Bench]++
		modesSeen[row.Mode]++
		if row.Ranks < 2 {
			t.Errorf("row %d: ranks = %d", i, row.Ranks)
		}
		if row.Size <= 0 {
			t.Errorf("row %d: size = %d", i, row.Size)
		}
		if row.TimeUS <= 0 || row.MiBps <= 0 {
			t.Errorf("row %d: degenerate measurement %+v", i, row)
		}
	}
	if benchesSeen["PingPong"] != 6 || benchesSeen["Sendrecv"] != 6 {
		t.Errorf("bench coverage: %v", benchesSeen)
	}
	for _, mode := range []string{"eager", "single-copy", "offload"} {
		if modesSeen[mode] != 4 {
			t.Errorf("mode %s covered %d times, want 4", mode, modesSeen[mode])
		}
	}
	// Sizes ascend within each (bench, mode) group.
	for i := 1; i < len(rt.RTRows); i++ {
		prev, cur := rt.RTRows[i-1], rt.RTRows[i]
		if prev.Bench == cur.Bench && prev.Mode == cur.Mode && cur.Size <= prev.Size {
			t.Errorf("rows %d-%d: sizes not ascending within %s/%s", i-1, i, cur.Bench, cur.Mode)
		}
	}

	if rendered(rt) == "" {
		t.Error("empty rendering")
	}
}

// The JSON schema of one row is what external consumers parse; golden-check
// the key set and types via a zero-valued row.
func TestRTRowJSONSchemaGolden(t *testing.T) {
	got, err := json.MarshalIndent(RTRow{}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	checkGolden(t, "rt_row", got)
}

// Files must emit the typed rows (not the rendered table) as rt.json.
func TestRTExperimentWritesTypedRows(t *testing.T) {
	files, err := shared[rtResult](t, "rt").Files()
	if err != nil {
		t.Fatal(err)
	}
	data := files["rt.json"]
	var rows []map[string]any
	if err := json.Unmarshal(data, &rows); err != nil {
		t.Fatalf("rt.json is not a row array: %v", err)
	}
	if len(rows) == 0 {
		t.Fatal("rt.json has no rows")
	}
	var keys []string
	for k := range rows[0] {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	want := []string{"Bench", "MiBps", "Mode", "Ranks", "Size", "TimeUS"}
	if len(keys) != len(want) {
		t.Fatalf("row keys = %v, want %v", keys, want)
	}
	for i := range keys {
		if keys[i] != want[i] {
			t.Fatalf("row keys = %v, want %v", keys, want)
		}
	}
}
