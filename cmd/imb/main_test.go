package main

import (
	"fmt"
	"strings"
	"testing"

	"knemesis/internal/comm"
	"knemesis/internal/core"
	"knemesis/internal/imb"
	"knemesis/internal/serve/api"
	"knemesis/internal/topo"
	"knemesis/internal/units"
)

// A flag value the spec rejects exits 2 and names the registered values.
func TestBadFlagValuesExit2(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want []string // substrings stderr must contain
	}{
		{[]string{"-engine", "mpi"}, comm.Engines.Names()},
		{[]string{"-bench", "barrier"}, imb.Benches.Names()},
		{[]string{"-lmt", "zerocopy"}, core.Presets.Names()},
		{[]string{"-placement", "diagonal"}, []string{"shared", "cross"}},
		{[]string{"-bench", "alltoall", "-ranks", "1"}, []string{"need at least 2"}},
		{[]string{"-bench", "alltoall", "-ranks", "99"}, []string{"8 cores"}},
		{[]string{"-bench", "multi-pingpong", "-ranks", "5"}, []string{"even"}},
		{[]string{"-multi", "4"}, []string{"-multi"}},
	} {
		var stdout, stderr strings.Builder
		if code := run(tc.args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr: %s)", tc.args, code, stderr.String())
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(stderr.String(), w) {
				t.Errorf("%v: stderr does not mention %q: %s", tc.args, w, stderr.String())
			}
		}
	}
}

// The default PingPong is the paper's Different Dies pair: its rows are
// those of a sim job pinned to CrossDiePairs(1), not of the shared-cache
// pair, and its header names the cache key of the equivalent daemon spec.
func TestPingPongDefaultsToCrossDie(t *testing.T) {
	sizes := []int64{64 * units.KiB, 128 * units.KiB}
	var stdout, stderr strings.Builder
	if code := run([]string{"-bench", "pingpong", "-min", "64KiB", "-max", "128KiB"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != 2+len(sizes) {
		t.Fatalf("want a header, a column line and %d rows, got:\n%s", len(sizes), stdout.String())
	}

	rows := func(cores []topo.CoreID) []string {
		j, err := comm.NewJob("sim", comm.JobSpec{Ranks: 2, Machine: topo.XeonE5345(), Cores: cores})
		if err != nil {
			t.Fatal(err)
		}
		res, err := imb.RunPingPong(j, sizes)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, pt := range res.Points {
			out = append(out, fmt.Sprintf("%-10s %14.2f %14.0f %14d",
				units.FormatSize(pt.Size), pt.Time.Microseconds(), pt.Throughput, pt.L2Misses))
		}
		return out
	}
	pairs, err := topo.XeonE5345().CrossDiePairs(1)
	if err != nil {
		t.Fatal(err)
	}
	cross, shared := rows(topo.PairCores(pairs)), rows(nil)
	if strings.Join(cross, "\n") == strings.Join(shared, "\n") {
		t.Fatal("cross-die and shared-cache rows coincide: the test cannot tell them apart")
	}
	if got := strings.Join(lines[2:], "\n"); got != strings.Join(cross, "\n") {
		t.Errorf("rows are not the cross-die pair's:\n got %s\nwant %s", got, strings.Join(cross, "\n"))
	}

	spec, err := api.Spec{Kind: api.KindComm, Bench: "pingpong", Sizes: sizes, Placement: "cross"}.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	key, err := spec.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(lines[0], "key "+key) {
		t.Errorf("header %q does not end with the spec's cache key %s", lines[0], key)
	}
}
