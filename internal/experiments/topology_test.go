package experiments

import (
	"context"
	"testing"

	"knemesis/internal/sim"
	"knemesis/internal/topo"
	"knemesis/internal/units"
)

// TestTopologyGolden pins the full registry artefact byte-for-byte: the
// simulation is deterministic, so any drift in modelled times or network
// accounting (not just formatting) fails here. Refresh after an intentional
// model change with
//
//	go test ./internal/experiments -run TestTopologyGolden -update
func TestTopologyGolden(t *testing.T) {
	checkGolden(t, "topology", []byte(rendered(shared[topologyResult](t, "topology"))))
}

// The sweep shards one self-contained cluster simulation per case across
// the worker pool; output must be byte-identical at any width.
func TestTopologyParallelDeterminism(t *testing.T) {
	if serial, parallel := rendered(shared[topologyResult](t, "topology")), rendered(wideRun(t, "topology")); serial != parallel {
		t.Errorf("topology artefact differs between -j1 and -j8:\n--- j1\n%s--- j8\n%s", serial, parallel)
	}
}

// TestTopologyFatTree1024 runs a 1024-rank job — 64 sixteen-core hosts on a
// 4-spine/8-leaf fat tree — through the same pipeline the registry uses,
// and asserts the point of the hierarchy: node-leader Allreduce moves
// strictly fewer modeled inter-node byte-hops than the flat recursive-
// doubling algorithm at a non-trivial payload.
func TestTopologyFatTree1024(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-rank cluster simulation")
	}
	gbit := 1.25e9
	cl := topo.FatTree(4, 8, 8, 16,
		1*sim.Microsecond, 2*gbit, 2*sim.Microsecond, 4*gbit)
	const ranks = 1024
	if cap := cl.Capacity(); cap != ranks {
		t.Fatalf("fat tree capacity %d, want %d", cap, ranks)
	}
	const size = 16 * units.KiB
	hier, err := runTopologyCase(context.Background(), cl, ranks, false, "allreduce", size)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := runTopologyCase(context.Background(), cl, ranks, true, "allreduce", size)
	if err != nil {
		t.Fatal(err)
	}
	if hier.Nodes != 64 || flat.Nodes != 64 {
		t.Fatalf("placement used %d/%d nodes, want 64", hier.Nodes, flat.Nodes)
	}
	if hier.ByteHops <= 0 || flat.ByteHops <= 0 {
		t.Fatalf("expected network traffic on both arms (hier %d, flat %d)", hier.ByteHops, flat.ByteHops)
	}
	if hier.ByteHops >= flat.ByteHops {
		t.Errorf("hierarchical allreduce moved %d byte-hops, flat moved %d — no saving",
			hier.ByteHops, flat.ByteHops)
	}
	if hier.TimeSec <= 0 || flat.TimeSec <= 0 {
		t.Errorf("zero simulated time (hier %v, flat %v)", hier.TimeSec, flat.TimeSec)
	}
}
