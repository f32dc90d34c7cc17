//go:build !race

package serve

import (
	"context"
	"runtime"
	"slices"
	"testing"

	"knemesis/internal/serve/api"
)

// coldAllocCeiling bounds what one cold comm job allocates in Execute once
// earlier jobs have released their cache state. A knemd-cold job (a 2-rank
// pingpong at one size just above 64 KiB) allocated about 112 KB when every
// job made its own L2 way arrays (~43 KB) and directory pages (~27 KB);
// with both recycled it allocates about 42 KB, mostly the per-chunk
// I/O vectors and the artefact's JSON. 64 KiB sits between the two: it
// fails when either pool stops being reused and leaves room for noise.
// The file is left out of -race builds, whose sync.Pool drops a quarter of
// what is put into it on purpose.
const coldAllocCeiling = 64 * 1024

func TestColdExecuteAllocationGate(t *testing.T) {
	const runs = 9
	spec := func(k int) api.Spec { return tinySpec(65536 + 64*int64(k)) }
	run := func(k int) {
		c, _ := mustCanon(t, spec(k))
		if _, err := Execute(context.Background(), c, nil); err != nil {
			t.Fatal(err)
		}
	}
	run(0) // the first job finds the pools empty
	bytes := make([]uint64, runs)
	var before, after runtime.MemStats
	for i := range bytes {
		runtime.ReadMemStats(&before)
		run(i + 1)
		runtime.ReadMemStats(&after)
		bytes[i] = after.TotalAlloc - before.TotalAlloc
	}
	slices.Sort(bytes)
	med := bytes[runs/2]
	t.Logf("a cold Execute allocates %d B (median of %d, range %d-%d)", med, runs, bytes[0], bytes[runs-1])
	if med > coldAllocCeiling {
		t.Fatalf("a cold Execute allocates %d B, above the %d B ceiling: is cache state still recycled?", med, coldAllocCeiling)
	}
}
