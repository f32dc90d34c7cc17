package serve

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"knemesis/internal/serve/api"
	"knemesis/internal/units"
)

// executeResult runs spec through Execute and returns its result.json.
func executeResult(t *testing.T, spec api.Spec) []byte {
	t.Helper()
	c, _ := mustCanon(t, spec)
	files, err := Execute(context.Background(), c, nil)
	if err != nil {
		t.Fatal(err)
	}
	return files["result.json"]
}

// A comm job's machines fill from the cache state earlier jobs released, so
// a spec run after a different one must read exactly as it did first: A, B
// of another shape (four ranks, two dies, other sizes), then A again.
func TestReleasedStateKeepsResultsIdentical(t *testing.T) {
	a := api.Spec{Kind: api.KindComm, Bench: "pingpong", Sizes: []int64{64 * units.KiB, units.MiB}}
	b := api.Spec{Kind: api.KindComm, Bench: "alltoall", Ranks: 4, Sizes: []int64{16 * units.KiB, 256 * units.KiB}}
	first := executeResult(t, a)
	executeResult(t, b)
	if again := executeResult(t, a); !bytes.Equal(again, first) {
		t.Fatalf("A after B differs from A's first run:\n%s\nfirst:\n%s", again, first)
	}
}

// Concurrent Executes release into and fill from the same pools; under
// -race this is where two jobs sharing backing would show, and every
// result must still equal its spec's own run.
func TestConcurrentExecutesRecycle(t *testing.T) {
	specs := []api.Spec{
		tinySpec(8 * units.KiB),
		tinySpec(512 * units.KiB),
		{Kind: api.KindComm, Bench: "sendrecv", Ranks: 4, Sizes: []int64{64 * units.KiB}},
	}
	want := make([][]byte, len(specs))
	for i, s := range specs {
		want[i] = executeResult(t, s)
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				k := (w + i) % len(specs)
				c, _ := mustCanon(t, specs[k])
				files, err := Execute(context.Background(), c, nil)
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(files["result.json"], want[k]) {
					t.Errorf("worker %d, run %d: spec %d's result differs from its solo run", w, i, k)
				}
			}
		}(w)
	}
	wg.Wait()
}
