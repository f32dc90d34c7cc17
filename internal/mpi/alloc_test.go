//go:build !race

package mpi

import (
	"runtime"
	"testing"

	"knemesis/internal/core"
	"knemesis/internal/units"
)

// mallocsPerRoundTrip is what each round trip of a default-LMT cross-die
// ping-pong of size bytes allocates beyond the job's fixed cost: the
// difference between a long and a short run of new jobs, per extra round
// trip, the least of a few tries (a GC between the two runs empties the
// pools the first fills take from).
func mallocsPerRoundTrip(t *testing.T, size int64) float64 {
	t.Helper()
	const short, long = 2, 10
	mallocs := func(rounds int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := pingPongJob(core.DefaultLMT).Run(pingPong(size, rounds)); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	best := -1.0
	for try := 0; try < 5; try++ {
		d := float64(mallocs(long)) - float64(mallocs(short))
		if per := d / (long - short); best < 0 || per < best {
			best = per
		}
	}
	return best
}

// The default LMT's copy ring moves a message in 32 KiB slots, so a 1 MiB
// round trip runs 64 slot copies where a 128 KiB one runs 8. What a round
// trip allocates must not follow them: the chunk windows are cut into
// scratch, the overlay walks call back, and the pipe FIFOs reuse their
// room. Per-transfer costs (requests, protocol processes) stay.
func TestSimAllocsPerRoundTripFlatInSize(t *testing.T) {
	small := mallocsPerRoundTrip(t, 128*units.KiB)
	large := mallocsPerRoundTrip(t, units.MiB)
	t.Logf("objects allocated per round trip: %.1f at 128 KiB, %.1f at 1 MiB", small, large)
	if large > small+4 {
		t.Fatalf("a 1 MiB round trip allocates %.1f objects, a 128 KiB one %.1f: the per-chunk copy path allocates", large, small)
	}
}
