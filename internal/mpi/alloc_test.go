//go:build !race

package mpi

import (
	"runtime"
	"testing"

	"knemesis/internal/comm"
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

// liveHeapGrowth is how much larger a sim job's live heap is after long
// round trips of size bytes than after short ones, each read by rank 0 at
// the end of its loop inside the still-running job, the least of a few
// tries.
func liveHeapGrowth(t *testing.T, size int64, short, long int) int64 {
	t.Helper()
	liveHeap := func(rounds int) int64 {
		var heap uint64
		app := pingPong(size, rounds)
		err := pingPongJob(core.DefaultLMT).Run(func(c comm.Peer) {
			app(c)
			if c.Rank() == 0 {
				runtime.GC()
				runtime.GC() // the second empties what the first left in sync.Pools
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				heap = ms.HeapAlloc
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return int64(heap)
	}
	best := int64(-1)
	for try := 0; try < 3; try++ {
		if d := liveHeap(long) - liveHeap(short); best < 0 || d < best {
			best = d
		}
	}
	return best
}

// A job keeps only the processes that can still run: every message spawns
// protocol processes, and a finished one, with everything its function
// captured, must not stay reachable until the job ends.
func TestSimJobHeapFlatInRoundTrips(t *testing.T) {
	const bound = 64 * units.KiB
	for _, tc := range []struct {
		size        int64
		short, long int
	}{{4 * units.KiB, 500, 5000}, {256 * units.KiB, 100, 1000}} {
		grew := liveHeapGrowth(t, tc.size, tc.short, tc.long)
		t.Logf("%s: live heap after %d round trips exceeds that after %d by %d B", units.FormatSize(tc.size), tc.long, tc.short, grew)
		if grew >= bound {
			t.Errorf("%s: the live heap grew %d B over %d extra round trips (bound %d B): finished processes are retained",
				units.FormatSize(tc.size), grew, tc.long-tc.short, bound)
		}
	}
}
