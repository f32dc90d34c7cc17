// Package imb reimplements the measurement loops of the Intel MPI
// Benchmarks used in the paper's evaluation: PingPong (Figures 3-5, 6) and
// Alltoall (Figure 7), plus the concurrent multi-pair patterns (multi.go).
// As in IMB, each rank sends from a dedicated send buffer and receives into
// a dedicated receive buffer, a warm-up round precedes measurement, and
// iteration counts shrink with message size.
//
// Every driver is written once against the engine-neutral comm interface
// and therefore runs unchanged on any registered engine: the simulator
// reports simulated time and modelled cache misses, the real runtime
// reports wall-clock time.
package imb

import (
	"fmt"

	"knemesis/internal/comm"
	"knemesis/internal/sim"
	"knemesis/internal/units"
)

// Point is one measured message size.
type Point struct {
	Size       int64
	Time       sim.Time // per operation (one-way for PingPong)
	Throughput float64  // MiB/s (aggregated for collectives)
	L2Misses   int64    // machine-wide L2 misses per operation, 64B lines
}

// Result is one benchmark sweep under one transfer configuration.
type Result struct {
	Bench  string
	Label  string
	Points []Point
}

// Iterations returns the IMB-style repetition count for a message size:
// enough repetitions at small sizes, few at huge ones (simulation cost
// scales with moved bytes).
func Iterations(size int64) int {
	switch {
	case size <= 64*units.KiB:
		return 8
	case size <= 512*units.KiB:
		return 5
	default:
		return 3
	}
}

// RunPingPong measures ranks 0<->1 of the job across sizes and returns one
// point per size. The reported time is the half round trip; misses are per
// one-way transfer.
func RunPingPong(j comm.Job, sizes []int64) (Result, error) {
	if j.Size() < 2 {
		return Result{}, fmt.Errorf("imb: PingPong needs 2 ranks, have %d", j.Size())
	}
	res := Result{Bench: "PingPong", Label: j.Label()}

	maxSize := sizes[len(sizes)-1]
	var missStart, missEnd []int64
	var durs []comm.Time

	err := j.Run(func(c comm.Peer) {
		// Bench buffers: on the simulator these have real simulated
		// addresses (so cache, bus and timing behaviour match real
		// allocations bit-for-bit) but no payload storage — the sweep
		// never verifies content.
		send := c.AllocBench(maxSize)
		recv := c.AllocBench(maxSize)
		for _, size := range sizes {
			iters := Iterations(size)
			sv := comm.R(send, 0, size)
			rv := comm.R(recv, 0, size)
			c.Barrier()
			if c.Rank() == 0 {
				// Warm-up round, then measure; the miss window covers
				// exactly the measured iterations.
				c.Send(1, 0, sv)
				c.Recv(1, 0, rv)
				missStart = append(missStart, j.MissLines())
				t0 := c.Elapsed()
				for i := 0; i < iters; i++ {
					c.Send(1, 0, sv)
					c.Recv(1, 0, rv)
				}
				durs = append(durs, (c.Elapsed()-t0)/comm.Time(2*iters))
				missEnd = append(missEnd, j.MissLines())
			} else if c.Rank() == 1 {
				for i := 0; i < iters+1; i++ {
					c.Recv(0, 0, rv)
					c.Send(0, 0, sv)
				}
			}
			c.Barrier()
		}
	})
	if err != nil {
		return res, err
	}
	for i, size := range sizes {
		iters := Iterations(size)
		missPerOp := (missEnd[i] - missStart[i]) / int64(2*iters)
		if missPerOp < 0 {
			missPerOp = 0
		}
		res.Points = append(res.Points, Point{
			Size:       size,
			Time:       durs[i],
			Throughput: units.MiBps(size, durs[i].Seconds()),
			L2Misses:   missPerOp,
		})
	}
	return res, nil
}

// RunAlltoall measures an all-ranks alltoall across per-partner block
// sizes. The reported throughput is aggregated: all payload bytes moved by
// the operation (P*(P-1)*size) divided by the operation time, matching the
// paper's "Aggregated Throughput" axis in Figure 7.
func RunAlltoall(j comm.Job, sizes []int64) (Result, error) {
	res := Result{Bench: "Alltoall", Label: j.Label()}
	n := int64(j.Size())
	if n < 2 {
		return Result{}, fmt.Errorf("imb: Alltoall needs >= 2 ranks")
	}
	maxSize := sizes[len(sizes)-1]
	var missStart, missEnd []int64
	var durs []comm.Time

	err := j.Run(func(c comm.Peer) {
		// Bench buffers for the same reason as PingPong: content-free sweep.
		send := c.AllocBench(maxSize * n)
		recv := c.AllocBench(maxSize * n)
		for _, size := range sizes {
			iters := Iterations(size)
			c.Barrier()
			if c.Rank() == 0 {
				missStart = append(missStart, j.MissLines())
			}
			t0 := c.Elapsed()
			for i := 0; i < iters; i++ {
				// One allocation serves every size (as IMB does); blocks
				// for the current size occupy the buffer's front.
				c.Alltoall(send, recv, size)
			}
			c.Barrier()
			if c.Rank() == 0 {
				durs = append(durs, (c.Elapsed()-t0)/comm.Time(iters))
				missEnd = append(missEnd, j.MissLines())
			}
		}
	})
	if err != nil {
		return res, err
	}
	for i, size := range sizes {
		iters := Iterations(size)
		missPerOp := (missEnd[i] - missStart[i]) / int64(iters)
		if missPerOp < 0 {
			missPerOp = 0
		}
		moved := size * n * (n - 1)
		res.Points = append(res.Points, Point{
			Size:       size,
			Time:       durs[i],
			Throughput: units.MiBps(moved, durs[i].Seconds()),
			L2Misses:   missPerOp,
		})
	}
	return res, nil
}
