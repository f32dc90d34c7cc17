// Quickstart: one workload, two engines. The IMB PingPong driver is
// written once against the engine-neutral Peer/Job interface, so the very
// same sweep runs on the deterministic simulator (reproducing the paper's
// Figure 5 shape: kernel-assisted single-copy transfers beat the
// double-buffered default when the cores do not share a cache) and on the
// real goroutine runtime (measuring the eager-vs-single-copy trade-off in
// wall-clock time).
package main

import (
	"fmt"

	"knemesis"
	"knemesis/internal/units"
)

func main() {
	sizes := []int64{256 * units.KiB, 1 * units.MiB}
	machine := knemesis.XeonE5345()
	c0, c1 := machine.PairDifferentDies()

	fmt.Printf("IMB PingPong, one driver source, every engine (%s)\n\n", units.FormatSize(sizes[len(sizes)-1]))

	fmt.Printf("engine sim: %s, cores %d and %d (no shared cache), simulated time\n", machine.Name, c0, c1)
	// Every registered -lmt preset, straight from the backend registry: a
	// newly registered backend appears here with no example change.
	for _, spec := range knemesis.LMTSpecs.All() {
		job, err := knemesis.NewJob("sim", knemesis.JobSpec{
			Ranks:   2,
			Machine: machine,
			Cores:   []knemesis.CoreID{c0, c1},
			LMT:     spec.Name,
		})
		if err != nil {
			panic(err)
		}
		printSweep(job, sizes)
	}

	fmt.Printf("\nengine rt: 2 rank goroutines, wall-clock time\n")
	for _, mode := range knemesis.RTModeNames() {
		job, err := knemesis.NewJob("rt", knemesis.JobSpec{Ranks: 2, RTMode: mode})
		if err != nil {
			panic(err)
		}
		printSweep(job, sizes)
	}

	fmt.Println("\nExpected shape (paper, Fig. 5): knem > vmsplice > default on the")
	fmt.Println("simulator; on the real runtime single-copy rendezvous beats the")
	fmt.Println("eager two-copy path for large messages — the paper's core claim.")
}

// printSweep runs the engine-neutral PingPong driver on a job and prints
// one line per configuration.
func printSweep(job knemesis.Job, sizes []int64) {
	res, err := knemesis.RunPingPong(job, sizes)
	if err != nil {
		panic(err)
	}
	fmt.Printf("  %-14s", res.Label)
	for _, pt := range res.Points {
		fmt.Printf("  %s: %7.0f MiB/s", units.FormatSize(pt.Size), pt.Throughput)
	}
	fmt.Println()
}
