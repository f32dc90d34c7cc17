// Command imb runs a single IMB-style benchmark under one configuration —
// the interactive counterpart of the figure sweeps in cmd/knemsim. It is a
// front end for knemd's job spec: the flags become an api.Spec, which is
// validated by the spec's own Canonicalize and run by serve.Execute, the
// daemon's driver. So imb can run exactly what the daemon can, and each
// table's header prints the spec's cache key: the id of the daemon
// artefact that holds the same numbers.
//
// Every benchmark is written once against the engine-neutral comm
// interface, so -engine switches the same workload between the
// deterministic simulator (simulated time, modelled caches) and the real
// goroutine runtime (wall-clock time). Besides PingPong and Alltoall it
// drives the concurrent patterns (Multi-PingPong, Sendrecv, Exchange),
// which report bus utilization and CPU busy seconds alongside throughput on
// the simulator. Unknown flag values exit 2 with the registered names.
//
// Usage:
//
//	imb -bench pingpong -lmt knem -placement cross -min 64KiB -max 4MiB
//	imb -engine rt -bench pingpong -rtmode eager      # same workload, real runtime
//	imb -bench multi-pingpong -ranks 8 -placement cross  # 4 contending pairs
//	imb -bench sendrecv -lmt cma -ranks 8             # periodic-chain exchange
//	imb -engine rt -bench exchange -ranks 8           # both-neighbour, goroutines
//	imb -bench alltoall -lmt knem-ioat -ranks 8
//	imb -topo examples/topologies/two-node.dot -bench alltoall -ranks 16
//	imb -topo fat-tree-16 -topoplace spread -bench sendrecv -ranks 16
//	imb -perturb 'slow-core;delayed-recv:mean=2e-6' -seed 7 -bench pingpong
//	imb -lmt list        # describe every registered backend preset
//	imb -topo list       # describe every registered cluster preset
//	imb -perturb list    # describe every registered perturbation kind
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"knemesis/internal/comm"
	"knemesis/internal/core"
	"knemesis/internal/imb"
	"knemesis/internal/perturb"
	"knemesis/internal/profiling"
	"knemesis/internal/rt"
	"knemesis/internal/serve"
	"knemesis/internal/serve/api"
	"knemesis/internal/topo"
	"knemesis/internal/units"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: a flag value the spec rejects returns 2
// with the registered names on stderr, a failed run returns 1.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("imb", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		engine     = fs.String("engine", "sim", strings.Join(comm.Engines.Names(), "|"))
		bench      = fs.String("bench", "pingpong", strings.Join(imb.Benches.Names(), "|"))
		lmt        = fs.String("lmt", "", strings.Join(core.Presets.Names(), "|")+"|list (sim engine; default \"default\")")
		rtmode     = fs.String("rtmode", "", strings.Join(rt.ModeNames(), "|")+" (rt engine; default single-copy)")
		placement  = fs.String("placement", "cross", "shared|cross (the pingpong benches on sim)")
		machine    = fs.String("machine", "", machineHelp())
		topoName   = fs.String("topo", "", "multi-node cluster: a .dot file or "+strings.Join(topo.Clusters.Names(), "|")+"|list")
		topoPlace  = fs.String("topoplace", "block", "block|spread rank placement on -topo")
		flatColl   = fs.Bool("flatcoll", false, "keep flat single-level collectives on -topo")
		ranks      = fs.Int("ranks", 8, "rank count (every bench but pingpong, which is one pair)")
		minSize    = fs.String("min", "64KiB", "smallest message size")
		maxSize    = fs.String("max", "4MiB", "largest message size")
		eagerMax   = fs.String("eager", "", "override the rendezvous threshold (e.g. 4KiB)")
		perturbL   = fs.String("perturb", "", "';'-separated fault/skew injections (e.g. 'slow-core;delayed-recv:mean=2e-6')|list")
		seed       = fs.Uint64("seed", 1, "seed for the -perturb RNG streams")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usageErr := func(err error) int {
		// The bench registry's errors already carry this command's name.
		fmt.Fprintln(stderr, "imb:", strings.TrimPrefix(err.Error(), "imb: "))
		fs.Usage()
		return 2
	}

	if *lmt == "list" {
		for _, s := range core.Presets.All() {
			fmt.Fprintf(stdout, "%-16s %s\n", s.Name, s.Help)
		}
		return 0
	}
	if *topoName == "list" {
		for _, p := range topo.Clusters.All() {
			fmt.Fprintf(stdout, "%-16s %s\n", p.Name, p.Help)
		}
		return 0
	}
	if *perturbL == "list" {
		for _, k := range perturb.Kinds.All() {
			fmt.Fprintf(stdout, "%-16s %s\n", k.Name, k.Help)
			for _, p := range k.Param {
				if len(p.Enum) > 0 {
					fmt.Fprintf(stdout, "    %-12s %s (one of %s, default %s)\n",
						p.Key, p.Help, strings.Join(p.Enum, "|"), p.Enum[0])
					continue
				}
				fmt.Fprintf(stdout, "    %-12s %s (default %v, range [%v, %v])\n",
					p.Key, p.Help, p.Def, p.Min, p.Max)
			}
		}
		return 0
	}

	lo, err := units.ParseSize(*minSize)
	if err != nil {
		return usageErr(err)
	}
	hi, err := units.ParseSize(*maxSize)
	if err != nil {
		return usageErr(err)
	}
	if lo < 1 || lo > hi {
		return usageErr(fmt.Errorf("-min %s -max %s: need 1 <= min <= max", *minSize, *maxSize))
	}
	s := api.Spec{
		Kind: api.KindComm, Engine: *engine, Bench: *bench, Ranks: *ranks,
		Sizes: units.Pow2Sizes(lo, hi), Machine: *machine, LMT: *lmt, RTMode: *rtmode,
		Perturb: *perturbL, Seed: *seed,
	}
	if *eagerMax != "" {
		if s.EagerMax, err = units.ParseSize(*eagerMax); err != nil {
			return usageErr(err)
		}
	}
	if *bench == "pingpong" {
		s.Ranks = 2
	}
	switch {
	case *topoName != "":
		s.Topology, s.Placement, s.FlatColl = *topoName, *topoPlace, *flatColl
		if src, err := os.ReadFile(*topoName); err == nil {
			s.Topology = string(src) // the spec carries a .dot file's text, not its path
		}
	case *engine == "sim" && (*bench == "pingpong" || *bench == "multi-pingpong"):
		s.Placement = *placement
	}
	spec, err := s.Canonicalize()
	if err != nil {
		return usageErr(err)
	}

	stopProf, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(stderr, "imb:", err)
		return 1
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(stderr, "imb: profile:", err)
		}
	}()
	if err := execute(stdout, spec); err != nil {
		fmt.Fprintln(stderr, "imb:", err)
		return 1
	}
	return 0
}

// machineHelp lists the machine presets, the first being the spec's
// default.
func machineHelp() string {
	names := topo.Machines.Names()
	return names[0] + " (default)|" + strings.Join(names[1:], "|") + " (sim only)"
}

// execute runs a canonical spec through the daemon's driver and prints its
// result.json as a table: the concurrent benches (which report a rank
// count) with bus and CPU columns, the single-stream ones with L2 misses.
func execute(w io.Writer, spec api.Spec) error {
	key, err := spec.CacheKey()
	if err != nil {
		return err
	}
	files, err := serve.Execute(context.Background(), spec, nil)
	if err != nil {
		return err
	}
	var artefact struct{ Result json.RawMessage }
	if err := json.Unmarshal(files["result.json"], &artefact); err != nil {
		return err
	}
	var multi imb.MultiResult
	if err := json.Unmarshal(artefact.Result, &multi); err != nil {
		return err
	}
	if multi.Ranks > 0 {
		fmt.Fprintf(w, "# %s, %d ranks, engine %s, %s, key %s\n", multi.Bench, multi.Ranks, spec.Engine, multi.Label, key)
		fmt.Fprintf(w, "%-10s %14s %14s %10s %14s\n", "size", "time(us)", "agg MiB/s", "bus util", "cpu busy(s)")
		for _, pt := range multi.Points {
			fmt.Fprintf(w, "%-10s %14.2f %14.0f %10.2f %14.4f\n",
				units.FormatSize(pt.Size), pt.Time.Microseconds(), pt.Throughput, pt.BusUtil, pt.CPUBusySec)
		}
		return nil
	}
	var solo imb.Result
	if err := json.Unmarshal(artefact.Result, &solo); err != nil {
		return err
	}
	fmt.Fprintf(w, "# %s, engine %s, %s, key %s\n", solo.Bench, spec.Engine, solo.Label, key)
	fmt.Fprintf(w, "%-10s %14s %14s %14s\n", "size", "time(us)", "MiB/s", "L2miss/op")
	for _, pt := range solo.Points {
		fmt.Fprintf(w, "%-10s %14.2f %14.0f %14d\n",
			units.FormatSize(pt.Size), pt.Time.Microseconds(), pt.Throughput, pt.L2Misses)
	}
	return nil
}
