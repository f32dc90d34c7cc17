// Command bench is the repository's benchmark: five closed-loop workloads
// timed from outside through the layers' public functions, in probe-
// bracketed fixed-work rounds, with per-layer probes and a traced run.
// README.md in this directory is the catalogue; BENCHMARK.json at the
// repository root is the contract with the driver.
//
//	bash bench/run.sh --workload rt-small --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh --workload knemd-cold --trace 1   # per-layer metrics + Chrome trace
//	bash bench/run.sh --selfcheck                       # A/B/A/B repeatability gate
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

func workloads() []*workload {
	return []*workload{newSimFigs(), newRTSmall(), newRTLarge(), newKnemdCold(), newKnemdWarm()}
}

func lookupWorkload(name string) (*workload, error) {
	var names []string
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	var (
		name      = flag.String("workload", "", "workload to run (one process runs one workload)")
		seed      = flag.Uint64("seed", 1, "seed of the generated inputs")
		seconds   = flag.Int("seconds", 15, "how long the timed rounds measure for, on the nominal host")
		trace     = flag.Int("trace", 0, "1 = the traced run: per-layer metrics and a Chrome trace in .bench_build/; 0 = end-to-end metrics")
		selfcheck = flag.Bool("selfcheck", false, "run the suite as two interleaved sets and fail if their medians differ by more than half a bound")
		dump      = flag.Bool("dump", false, "print every round's raw measurements to standard error")
		catalogue = flag.Bool("catalogue", false, "print BENCHMARK.json (the workloads and every metric's name, unit and direction) and exit")
		simtable  = flag.Bool("simtable", false, "print the sim-figs expected-output table as Go source and exit")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if runtime.NumCPU() < 2 {
		fatal(fmt.Errorf("need at least 2 CPUs, have %d: rt ranks and the knemd clients must run in parallel", runtime.NumCPU()))
	}
	switch {
	case *catalogue:
		fatalIf(printCatalogue())
	case *simtable:
		fatalIf(printSimTable())
	case *selfcheck:
		fatalIf(runSelfcheck(*seconds))
	case *name == "":
		fatal(fmt.Errorf("-workload is required (or -selfcheck)"))
	default:
		w, err := lookupWorkload(*name)
		fatalIf(err)
		if *seconds < 1 {
			fatal(fmt.Errorf("-seconds %d: need at least 1", *seconds))
		}
		res, err := runOne(w, *seed, *seconds, *trace == 1, *dump)
		fatalIf(err)
		line, err := json.Marshal(res)
		fatalIf(err)
		fmt.Println(string(line))
	}
}

func fatalIf(err error) {
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
