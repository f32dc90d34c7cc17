// Command knemsim regenerates the paper's evaluation artefacts (Figures
// 3-7, Tables 1-2, the §3.5 threshold study and the model ablations) on the
// simulator. The experiment set, its help text and its validation all come
// from the experiments registry — adding an experiment there adds it here.
// An unknown -experiment or -machine exits 2 listing the registered names
// (the same strict registry validation as cmd/imb); runtime failures exit 1.
//
// Usage:
//
//	knemsim -experiment fig5                 # one figure as text
//	knemsim -experiment all -out results     # everything + CSV/JSON files
//	knemsim -experiment table1 -quick        # reduced-scale smoke run
//	knemsim -experiment fig4 -machine x5460  # the 6 MiB-L2 host
//	knemsim -experiment all -j 8             # shard stacks over 8 workers
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"knemesis/internal/experiments"
	"knemesis/internal/profiling"
	"knemesis/internal/topo"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: flag-value errors (unknown experiment or
// machine) return 2 with the registered names on stderr, runtime failures
// return 1.
func run(args []string, stdout, stderr io.Writer) int {
	ids := experiments.Experiments.Names()
	fs := flag.NewFlagSet("knemsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		experiment = fs.String("experiment", "all", strings.Join(ids, "|")+"|all")
		machine    = fs.String("machine", "e5345", strings.Join(topo.Machines.Names(), "|"))
		outDir     = fs.String("out", "", "directory for CSV/JSON artefacts (optional)")
		quick      = fs.Bool("quick", false, "reduced sizes and scaled NAS kernels")
		workers    = fs.Int("j", experiments.DefaultWorkers(),
			"worker pool width for independent stack simulations (1 = serial)")
		verbose    = fs.Bool("v", false, "progress to stderr")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// Validate the registry-backed flags up front: unknown values exit 2
	// with the registered names, matching imb's strict validation.
	if *experiment != "all" {
		if _, err := experiments.Experiments.Lookup(*experiment); err != nil {
			fmt.Fprintln(stderr, "knemsim:", err)
			return 2
		}
	}
	env, err := experiments.EnvByName(*machine, *quick)
	if err != nil {
		fmt.Fprintln(stderr, "knemsim:", err)
		return 2
	}
	env.Workers = *workers

	stopProf, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(stderr, "knemsim:", err)
		return 1
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(stderr, "knemsim: profile:", err)
		}
	}()

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintln(stderr, "knemsim:", err)
			return 1
		}
	}

	for _, exp := range experiments.Experiments.All() {
		if *experiment != "all" && *experiment != exp.ID {
			continue
		}
		start := time.Now()
		if *verbose {
			fmt.Fprintf(stderr, "running %s on %s...\n", exp.ID, env.Machine.Name)
		}
		res, err := exp.Run(context.Background(), env)
		if err != nil {
			fmt.Fprintf(stderr, "knemsim: %s: %v\n", exp.ID, err)
			return 1
		}
		res.Render(stdout)
		fmt.Fprintln(stdout)
		if *outDir != "" {
			if err := writeFiles(*outDir, res); err != nil {
				fmt.Fprintf(stderr, "knemsim: %s: %v\n", exp.ID, err)
				return 1
			}
		}
		if *verbose {
			fmt.Fprintf(stderr, "%s done in %v\n", exp.ID, time.Since(start).Round(time.Millisecond))
		}
	}
	return 0
}

// writeFiles writes a result's artefact files into dir.
func writeFiles(dir string, res experiments.Result) error {
	files, err := res.Files()
	if err != nil {
		return err
	}
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
