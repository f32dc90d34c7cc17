// Command knemsim regenerates the paper's evaluation artefacts (Figures
// 3-7, Tables 1-2, the §3.5 threshold study and the model ablations) on the
// simulator. knemsim is a front end for knemd's job spec: each selected
// experiment becomes one experiment-kind api.Spec, validated by
// Canonicalize, so an unknown -experiment or -machine exits 2 with the
// registry's own error listing the registered names; runtime failures exit
// 1. Every rendered block starts with "# key <hex>", the cache key of the
// knemd job whose artefacts equal the files -out writes.
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
	"knemesis/internal/serve/api"
	"knemesis/internal/topo"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: a spec Canonicalize rejects (unknown
// experiment or machine) returns 2 with the registered names on stderr,
// runtime failures return 1.
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

	// Validate every selected experiment's spec up front: unknown values
	// exit 2 before anything runs.
	selected := ids
	if *experiment != "all" {
		selected = []string{*experiment}
	}
	specs := make([]api.Spec, len(selected))
	for i, id := range selected {
		spec, err := api.Spec{Kind: api.KindExperiment, Experiment: id, Machine: *machine, Quick: *quick}.Canonicalize()
		if err != nil {
			fmt.Fprintln(stderr, "knemsim:", err)
			return 2
		}
		specs[i] = spec
	}

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

	for _, spec := range specs {
		start := time.Now()
		key, err := spec.CacheKey()
		if err != nil {
			fmt.Fprintln(stderr, "knemsim:", err)
			return 1
		}
		env, err := spec.Env()
		if err != nil {
			fmt.Fprintln(stderr, "knemsim:", err)
			return 1
		}
		env.Workers = *workers
		if *verbose {
			fmt.Fprintf(stderr, "running %s on %s...\n", spec.Experiment, env.Machine.Name)
		}
		res, err := experiments.Run(context.Background(), spec.Experiment, env)
		if err != nil {
			fmt.Fprintf(stderr, "knemsim: %s: %v\n", spec.Experiment, err)
			return 1
		}
		fmt.Fprintf(stdout, "# key %s\n", key)
		res.Render(stdout)
		fmt.Fprintln(stdout)
		if *outDir != "" {
			if err := writeFiles(*outDir, res); err != nil {
				fmt.Fprintf(stderr, "knemsim: %s: %v\n", spec.Experiment, err)
				return 1
			}
		}
		if *verbose {
			fmt.Fprintf(stderr, "%s done in %v\n", spec.Experiment, time.Since(start).Round(time.Millisecond))
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
