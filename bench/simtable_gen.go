package main

import (
	"bytes"
	"fmt"
	"go/format"
	"os"
	"runtime"
)

// printSimTable prints simtable.go: what every sim-figs op must return.
// Regenerate it only when a change is meant to move the model's results.
func printSimTable() error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cases := simCases()
	ps, err := simPass(cases, false)
	if err != nil {
		return err
	}
	var b bytes.Buffer
	b.WriteString("// Code generated by `bash bench/run.sh --simtable`; DO NOT EDIT.\n\npackage main\n\n" +
		"// simTable is the simulated MiB/s every sim-figs op must return, bit for bit\n" +
		"// (README.md records its cross-check against BENCH_3.json).\n" +
		"var simTable = map[string]float64{\n")
	for _, c := range cases {
		fmt.Fprintf(&b, "%q: %v,\n", c.name, ps.mibps[c.name])
	}
	b.WriteString("}\n")
	src, err := format.Source(b.Bytes())
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(src)
	return err
}
