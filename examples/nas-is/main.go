// NAS IS: run the paper's headline application benchmark — the integer
// sort, whose alltoallv moves ~2 MiB per rank pair per iteration — under
// the four LMT configurations and print the Table 1 row with the speedup
// column. Uses a reduced key volume so the example finishes in seconds;
// run `knemsim -experiment table1` for the full class B suite.
package main

import (
	"context"
	"fmt"
	"os"

	"knemesis/internal/experiments"
	"knemesis/internal/nas"
	"knemesis/internal/topo"
)

func main() {
	machine := topo.XeonE5345()
	kernel := nas.ISSized(1<<22, 5, 8) // 4M keys, 5 iterations

	fmt.Printf("NAS IS proxy (%d ranks, reduced size) on %s\n", kernel.Procs, machine.Name)
	fmt.Println("The sort really runs: keys are generated, redistributed by bucket")
	fmt.Println("through Alltoallv, counting-sorted and globally verified.")
	fmt.Println()

	res, err := experiments.Run(context.Background(), "table1", experiments.Env{Machine: machine, Kernels: []nas.Kernel{kernel}})
	if err != nil {
		panic(err)
	}
	res.Render(os.Stdout)

	fmt.Println("\nPaper (full class B): default 2.34 s -> KNEM+I/OAT 1.86 s, +25.8%.")
	fmt.Println("The simulated default column is calibrated; the other columns are")
	fmt.Println("model predictions (see EXPERIMENTS.md).")
}
