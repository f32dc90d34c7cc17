// Threshold: the paper's §3.5 policy study. Prints the DMAmin formula
// values for several machines and placements, then measures the actual
// copy-vs-I/OAT crossover on the simulator to show the formula predicts it.
package main

import (
	"context"
	"fmt"
	"os"

	"knemesis/internal/experiments"
	"knemesis/internal/topo"
	"knemesis/internal/units"
)

func main() {
	fmt.Println("DMAmin = CacheSize / (2 x processes sharing the cache)   (paper §3.5)")
	fmt.Println()
	for _, m := range []*topo.Machine{topo.XeonE5345(), topo.XeonX5460(), topo.NehalemStyle()} {
		fmt.Printf("%s\n", m.Name)
		fmt.Printf("  shared-cache pair : DMAmin = %s\n", units.FormatSize(m.DMAMin(2)))
		fmt.Printf("  unshared pair     : DMAmin = %s\n", units.FormatSize(m.DMAMin(1)))
		fmt.Printf("  one rank per core : DMAmin = %s (architecture-only formula)\n",
			units.FormatSize(m.DMAMinArch(0)))
		fmt.Println()
	}

	fmt.Println("Measured crossover (first size where I/OAT beats the kernel copy):")
	res, err := experiments.Run(context.Background(), "thresholds", experiments.Env{})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	res.Render(os.Stdout)
	fmt.Println()
	fmt.Println("Paper calibration points: 1MiB shared / 2MiB unshared on the 4MiB-L2")
	fmt.Println("host; the 6MiB-L2 host raises thresholds by 50%.")
}
