package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// selfcheckReps is the number of runs per set and workload.
const selfcheckReps = 5

// runChild runs one workload in a process of its own (this binary again)
// and parses the result line.
func runChild(workload string, seed uint64, seconds int) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte{'\n'})
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return result{}, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	if !res.Correct || res.Failed > 0 {
		return res, fmt.Errorf("%s seed %d: %d of %d ops failed", workload, seed, res.Failed, res.Attempted)
	}
	return res, nil
}

// worse is how much worse b is than a, as a share of a (negative: better).
func worse(d metricDef, a, b float64) float64 {
	if d.Better == higher {
		return (a - b) / a
	}
	return (b - a) / a
}

// runSelfcheck runs the suite as two interleaved sets of the same binary
// (A B A B ..., selfcheckReps each, run i of both sets on seed i+1) and
// fails if any end-to-end metric's two medians differ by more than half its
// bound: a benchmark that cannot tell a build from itself cannot tell it
// from a regression. It prints the table README.md commits.
func runSelfcheck(seconds int) error {
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	for rep := 0; rep < selfcheckReps; rep++ {
		for set := range sets {
			for _, w := range workloads() {
				res, err := runChild(w.name, uint64(rep+1), seconds)
				if err != nil {
					return err
				}
				for _, d := range endToEndMetrics {
					k := key{w.name, d.Name}
					sets[set][k] = append(sets[set][k], res.Metrics[d.Name].Value)
				}
				fmt.Fprintf(os.Stderr, "selfcheck: rep %d set %c %s done\n", rep+1, 'A'+set, w.name)
			}
		}
	}
	host, _ := json.Marshal(currentHost(".")) // plain struct
	fmt.Printf("host: %s\n\n", host)
	fmt.Println("| workload | metric | unit | median A | median B | B vs A | limit | range/median | IQR/median |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|")
	failures := 0
	for _, w := range workloads() {
		for _, d := range endToEndMetrics {
			k := key{w.name, d.Name}
			a, b := median(sets[0][k]), median(sets[1][k])
			both := append(append([]float64(nil), sets[0][k]...), sets[1][k]...)
			diff := worse(d, a, b)
			if diff < 0 {
				diff = -diff
			}
			verdict := ""
			if diff > d.Bound/2 {
				verdict = " FAIL"
				failures++
			}
			fmt.Printf("| %s | %s | %s | %.5g | %.5g | %.1f%%%s | %.1f%% | %.1f%% | %.1f%% |\n",
				w.name, d.Name, d.Unit, a, b, 100*diff, verdict, 100*d.Bound/2, 100*relSpread(both), 100*iqrShare(both))
		}
	}
	if failures > 0 {
		return fmt.Errorf("self-check: %d (workload, metric) pairs differ between two sets of the same code by more than half their bound", failures)
	}
	return nil
}
