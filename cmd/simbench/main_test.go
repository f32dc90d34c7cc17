package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for simbench: re-executed with
// "simbench" as its first argument it runs main on the arguments after it.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "simbench" {
		os.Args = os.Args[1:]
		main()
		return
	}
	os.Exit(m.Run())
}

// Flag combinations that would run nothing, or be ambiguous, exit 2 before
// any workload runs; in particular -check with no workload selected must not
// pass against any baseline it is given.
func TestUnusableFlagsExitTwo(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-sim=false", "-rt=false", "-check", "no-such-baseline.json"}, "selects no workloads"},
		{[]string{"-sim=false", "-rt=false", "-out", "never-written.json"}, "selects no workloads"},
		{[]string{"-rt=false"}, "exactly one of -out or -check"},
		{[]string{"-out", "a.json", "-check", "b.json"}, "exactly one of -out or -check"},
	} {
		cmd := exec.Command(os.Args[0], append([]string{"simbench"}, tc.args...)...)
		cmd.Dir = t.TempDir()
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("simbench %v: err = %v, want exit status 2; output:\n%s", tc.args, err, out)
			continue
		}
		if !strings.Contains(string(out), tc.want) {
			t.Errorf("simbench %v: output %q does not say %q", tc.args, out, tc.want)
		}
	}
}

func TestCheckFlagsAcceptsEachWorkloadSet(t *testing.T) {
	for _, set := range [][2]bool{{true, true}, {true, false}, {false, true}} {
		if err := checkFlags("", "BENCH_5.json", set[0], set[1]); err != nil {
			t.Errorf("-sim=%v -rt=%v: %v", set[0], set[1], err)
		}
	}
}
