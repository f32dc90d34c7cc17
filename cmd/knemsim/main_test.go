package main

import (
	"strings"
	"testing"

	"knemesis/internal/experiments"
)

// An unknown -experiment must exit 2 (a usage error, distinct from runtime
// failures) and list every registered experiment name, matching cmd/imb's
// strict registry validation.
func TestUnknownExperimentExits2ListingNames(t *testing.T) {
	var stdout, stderr strings.Builder
	code := run([]string{"-experiment", "no-such-experiment"}, &stdout, &stderr)
	if code != 2 {
		t.Fatalf("exit code = %d, want 2 (stderr: %s)", code, stderr.String())
	}
	msg := stderr.String()
	if !strings.Contains(msg, "no-such-experiment") {
		t.Errorf("stderr does not name the rejected value: %s", msg)
	}
	for _, id := range experiments.Experiments.Names() {
		if !strings.Contains(msg, id) {
			t.Errorf("stderr does not list registered experiment %q: %s", id, msg)
		}
	}
}

func TestUnknownMachineExits2(t *testing.T) {
	var stdout, stderr strings.Builder
	code := run([]string{"-machine", "pentium-2"}, &stdout, &stderr)
	if code != 2 {
		t.Fatalf("exit code = %d, want 2 (stderr: %s)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "e5345") {
		t.Errorf("stderr does not list the machine presets: %s", stderr.String())
	}
}

func TestUnknownFlagExits2(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-no-such-flag"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
}
