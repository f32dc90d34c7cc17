package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"knemesis/internal/experiments"
	"knemesis/internal/serve"
	"knemesis/internal/serve/api"
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

// knemsim and knemd produce the same artefact: the printed key is the cache
// key of the canonical fig4 spec, and every file -out writes equals the
// same-named file the daemon's driver returns for that spec.
func TestKeyAndFilesMatchDaemon(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr strings.Builder
	if code := run([]string{"-experiment", "fig4", "-quick", "-out", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d (stderr: %s)", code, stderr.String())
	}
	spec, err := api.Spec{Kind: api.KindExperiment, Experiment: "fig4", Quick: true}.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	key, err := spec.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	if first, _, _ := strings.Cut(stdout.String(), "\n"); first != "# key "+key {
		t.Errorf("first stdout line = %q, want %q", first, "# key "+key)
	}
	want, err := serve.Execute(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(want) {
		t.Errorf("knemsim wrote %d files, the daemon returns %d", len(entries), len(want))
	}
	for _, e := range entries {
		got, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if w, ok := want[e.Name()]; !ok {
			t.Errorf("%s: not among the daemon's artefacts", e.Name())
		} else if !bytes.Equal(got, w) {
			t.Errorf("%s differs from the daemon's artefact", e.Name())
		}
	}
}
