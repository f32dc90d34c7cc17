package store

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestRecordLifecycle(t *testing.T) {
	s, err := New("")
	if err != nil {
		t.Fatal(err)
	}
	s.Create("j1", "key1", "sim", []byte(`{"k":1}`), Queued)
	s.Advance("j1", Admitted, "")
	s.Advance("j1", Running, "")
	s.Finish("j1", Done, "", "j1", "")

	r, ok := s.Get("j1")
	if !ok {
		t.Fatal("record vanished")
	}
	if r.State != Done || r.Version != 4 {
		t.Fatalf("state=%s version=%d, want done/4", r.State, r.Version)
	}
	want := []State{Queued, Admitted, Running, Done}
	for i, tr := range r.Transitions {
		if tr.State != want[i] {
			t.Fatalf("transition %d = %s, want %s", i, tr.State, want[i])
		}
		if tr.At.IsZero() {
			t.Fatalf("transition %d has no timestamp", i)
		}
	}

	// Terminal states are sticky: a racing transition must not resurrect
	// the record.
	s.Advance("j1", Running, "")
	s.Finish("j1", Failed, "boom", "", "")
	r, _ = s.Get("j1")
	if r.State != Done || r.Error != "" {
		t.Fatalf("terminal record mutated: %+v", r)
	}
}

func TestWaitLongPoll(t *testing.T) {
	s, _ := New("")
	s.Create("j1", "k", "sim", nil, Queued)
	go func() {
		time.Sleep(20 * time.Millisecond)
		s.Advance("j1", Admitted, "")
	}()
	r, ok := s.Wait("j1", 1, 5*time.Second)
	if !ok || r.Version < 2 {
		t.Fatalf("Wait returned version %d, ok=%v; want >= 2", r.Version, ok)
	}
	// A satisfied cursor returns immediately.
	r, ok = s.Wait("j1", 0, time.Hour)
	if !ok || r.Version < 2 {
		t.Fatalf("satisfied Wait blocked or failed: version %d, ok=%v", r.Version, ok)
	}
	// Timeout on a quiescent record returns the current copy.
	start := time.Now()
	r, ok = s.Wait("j1", 99, 30*time.Millisecond)
	if !ok || time.Since(start) < 20*time.Millisecond {
		t.Fatalf("timeout path misbehaved: ok=%v after %v", ok, time.Since(start))
	}
	if _, ok := s.Wait("nope", 0, time.Millisecond); ok {
		t.Fatal("Wait on unknown id reported ok")
	}
}

func TestArtefactsMemoryAndDisk(t *testing.T) {
	files := map[string][]byte{"result.json": []byte(`{"x":1}` + "\n"), "fig.csv": []byte("a,b\n")}
	for _, root := range []string{"", t.TempDir()} {
		s, err := New(root)
		if err != nil {
			t.Fatal(err)
		}
		s.Create("j1", "k", "sim", nil, Running)
		if err := s.PutArtefact("j1", files); err != nil {
			t.Fatal(err)
		}
		s.Finish("j1", Done, "", "j1", "")
		names, err := s.ArtefactNames("j1")
		if err != nil {
			t.Fatal(err)
		}
		if len(names) != 2 || names[0] != "fig.csv" || names[1] != "result.json" {
			t.Fatalf("root=%q: names = %v", root, names)
		}
		buf, err := s.Artefact("j1", "result.json")
		if err != nil || !bytes.Equal(buf, files["result.json"]) {
			t.Fatalf("root=%q: artefact round-trip failed: %q, %v", root, buf, err)
		}
		if _, err := s.Artefact("j1", "missing"); !os.IsNotExist(err) {
			t.Fatalf("root=%q: missing artefact error = %v", root, err)
		}
		if _, err := s.Artefact("j1", filepath.Join("..", "escape")); err == nil {
			t.Fatalf("root=%q: path escape not rejected", root)
		}
	}
}

func TestDelete(t *testing.T) {
	s, _ := New("")
	s.Create("j1", "k", "sim", nil, Queued)
	s.Create("j2", "k", "sim", nil, Queued)
	s.Delete("j1")
	if _, ok := s.Get("j1"); ok {
		t.Fatal("deleted record still present")
	}
	if l := s.List(""); len(l) != 1 || l[0].ID != "j2" {
		t.Fatalf("List after delete = %+v", l)
	}
}
