package core

import (
	"strings"
	"testing"

	"knemesis/internal/hw"
	"knemesis/internal/ioat"
	"knemesis/internal/kernel"
	"knemesis/internal/knem"
	"knemesis/internal/mem"
	"knemesis/internal/nemesis"
	"knemesis/internal/sim"
	"knemesis/internal/topo"
	"knemesis/internal/units"
)

func TestRegistryPaperOrderAndRoundTrip(t *testing.T) {
	want := []Kind{DefaultLMT, VmspliceLMT, VmspliceWritevLMT, KnemLMT, CMALMT}
	names := Names()
	if len(names) != len(want) {
		t.Fatalf("registered backends = %v, want %v", names, want)
	}
	for i, name := range names {
		if name != want[i] {
			t.Errorf("Names()[%d] = %q, want %q", i, name, want[i])
		}
		b, err := Backends.Lookup(string(name))
		if err != nil {
			t.Fatalf("Backends.Lookup(Names()[%d]=%q): %v", i, name, err)
		}
		if b.Name != name {
			t.Errorf("Backends.Lookup(%q).Name = %q", name, b.Name)
		}
		if b.Info.Summary == "" {
			t.Errorf("%q has no summary", name)
		}
	}
	if _, err := Backends.Lookup("no-such-backend"); err == nil {
		t.Error("Backends.Lookup of unknown backend did not error")
	}
}

func TestSpecsParseRoundTrip(t *testing.T) {
	specs := Presets.All()
	if len(specs) == 0 {
		t.Fatal("no specs")
	}
	seen := map[string]bool{}
	for _, s := range specs {
		if seen[s.Name] {
			t.Errorf("duplicate spec name %q", s.Name)
		}
		seen[s.Name] = true
		opt, err := ParseSpec(s.Name)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", s.Name, err)
		}
		if opt.Kind != s.Options.Kind || opt.IOAT != s.Options.IOAT {
			t.Errorf("ParseSpec(%q) = %+v, want %+v", s.Name, opt, s.Options)
		}
	}
	for _, name := range []string{"default", "vmsplice", "vmsplice-writev", "knem",
		"knem-ioat", "knem-ioat-auto", "knem-async", "cma"} {
		if !seen[name] {
			t.Errorf("spec %q missing (have %v)", name, Presets.Names())
		}
	}
	if _, err := ParseSpec("bogus"); err == nil {
		t.Error("ParseSpec of unknown name did not error")
	}
}

// Every named preset must construct on a fully wired stack (its capability
// check passes) and deliver a large message intact.
func TestEverySpecDeliversOnFullStack(t *testing.T) {
	m := topo.XeonE5345()
	c0, c1 := m.PairDifferentDies()
	for _, spec := range Presets.All() {
		st := NewStack(m, []topo.CoreID{c0, c1}, spec.Options, nemesis.Config{})
		ep0, ep1 := st.Ch.Endpoints[0], st.Ch.Endpoints[1]
		a := ep0.Space.Alloc(256 * units.KiB)
		b := ep1.Space.Alloc(256 * units.KiB)
		a.FillPattern(42)
		st.M.Eng.Spawn("r0", func(p *sim.Proc) { ep0.Send(p, 1, 0, mem.VecOf(a)) })
		st.M.Eng.Spawn("r1", func(p *sim.Proc) { ep1.Recv(p, 0, 0, mem.VecOf(b)) })
		if err := st.M.Eng.Run(); err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if !mem.EqualBytes(a, b) {
			t.Fatalf("%s: corrupted payload", spec.Name)
		}
	}
}

// mustPanic runs the factory against a hand-wired channel and returns the
// recovered capability-check error text ("" when it did not panic).
func factoryPanic(t *testing.T, opt Options, withOS, withKNEM, withDMA bool) (msg string) {
	t.Helper()
	m := hw.New(topo.XeonE5345())
	var os *kernel.OS
	var dma *ioat.Engine
	var km *knem.Module
	if withOS {
		os = kernel.New(m)
	}
	if withDMA {
		dma = ioat.NewEngine(m)
	}
	if withKNEM {
		km = knem.Load(os, dma)
	}
	defer func() {
		if r := recover(); r != nil {
			if err, ok := r.(error); ok {
				msg = err.Error()
			} else {
				msg = "panic"
			}
		}
	}()
	nemesis.NewChannelRanks(m, os, dma, km, []topo.CoreID{0, 4}, nil, nemesis.Config{LMT: Factory(opt)})
	return ""
}

// The registry checks capability requirements centrally: a backend asked to
// run on a channel lacking its substrate fails with a core: error naming
// the missing capability, regardless of which backend it is.
func TestCapabilityChecksCentral(t *testing.T) {
	cases := []struct {
		name            string
		opt             Options
		os, knem, dma   bool
		wantErrContains string
	}{
		{"vmsplice needs kernel", Options{Kind: VmspliceLMT}, false, false, false, "kernel substrate"},
		{"cma needs kernel", Options{Kind: CMALMT}, false, false, false, "kernel substrate"},
		{"knem needs module", Options{Kind: KnemLMT}, true, false, false, "KNEM module"},
		{"knem-ioat needs dma", Options{Kind: KnemLMT, IOAT: IOATAlways}, true, true, false, "DMA hardware"},
		{"knem-ioat-auto needs dma", Options{Kind: KnemLMT, IOAT: IOATAuto}, true, true, false, "DMA hardware"},
		{"default needs nothing", Options{Kind: DefaultLMT}, false, false, false, ""},
		{"knem kernel copy without dma ok", Options{Kind: KnemLMT, IOAT: IOATOff}, true, true, false, ""},
		{"cma with kernel ok", Options{Kind: CMALMT}, true, false, false, ""},
	}
	for _, cs := range cases {
		msg := factoryPanic(t, cs.opt, cs.os, cs.knem, cs.dma)
		if cs.wantErrContains == "" {
			if msg != "" {
				t.Errorf("%s: unexpected capability failure %q", cs.name, msg)
			}
			continue
		}
		if !strings.Contains(msg, cs.wantErrContains) {
			t.Errorf("%s: capability error %q does not mention %q", cs.name, msg, cs.wantErrContains)
		}
	}
}

// A forced I/OAT KNEM mode declares the DMA requirement too (previously
// only caught deep inside the module).
func TestForcedIOATModeNeedsDMA(t *testing.T) {
	md := knem.AsyncIOAT
	msg := factoryPanic(t, Options{Kind: KnemLMT, ForceKnemMode: &md}, true, true, false)
	if !strings.Contains(msg, "DMA hardware") {
		t.Errorf("forced async+ioat without DMA: got %q", msg)
	}
	md2 := knem.AsyncKThread
	if msg := factoryPanic(t, Options{Kind: KnemLMT, ForceKnemMode: &md2}, true, true, false); msg != "" {
		t.Errorf("forced kthread mode should not need DMA, got %q", msg)
	}
}

func TestFactoryForUnknownBackend(t *testing.T) {
	if _, err := FactoryFor(Options{Kind: "warp-drive"}); err == nil {
		t.Error("FactoryFor with unknown backend did not error")
	}
}

// StandardOptions must keep matching the paper's Table 1 columns, in order.
func TestStandardOptionsMatchTable1(t *testing.T) {
	wantLabels := []string{"default", "vmsplice", "knem", "knem+ioat-auto"}
	// The corresponding Table 1 column headers, for the record:
	// "default LMT", "vmsplice LMT", "KNEM kernel copy", "KNEM I/OAT".
	opts := StandardOptions()
	if len(opts) != len(wantLabels) {
		t.Fatalf("StandardOptions has %d entries, want %d", len(opts), len(wantLabels))
	}
	for i, opt := range opts {
		if got := opt.Label(); got != wantLabels[i] {
			t.Errorf("StandardOptions()[%d].Label() = %q, want %q", i, got, wantLabels[i])
		}
	}
	if opts[2].IOAT != IOATOff {
		t.Error("Table 1 'KNEM kernel copy' column must not offload")
	}
	if opts[3].IOAT != IOATAuto {
		t.Error("Table 1 'KNEM I/OAT' column must use the auto policy")
	}
}

// DMAMinFor edge cases: placements the figure sweeps never exercise.
func TestDMAMinForEdgeCases(t *testing.T) {
	m := topo.XeonE5345()

	// Receiver not among the channel cores: no rank shares its cache, so
	// the formula clamps to one process.
	if got := DMAMinFor(m, []topo.CoreID{0, 1}, 6); got != m.DMAMin(1) {
		t.Errorf("receiver outside placement: DMAmin = %s, want %s",
			units.FormatSize(got), units.FormatSize(m.DMAMin(1)))
	}

	// Single-rank channel, receiver is that rank: one process on the cache.
	if got := DMAMinFor(m, []topo.CoreID{3}, 3); got != m.DMAMin(1) {
		t.Errorf("single rank: DMAmin = %s, want %s",
			units.FormatSize(got), units.FormatSize(m.DMAMin(1)))
	}

	// All ranks on one shared LLC (Nehalem preset): every rank counts.
	n := topo.NehalemStyle()
	all := n.AllCores()
	if got := DMAMinFor(n, all, 0); got != n.DMAMin(len(all)) {
		t.Errorf("all-shared LLC: DMAmin = %s, want %s",
			units.FormatSize(got), units.FormatSize(n.DMAMin(len(all))))
	}

	// Empty placement behaves like the single-process clamp.
	if got := DMAMinFor(m, nil, 0); got != m.DMAMin(1) {
		t.Errorf("empty placement: DMAmin = %s, want %s",
			units.FormatSize(got), units.FormatSize(m.DMAMin(1)))
	}
}

// optionsEqual compares presets by value, following the ForceKnemMode
// pointer, so equal presets built apart compare equal.
func optionsEqual(a, b Options) bool {
	if a.Kind != b.Kind || a.IOAT != b.IOAT || a.CollectiveAware != b.CollectiveAware {
		return false
	}
	if (a.ForceKnemMode == nil) != (b.ForceKnemMode == nil) {
		return false
	}
	return a.ForceKnemMode == nil || *a.ForceKnemMode == *b.ForceKnemMode
}

// Property: the spec table is a bijection between names and presets — every
// spec name parses back to exactly its options (full struct), every
// registered backend surfaces at least one spec, and case or whitespace
// variations of a valid name are rejected rather than fuzzily matched.
func TestSpecsParseRoundTripProperty(t *testing.T) {
	byKind := map[Kind]int{}
	for _, s := range Presets.All() {
		opt, err := ParseSpec(s.Name)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", s.Name, err)
		}
		if !optionsEqual(opt, s.Options) {
			t.Errorf("ParseSpec(%q) = %+v, want %+v", s.Name, opt, s.Options)
		}
		byKind[opt.Kind]++
		for _, mutant := range []string{" " + s.Name, s.Name + " ", strings.ToUpper(s.Name), s.Name + "-"} {
			if mutant == s.Name {
				continue
			}
			if _, err := ParseSpec(mutant); err == nil {
				t.Errorf("ParseSpec(%q) accepted a mutant of %q", mutant, s.Name)
			}
		}
	}
	for _, name := range Names() {
		if byKind[name] == 0 {
			t.Errorf("backend %q has no spec preset", name)
		}
	}
}

// FuzzParseSpec checks the parser's trichotomy on arbitrary input: it either
// errors, or returns the exact preset registered under that name — never a
// "nearby" preset and never a panic.
func FuzzParseSpec(f *testing.F) {
	for _, s := range Presets.All() {
		f.Add(s.Name)
		f.Add(s.Name + "x")
		f.Add("X" + s.Name)
	}
	f.Add("")
	f.Add("knem ioat")
	f.Add("knem-")
	f.Add("\x00default")
	known := map[string]Options{}
	for _, s := range Presets.All() {
		known[s.Name] = s.Options
	}
	f.Fuzz(func(t *testing.T, name string) {
		opt, err := ParseSpec(name)
		want, ok := known[name]
		if err != nil {
			if ok {
				t.Fatalf("ParseSpec(%q) errored on a registered spec: %v", name, err)
			}
			return
		}
		if !ok {
			t.Fatalf("ParseSpec(%q) = %+v for an unregistered name", name, opt)
		}
		if !optionsEqual(opt, want) {
			t.Fatalf("ParseSpec(%q) = %+v, want %+v", name, opt, want)
		}
	})
}
