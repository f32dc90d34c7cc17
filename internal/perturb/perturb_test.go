package perturb

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

// Registry surface: the seven shipped kinds in presentation order, each
// with help text and documented parameters.
func TestRegistrySurface(t *testing.T) {
	want := []string{"slow-core", "sat-bus", "noisy-rank", "delayed-recv",
		"link-degrade", "link-jitter", "link-flap"}
	if got := Kinds.Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Kinds.Names() = %v, want %v", got, want)
	}
	for _, k := range Kinds.All() {
		if k.Help == "" {
			t.Errorf("kind %q has no help text", k.Name)
		}
		for _, p := range k.Param {
			if p.Help == "" {
				t.Errorf("kind %q param %q has no help text", k.Name, p.Key)
			}
			if len(p.Enum) == 0 && (p.Def < p.Min || p.Def > p.Max) {
				t.Errorf("kind %q param %q default %v outside [%v, %v]",
					k.Name, p.Key, p.Def, p.Min, p.Max)
			}
		}
	}
	if _, err := Kinds.Lookup("no-such-kind"); err == nil {
		t.Error("Lookup of unknown kind did not error")
	} else if !strings.Contains(err.Error(), "slow-core") {
		t.Errorf("lookup error does not list the registered kinds: %v", err)
	}
}

// ParseSpec(s.String()) round-trips for every kind with and without
// explicit parameters, and FormatList/ParseList round-trips spec lists.
func TestSpecRoundTrip(t *testing.T) {
	cases := []string{
		"slow-core",
		"slow-core:factor=0.3,rank=2",
		"sat-bus:load=0.8",
		"noisy-rank:burstx=4,mmpp=1,rate=1000",
		"delayed-recv:dist=uniform,mean=1e-5",
		"link-degrade:factor=0.5",
		"link-jitter",
		"link-flap:down=0.5",
	}
	var specs []Spec
	for _, s := range cases {
		sp, err := ParseSpec(s)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", s, err)
		}
		if sp.String() != s {
			t.Errorf("ParseSpec(%q).String() = %q", s, sp.String())
		}
		back, err := ParseSpec(sp.String())
		if err != nil {
			t.Fatalf("re-parse of %q: %v", sp.String(), err)
		}
		if !reflect.DeepEqual(sp, back) {
			t.Errorf("round-trip of %q changed the spec", s)
		}
		specs = append(specs, sp)
	}
	list := FormatList(specs)
	back, err := ParseList(list)
	if err != nil {
		t.Fatalf("ParseList(%q): %v", list, err)
	}
	if !reflect.DeepEqual(specs, back) {
		t.Errorf("list round-trip changed the specs:\n%q", list)
	}
	if got, err := ParseList("slow-core; ;link-jitter;"); err != nil || len(got) != 2 {
		t.Errorf("ParseList with empty segments = %v, %v; want 2 specs", got, err)
	}
}

// Malformed and out-of-contract specs are rejected with errors, never
// panics (the fuzz target widens this).
func TestParseSpecRejects(t *testing.T) {
	bad := []string{
		"",
		"   ",
		"no-such-kind",
		"slow-core:bogus=1",
		"slow-core:factor=zap",
		"slow-core:factor=0.001",      // below Min
		"slow-core:factor=2",          // above Max
		"slow-core:factor=",           // empty value
		"slow-core:=0.5",              // empty key
		"slow-core:factor",            // no =
		"slow-core:factor=1,factor=1", // dup
		"slow-core:,",
		"delayed-recv:dist=weibull", // not in enum
	}
	for _, s := range bad {
		if _, err := ParseSpec(s); err == nil {
			t.Errorf("ParseSpec(%q) accepted a bad spec", s)
		}
	}
}

// The counter-based RNG: same coordinates same value, any coordinate change
// a different one; u01 stays in (0, 1).
func TestCounterRNG(t *testing.T) {
	if draw(1, 2, 3) != draw(1, 2, 3) {
		t.Error("draw is not a pure function")
	}
	base := draw(1, 2, 3)
	for _, d := range []uint64{draw(2, 2, 3), draw(1, 3, 3), draw(1, 2, 4)} {
		if d == base {
			t.Error("coordinate change did not change the draw")
		}
	}
	for ctr := uint64(0); ctr < 1000; ctr++ {
		u := u01(7, 0, ctr)
		if u <= 0 || u >= 1 {
			t.Fatalf("u01 out of (0,1): %v at ctr %d", u, ctr)
		}
	}
}

// Injection schedules are a pure function of (spec, seed, stream): the rt
// engine's injectors replay exactly this schedule, so two rt jobs with the
// same spec and seed inject identically.
func TestScheduleDeterminism(t *testing.T) {
	in := func(seed, stream uint64) Inst {
		insts, err := Instances([]Spec{MustParse("noisy-rank:rate=5000")}, seed)
		if err != nil {
			t.Fatal(err)
		}
		inst := insts[0]
		inst.Stream = stream
		return inst
	}
	a := Schedule(in(7, 0), 256)
	b := Schedule(in(7, 0), 256)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same (spec, seed) produced different injection schedules")
	}
	c := Schedule(in(8, 0), 256)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical schedules")
	}
	d := Schedule(in(7, 1), 256)
	if reflect.DeepEqual(a, d) {
		t.Fatal("different streams produced identical schedules")
	}
	var prev time.Duration
	for i, ev := range a {
		if ev.At <= prev {
			t.Fatalf("schedule not strictly increasing at %d: %v after %v", i, ev.At, prev)
		}
		prev = ev.At
	}
}

// The MMPP modulation must actually burst: over a long horizon the
// arrival-gap variance of the modulated process exceeds the plain Poisson
// process of the same average intensity shape (squared coefficient of
// variation above 1; Poisson sits at 1).
func TestMMPPIsBursty(t *testing.T) {
	gaps := func(spec string) []float64 {
		insts, err := Instances([]Spec{MustParse(spec)}, 3)
		if err != nil {
			t.Fatal(err)
		}
		sched := Schedule(insts[0], 8192)
		out := make([]float64, len(sched))
		prev := time.Duration(0)
		for i, ev := range sched {
			out[i] = (ev.At - prev).Seconds()
			prev = ev.At
		}
		return out
	}
	cv2 := func(xs []float64) float64 {
		var sum, sq float64
		for _, x := range xs {
			sum += x
		}
		mean := sum / float64(len(xs))
		for _, x := range xs {
			d := x - mean
			sq += d * d
		}
		return sq / float64(len(xs)) / (mean * mean)
	}
	poisson := cv2(gaps("noisy-rank:mmpp=0,rate=10000"))
	mmpp := cv2(gaps("noisy-rank:mmpp=1,rate=10000,burstx=16,flip=500"))
	if poisson < 0.7 || poisson > 1.4 {
		t.Errorf("plain Poisson gap CV^2 = %.2f, want ~1", poisson)
	}
	if mmpp < 1.5*poisson {
		t.Errorf("MMPP gap CV^2 = %.2f vs Poisson %.2f: not bursty", mmpp, poisson)
	}
}

// Instances assigns stream indices by list position, so appending a
// perturbation never reshuffles the schedules of the ones before it.
func TestInstanceStreamsStable(t *testing.T) {
	one, err := Instances([]Spec{MustParse("noisy-rank")}, 11)
	if err != nil {
		t.Fatal(err)
	}
	two, err := Instances([]Spec{MustParse("noisy-rank"), MustParse("slow-core")}, 11)
	if err != nil {
		t.Fatal(err)
	}
	a := Schedule(one[0], 64)
	b := Schedule(two[0], 64)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("appending a spec reshuffled an earlier spec's schedule")
	}
}

// RTPlan composes delay hooks additively and counts its injectors.
func TestRTPlanComposition(t *testing.T) {
	specs := []Spec{
		MustParse("delayed-recv:dist=fixed,mean=1e-3"),
		MustParse("delayed-recv:dist=fixed,mean=2e-3"),
		MustParse("link-degrade:factor=0.5"),
		MustParse("slow-core"),
		MustParse("sat-bus:streams=3"),
	}
	pl, err := NewRTPlan(specs, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if d := pl.RecvDelayHook()(0, 0); d != 3*time.Millisecond {
		t.Errorf("chained fixed recv delays = %v, want 3ms", d)
	}
	if pl.CrossDelayHook() == nil {
		t.Error("link-degrade did not install a cross delay")
	} else if d := pl.CrossDelayHook()(1 << 30); d <= 0 {
		t.Errorf("degraded 1 GiB cross delay = %v, want > 0", d)
	}
	if got := pl.Injectors(); got != 4 { // slow-core + 3 sat-bus streams
		t.Errorf("Injectors() = %d, want 4", got)
	}
	stop := pl.Start()
	time.Sleep(5 * time.Millisecond)
	stop() // must stop and join without hanging
}
