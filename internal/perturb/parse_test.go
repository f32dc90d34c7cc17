package perturb

import "testing"

// FuzzParseSpec holds the parser to its contract: arbitrary input must
// produce a spec or an error, never a panic — and anything it accepts must
// re-parse from its canonical form to the same canonical form (the CLI
// round-trips specs through String for logging and artefact metadata).
func FuzzParseSpec(f *testing.F) {
	for _, k := range Kinds.Names() {
		f.Add(k)
	}
	f.Add("slow-core:factor=0.3,rank=2")
	f.Add("noisy-rank:burstx=4,mmpp=1,rate=1000")
	f.Add("delayed-recv:dist=uniform,mean=1e-5")
	f.Add("link-flap:period=1e-4,down=0.3,factor=0.01")
	f.Add("slow-core:factor=")
	f.Add(":,=;")
	f.Add("slow-core:factor=1,factor=1")
	f.Add("  link-jitter : mean = 1e-6 ")
	f.Fuzz(func(t *testing.T, s string) {
		sp, err := ParseSpec(s)
		if err != nil {
			return
		}
		canon := sp.String()
		back, err := ParseSpec(canon)
		if err != nil {
			t.Fatalf("canonical form %q of accepted input %q does not re-parse: %v",
				canon, s, err)
		}
		if back.String() != canon {
			t.Fatalf("canonical form not a fixed point: %q -> %q", canon, back.String())
		}
		// Accepted specs must also resolve: defaults fill in, values
		// validate. A spec that parses but cannot instantiate is a bug.
		if _, err := Instances([]Spec{sp}, 1); err != nil {
			t.Fatalf("accepted spec %q does not instantiate: %v", canon, err)
		}
	})
}

// FuzzParseList: the semicolon-list form (the CLI's -perturb flag) is held
// to the same no-panic contract.
func FuzzParseList(f *testing.F) {
	f.Add("slow-core;link-jitter")
	f.Add("slow-core:factor=0.5; delayed-recv:mean=1e-6 ;")
	f.Add(";;;")
	f.Fuzz(func(t *testing.T, s string) {
		specs, err := ParseList(s)
		if err != nil {
			return
		}
		if out, err := ParseList(FormatList(specs)); err != nil || len(out) != len(specs) {
			t.Fatalf("accepted list %q does not round-trip: %v", s, err)
		}
	})
}
