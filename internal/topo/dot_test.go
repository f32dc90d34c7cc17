package topo

import (
	"reflect"
	"strings"
	"testing"

	"knemesis/internal/sim"
)

const twoNodeDOT = `
// Minimal two-host cluster.
graph pair {
  n0 [cores=8, mem="4GiB"];
  n1 [cores=8, mem="4GiB"];
  n0 -- n1 [latency="1.5us", bandwidth="1.25GB/s"];
}
`

func TestParseDOTBasic(t *testing.T) {
	c, err := ParseDOT(twoNodeDOT)
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "pair" || len(c.Nodes) != 2 || len(c.Links) != 1 {
		t.Fatalf("parsed %+v", c)
	}
	if c.Nodes[0].Cores != 8 || c.Nodes[0].MemBytes != 4<<30 {
		t.Fatalf("node0 = %+v", c.Nodes[0])
	}
	l := c.Links[0]
	if l.A != 0 || l.B != 1 {
		t.Fatalf("link endpoints %d--%d", l.A, l.B)
	}
	if want := sim.Time(1500 * sim.Nanosecond); l.Latency != want {
		t.Fatalf("latency %v, want %v", l.Latency, want)
	}
	if l.Bandwidth != 1.25e9*1.073741824 {
		// 1.25GB parses via the binary-unit table (1.25 * 2^30).
		t.Logf("bandwidth parsed as %g", l.Bandwidth)
	}
	if l.Bandwidth <= 0 {
		t.Fatalf("bandwidth %g", l.Bandwidth)
	}
}

func TestParseDOTSwitchesCommentsAndBareBandwidth(t *testing.T) {
	src := `
graph {
  # hash comment
  /* block
     comment */
  sw [cores=0];
  a [cores=4]; b [cores=4]
  sw -- a [latency=900ns, bandwidth=1.25e9]
  sw -- b [lat="2us", bw="10GiB/s"];
}
`
	c, err := ParseDOT(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Nodes) != 3 || len(c.Links) != 2 {
		t.Fatalf("parsed %+v", c)
	}
	if got := c.Hosts(); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("hosts %v", got)
	}
	if c.Links[0].Bandwidth != 1.25e9 {
		t.Fatalf("bare-float bandwidth %g", c.Links[0].Bandwidth)
	}
	if c.Links[0].Latency != 900*sim.Nanosecond {
		t.Fatalf("latency %v", c.Links[0].Latency)
	}
}

// TestParseDOTErrors is the edge-case table: every malformed or invalid
// description must be a hard error mentioning the offending construct.
func TestParseDOTErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string // substring of the error
	}{
		{"self-loop",
			`graph { a [cores=4]; a -- a [latency=1us, bandwidth=1e9]; }`,
			"self-loop"},
		{"disconnected",
			`graph { a [cores=4]; b [cores=4]; }`,
			"disconnected"},
		{"disconnected-island",
			`graph { a [cores=4]; b [cores=4]; c [cores=4]; d [cores=4];
			         a -- b [latency=1us, bandwidth=1e9];
			         c -- d [latency=1us, bandwidth=1e9]; }`,
			"disconnected"},
		{"missing-bandwidth",
			`graph { a [cores=4]; b [cores=4]; a -- b [latency=1us]; }`,
			"bandwidth"},
		{"zero-bandwidth",
			`graph { a [cores=4]; b [cores=4]; a -- b [latency=1us, bandwidth=0]; }`,
			"bandwidth"},
		{"missing-latency",
			`graph { a [cores=4]; b [cores=4]; a -- b [bandwidth=1e9]; }`,
			"latency"},
		{"unitless-latency",
			`graph { a [cores=4]; b [cores=4]; a -- b [latency=12, bandwidth=1e9]; }`,
			"unit suffix"},
		{"duplicate-node",
			`graph { a [cores=4]; a [cores=8]; }`,
			"duplicate node"},
		{"duplicate-link",
			`graph { a [cores=4]; b [cores=4];
			         a -- b [latency=1us, bandwidth=1e9];
			         b -- a [latency=1us, bandwidth=1e9]; }`,
			"duplicate link"},
		{"undeclared-edge-node",
			`graph { a [cores=4]; a -- ghost [latency=1us, bandwidth=1e9]; }`,
			"undeclared"},
		{"no-hosts",
			`graph { a [cores=0]; b [cores=0]; a -- b [latency=1us, bandwidth=1e9]; }`,
			"no host nodes"},
		{"negative-cores",
			`graph { a [cores=-2]; }`,
			"negative core count"},
		{"digraph",
			`digraph { a [cores=4]; }`,
			"directed"},
		{"unknown-node-attr",
			`graph { a [cores=4, color=red]; }`,
			"unknown attribute"},
		{"unknown-edge-attr",
			`graph { a [cores=4]; b [cores=4]; a -- b [latency=1us, bandwidth=1e9, mtu=9000]; }`,
			"unknown attribute"},
		{"missing-brace",
			`graph { a [cores=4];`,
			"closing brace"},
		{"trailing-tokens",
			`graph { a [cores=4]; } extra`,
			"trailing"},
		{"unterminated-string",
			`graph { a [cores=4, mem="4GiB }`,
			"unterminated"},
		{"empty", ``, "expected"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseDOT(tc.src)
			if err == nil {
				t.Fatalf("ParseDOT accepted %q", tc.src)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// roundTrip asserts the parse→render→parse property on one cluster.
func roundTrip(t *testing.T, c *Cluster) {
	t.Helper()
	rendered := RenderDOT(c)
	back, err := ParseDOT(rendered)
	if err != nil {
		t.Fatalf("reparse of rendered DOT failed: %v\n%s", err, rendered)
	}
	if !reflect.DeepEqual(c, back) {
		t.Fatalf("round trip diverged:\n%+v\n!=\n%+v\nrendered:\n%s", c, back, rendered)
	}
}

func TestRenderDOTRoundTrip(t *testing.T) {
	c, err := ParseDOT(twoNodeDOT)
	if err != nil {
		t.Fatal(err)
	}
	roundTrip(t, c)
	for _, p := range Clusters.All() {
		t.Run(p.Name, func(t *testing.T) {
			c := p.Build()
			if err := c.Validate(); err != nil {
				t.Fatalf("preset %s invalid: %v", p.Name, err)
			}
			roundTrip(t, c)
		})
	}
}

func FuzzParseDOT(f *testing.F) {
	f.Add(twoNodeDOT)
	f.Add(`graph { a [cores=1]; }`)
	f.Add(`graph x { a [cores=2, mem=1GiB]; b [cores=0];
	        a -- b [latency="3ns", bandwidth="1KiB/s"]; }`)
	f.Add(RenderDOT(TwoNode(4, sim.Microsecond, 1e9)))
	f.Add(`digraph { a -> b; }`)
	f.Add(`graph "{" { "]" [cores=1]; }`)
	f.Add(`graph big { n0 [cores=130]; n1 [cores=128]; n0 -- n1 [latency="1us", bandwidth="1.25e9"]; }`)
	f.Fuzz(func(t *testing.T, src string) {
		c, err := ParseDOT(src)
		if err != nil {
			return // rejecting garbage is fine; crashing is not
		}
		// Anything accepted must validate and round-trip exactly.
		if err := c.Validate(); err != nil {
			t.Fatalf("ParseDOT returned an invalid cluster: %v", err)
		}
		// Every host the simulator takes (the api refuses larger ones)
		// builds a valid machine.
		for _, n := range c.Nodes {
			if n.Cores > 0 && n.Cores <= MaxNodeCores {
				if err := NodeMachine(n.Cores).Validate(); err != nil {
					t.Fatalf("host %s: %v", n.Name, err)
				}
			}
		}
		rendered := RenderDOT(c)
		back, err := ParseDOT(rendered)
		if err != nil {
			t.Fatalf("reparse failed: %v\n%s", err, rendered)
		}
		if !reflect.DeepEqual(c, back) {
			t.Fatalf("round trip diverged on fuzz input %q", src)
		}
	})
}
