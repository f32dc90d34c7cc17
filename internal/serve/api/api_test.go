package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"knemesis/internal/experiments"
	"knemesis/internal/rt"
	"knemesis/internal/topo"
)

// mustKey canonicalizes a spec and derives its cache key.
func mustKey(t *testing.T, s Spec) string {
	t.Helper()
	c, err := s.Canonicalize()
	if err != nil {
		t.Fatalf("Canonicalize(%+v): %v", s, err)
	}
	key, err := c.CacheKey()
	if err != nil {
		t.Fatalf("CacheKey: %v", err)
	}
	return key
}

// Semantically equal envelopes — defaults elided vs spelled out,
// perturbation params in any order — must share one cache key.
func TestCacheKeySemanticEquality(t *testing.T) {
	terse := Spec{Kind: KindComm, Perturb: "noisy-rank:cpu=2e-4,rate=50", Seed: 1}
	explicit := Spec{
		Version: 1, Kind: KindComm,
		Engine: "sim", Bench: "pingpong", Ranks: 2, Sizes: []int64{65536},
		Machine: "e5345", LMT: "default", Placement: "",
		Perturb: "noisy-rank:rate=50,cpu=2e-4", Seed: 1,
	}
	if a, b := mustKey(t, terse), mustKey(t, explicit); a != b {
		t.Fatalf("semantically equal specs hash apart:\n  %s\n  %s", a, b)
	}

	// Unsorted, duplicated sizes normalize.
	a := mustKey(t, Spec{Kind: KindComm, Bench: "alltoall", Ranks: 4, Sizes: []int64{4096, 1024, 4096}})
	b := mustKey(t, Spec{Kind: KindComm, Bench: "alltoall", Ranks: 4, Sizes: []int64{1024, 4096}})
	if a != b {
		t.Fatal("size order/duplication split the cache key")
	}

	// Decode path: JSON field order is irrelevant.
	s1, err := Decode([]byte(`{"kind":"comm","bench":"sendrecv","ranks":4}`))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Decode([]byte(`{"ranks":4,"bench":"sendrecv","kind":"comm"}`))
	if err != nil {
		t.Fatal(err)
	}
	if mustKey(t, s1) != mustKey(t, s2) {
		t.Fatal("JSON field order split the cache key")
	}

	fatTree, err := topo.LookupCluster("fat-tree-16")
	if err != nil {
		t.Fatal(err)
	}
	const dot = `graph pair { a [cores=4]; b [cores=4]; a -- b [latency="1us", bandwidth="1.25e9"]; }`
	for name, pair := range map[string][2]Spec{
		"shared is the default placement": {
			{Kind: KindComm},
			{Kind: KindComm, Placement: "shared"},
		},
		"DOT text differing in whitespace": {
			{Kind: KindComm, Bench: "alltoall", Ranks: 8, Topology: dot},
			{Kind: KindComm, Bench: "alltoall", Ranks: 8, Topology: "graph pair {\n  a [cores=4];\n\tb [cores=4];\n" +
				"  a -- b [latency=\"1us\",\n    bandwidth=\"1.25e9\"];\n}\n"},
		},
		"DOT text of a preset": {
			{Kind: KindComm, Bench: "sendrecv", Ranks: 16, Topology: "fat-tree-16", Placement: "spread"},
			{Kind: KindComm, Bench: "sendrecv", Ranks: 16, Topology: topo.RenderDOT(fatTree), Placement: "spread"},
		},
	} {
		if mustKey(t, pair[0]) != mustKey(t, pair[1]) {
			t.Errorf("%s: the cache key split", name)
		}
		// One key, one canonical spec: the artefact embeds it.
		ca, _ := pair[0].Canonicalize()
		cb, _ := pair[1].Canonicalize()
		if a, b := ca.CanonicalJSON(), cb.CanonicalJSON(); string(a) != string(b) {
			t.Errorf("%s: canonical specs differ:\n  %s\n  %s", name, a, b)
		}
	}
}

func TestCacheKeySensitivity(t *testing.T) {
	base := Spec{Kind: KindComm}
	keys := map[string]string{"base": mustKey(t, base)}
	for name, s := range map[string]Spec{
		"bench":    {Kind: KindComm, Bench: "sendrecv"},
		"ranks":    {Kind: KindComm, Ranks: 4},
		"sizes":    {Kind: KindComm, Sizes: []int64{1024}},
		"machine":  {Kind: KindComm, Machine: "nehalem"},
		"lmt":      {Kind: KindComm, LMT: "knem"},
		"eager":    {Kind: KindComm, EagerMax: 1024},
		"topo":     {Kind: KindComm, Topology: "two-node"},
		"perturb":  {Kind: KindComm, Perturb: "noisy-rank:rate=10"},
		"engine":   {Kind: KindComm, Engine: "rt"},
		"expt":     {Kind: KindExperiment, Experiment: "fig3"},
		"deadline": {Kind: KindComm, DeadlineSec: 3},
		"cross":    {Kind: KindComm, Placement: "cross"},
		"multi":    {Kind: KindComm, Bench: "multi-pingpong"},
		"rtmode":   {Kind: KindComm, Engine: "rt", RTMode: "eager"},
		"flatcoll": {Kind: KindComm, Topology: "two-node", FlatColl: true},
		"spread":   {Kind: KindComm, Topology: "two-node", Placement: "spread"},
	} {
		keys[name] = mustKey(t, s)
	}
	// Deadline must NOT split the key; everything else must.
	if keys["deadline"] != keys["base"] {
		t.Fatal("deadline_sec leaked into the cache key")
	}
	delete(keys, "deadline")
	seen := map[string]string{}
	for name, k := range keys {
		if prev, dup := seen[k]; dup {
			t.Fatalf("specs %q and %q collide on %s", prev, name, k)
		}
		seen[k] = name
	}
}

func TestCanonicalizeDefaults(t *testing.T) {
	c, err := Spec{Kind: KindComm}.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	if c.Version != 1 || c.Engine != "sim" || c.Bench != "pingpong" || c.Ranks != 2 ||
		c.Machine != "e5345" || c.LMT != "default" || len(c.Sizes) != 1 || c.Sizes[0] != 65536 {
		t.Fatalf("comm defaults = %+v", c)
	}
	if c.Class() != ClassSim {
		t.Fatalf("sim comm job classed %q", c.Class())
	}

	c, err = Spec{Kind: KindComm, Engine: "rt", Ranks: 2}.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	if c.RTMode != "single-copy" || c.LMT != "" || c.Machine != "" {
		t.Fatalf("rt defaults = %+v", c)
	}
	if c.Class() != ClassRT {
		t.Fatalf("rt comm job classed %q", c.Class())
	}

	c, err = Spec{Kind: KindExperiment, Experiment: "rt"}.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	if c.Machine != "e5345" || c.Class() != ClassRT {
		t.Fatalf("rt experiment canonical = %+v class=%s", c, c.Class())
	}
	c, err = Spec{Kind: KindExperiment, Experiment: "fig3", Quick: true}.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	if c.Class() != ClassSim {
		t.Fatalf("fig3 experiment classed %q", c.Class())
	}
}

func TestCanonicalizeRejections(t *testing.T) {
	for name, s := range map[string]Spec{
		"no kind":          {},
		"bad kind":         {Kind: "batch"},
		"bad version":      {Version: 2, Kind: KindComm},
		"bad experiment":   {Kind: KindExperiment, Experiment: "nope"},
		"bad machine":      {Kind: KindExperiment, Experiment: "fig3", Machine: "epyc"},
		"expt comm fields": {Kind: KindExperiment, Experiment: "fig3", Ranks: 4},
		"comm expt fields": {Kind: KindComm, Experiment: "fig3"},
		"comm quick":       {Kind: KindComm, Quick: true},
		"bad engine":       {Kind: KindComm, Engine: "mpi"},
		"bad bench":        {Kind: KindComm, Bench: "barrier"},
		"1 rank":           {Kind: KindComm, Ranks: 1},
		"zero size":        {Kind: KindComm, Sizes: []int64{0}},
		"bad lmt":          {Kind: KindComm, LMT: "zerocopy"},
		"rt lmt":           {Kind: KindComm, Engine: "rt", LMT: "knem"},
		"rt machine":       {Kind: KindComm, Engine: "rt", Machine: "e5345"},
		"bad rtmode":       {Kind: KindComm, Engine: "rt", RTMode: "teleport"},
		"bad topology":     {Kind: KindComm, Topology: "mesh9"},
		"bad placement":    {Kind: KindComm, Topology: "two-node", Placement: "random"},
		"orphan placement": {Kind: KindComm, Placement: "spread"},
		"too many ranks":   {Kind: KindComm, Ranks: 64},
		"bad perturb":      {Kind: KindComm, Perturb: "gremlins"},
		"neg deadline":     {Kind: KindComm, DeadlineSec: -1},
		"odd multi":        {Kind: KindComm, Bench: "multi-pingpong", Ranks: 3},
		"rt cross":         {Kind: KindComm, Engine: "rt", Placement: "cross"},
		"nehalem cross":    {Kind: KindComm, Machine: "nehalem", Placement: "cross"},
		"odd cross":        {Kind: KindComm, Bench: "sendrecv", Ranks: 3, Placement: "cross"},
		"topology cross":   {Kind: KindComm, Topology: "two-node", Placement: "cross"},
		"bad DOT":          {Kind: KindComm, Topology: "graph x { a -- }"},
		// Every rt rank holds a fastbox per peer: a million ranks would
		// exhaust memory before the job could fail.
		"rt ranks":          {Kind: KindComm, Engine: "rt", Ranks: 1 << 20},
		"rt ranks topology": {Kind: KindComm, Engine: "rt", Ranks: rt.MaxRanks + 1, Topology: `graph big { n0 [cores=200]; n1 [cores=200]; n0 -- n1 [latency="1us", bandwidth="1.25e9"]; }`},
		// A path names no preset and holds no DOT text; it must not be read.
		"DOT path": {Kind: KindComm, Topology: "../../../examples/topologies/two-node.dot"},
		// An rt eager cell is as large as the threshold: a 1 TiB one would
		// be one fatal allocation on the first 64 KiB message.
		"rt eager_max": {Kind: KindComm, Engine: "rt", EagerMax: 1 << 40},
	} {
		if _, err := s.Canonicalize(); err == nil {
			t.Errorf("%s: accepted %+v", name, s)
		} else if name == "DOT path" && !strings.Contains(err.Error(), "unknown cluster preset") {
			t.Errorf("%s: %v, want an unknown-preset error", name, err)
		} else if strings.HasPrefix(name, "rt ranks") && !strings.Contains(err.Error(), fmt.Sprintf("at most %d", rt.MaxRanks)) {
			t.Errorf("%s: %v, want the rt limit named", name, err)
		} else if name == "rt eager_max" && !strings.Contains(err.Error(), fmt.Sprintf("%d: the rt engine takes at most %d", s.EagerMax, rt.MaxRndvThreshold)) {
			t.Errorf("%s: %v, want the value and the rt bound named", name, err)
		}
	}
}

// The simulator pairs a host's cores into L2 domains and tracks at most 64
// of them, so a sim spec naming a larger host is refused up front; rt
// builds no machine and takes the same topology.
func TestCanonicalizeSimHostLimit(t *testing.T) {
	dot := func(cores int) string {
		return fmt.Sprintf(`graph big { n0 [cores=%d]; n1 [cores=2]; n0 -- n1 [latency="1us", bandwidth="1.25e9"]; }`, cores)
	}
	for _, tc := range []struct {
		engine string
		cores  int
		ok     bool
	}{
		{"sim", 128, true},
		{"sim", 129, false},
		{"sim", 130, false},
		{"sim", 2000000000, false},
		{"rt", 130, true},
	} {
		_, err := Spec{Kind: KindComm, Engine: tc.engine, Topology: dot(tc.cores)}.Canonicalize()
		switch {
		case tc.ok && err != nil:
			t.Errorf("%s, %d-core host: %v", tc.engine, tc.cores, err)
		case !tc.ok && err == nil:
			t.Errorf("%s, %d-core host: accepted", tc.engine, tc.cores)
		case !tc.ok && !strings.Contains(err.Error(), "host n0 of cluster big"):
			t.Errorf("%s, %d-core host: %v, want the host named", tc.engine, tc.cores, err)
		}
	}
}

func TestDecodeRejectsUnknownFields(t *testing.T) {
	if _, err := Decode([]byte(`{"kind":"comm","rank":4}`)); err == nil || !strings.Contains(err.Error(), "rank") {
		t.Fatalf("typo'd field not rejected: %v", err)
	}
}

func TestSeedNormalization(t *testing.T) {
	// Seed is inert without perturbations and must not split the key…
	a := mustKey(t, Spec{Kind: KindComm, Seed: 7})
	b := mustKey(t, Spec{Kind: KindComm})
	if a != b {
		t.Fatal("inert seed split the cache key")
	}
	// …but selects the stream when perturbations are active.
	p1 := mustKey(t, Spec{Kind: KindComm, Perturb: "noisy-rank:rate=10", Seed: 1})
	p2 := mustKey(t, Spec{Kind: KindComm, Perturb: "noisy-rank:rate=10", Seed: 2})
	if p1 == p2 {
		t.Fatal("perturbation seed did not split the cache key")
	}
	// A blank perturbation list is no perturbation: same canonical spec,
	// seed zeroed, same key.
	none, err := Spec{Kind: KindComm}.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	for _, blank := range []string{" ", ";"} {
		c, err := Spec{Kind: KindComm, Perturb: blank}.Canonicalize()
		if err != nil {
			t.Fatalf("perturb %q: %v", blank, err)
		}
		if a, b := c.CanonicalJSON(), none.CanonicalJSON(); string(a) != string(b) {
			t.Errorf("perturb %q: canonical spec %s, want %s", blank, a, b)
		}
		if mustKey(t, c) != mustKey(t, none) {
			t.Errorf("perturb %q split the cache key", blank)
		}
	}
}

// TestCacheKeysPinned holds the cache keys of existing specs to their
// recorded hex values. A change that moves any of them orphans every
// artefact the daemon has stored under the old key: either it is a bug, or
// it is on purpose and these values are re-recorded. Two reasons count as
// on purpose: CodeVersion was bumped, or the key format itself changed
// (what CacheKey hashes, not what a spec canonicalizes to).
func TestCacheKeysPinned(t *testing.T) {
	for _, tc := range pinned {
		if got := mustKey(t, tc.spec); got != tc.key {
			t.Errorf("%s: key %s, pinned %s", tc.name, got, tc.key)
		}
	}
}

// pinned is TestCacheKeysPinned's table: ten specs and their keys. The
// machine preset is inert on a sim job with a topology, so the two
// "two-node" rows share a key.
var pinned = []struct {
	name string
	spec Spec
	key  string
}{
	{"comm defaults", Spec{Kind: KindComm},
		"a2344ffce82caecd342f176659fb19784d71b9f9677fba7036994f0264c714b4"},
	{"knem", Spec{Kind: KindComm, LMT: "knem", Sizes: []int64{4096, 1 << 20}},
		"1b52667eb26587a50d87819f0a6e0cafb164e9a82fa1c8252426058ed34b08d2"},
	{"knem-ioat", Spec{Kind: KindComm, LMT: "knem-ioat", Sizes: []int64{1 << 20}},
		"3037f9ef56b5295f42794dabe54e47946a4fc0d7111f09a9de634c95ca26fd05"},
	{"fat-tree spread", Spec{Kind: KindComm, Bench: "sendrecv", Ranks: 16,
		Topology: "fat-tree-16", Placement: "spread"},
		"c6d5d89c34dffeaa794474023d9281d80c3235e6d2f6ef88604f5429c8acb10d"},
	{"two-node", Spec{Kind: KindComm, Bench: "alltoall", Ranks: 16,
		Topology: "two-node", Sizes: []int64{65536}},
		"86f51d4185625a1a88d58dc2521d3d883d8fa8491dc24d5b5139d89dae6382c0"},
	{"two-node, machine x5460", Spec{Kind: KindComm, Bench: "alltoall", Ranks: 16,
		Topology: "two-node", Machine: "x5460", Sizes: []int64{65536}},
		"86f51d4185625a1a88d58dc2521d3d883d8fa8491dc24d5b5139d89dae6382c0"},
	{"rt eager", Spec{Kind: KindComm, Engine: "rt", RTMode: "eager"},
		"d1f2b7771408e34d3352a3bdeacb934d8d0bb3dc25ce0fb1f9df1b9a50415fa0"},
	{"perturbed", Spec{Kind: KindComm, Perturb: "slow-core;delayed-recv:mean=2e-6", Seed: 7},
		"c7d0471f776cb034c2f52d5d0519342e0721885add11d2141613adebdbb3e3be"},
	{"bcast on x5460", Spec{Kind: KindComm, Bench: "bcast", Ranks: 4, Machine: "x5460"},
		"70da5a5ee08be9a08fbc566e2a6fb0870c07c2a6dde06aa519fb687f611e0fcf"},
	{"experiment", Spec{Kind: KindExperiment, Experiment: "fig4", Quick: true},
		"afd07205b10fcb167f9a2aaabe633303ed3cf3d95977f93cec829ce98aecf846"},
}

// FuzzCanonicalize holds Canonicalize to being a fixed point: whatever it
// accepts, decoding its canonical JSON and canonicalizing again gives
// byte-identical JSON, the same cache key and the same resolved job. Crash
// recovery relies on it: it re-canonicalizes a logged spec, re-derives its
// key and runs what the second spec resolved to.
func FuzzCanonicalize(f *testing.F) {
	for _, tc := range pinned {
		data, err := json.Marshal(tc.spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"kind":"comm","bench":"alltoall","ranks":8,` +
		`"topology":"graph pair { a [cores=4]; b [cores=4]; a -- b [latency=\"1us\", bandwidth=\"1.25e9\"]; }"}`))
	f.Add([]byte(`{"kind":"comm","bench":"multi-pingpong","ranks":4,"placement":"cross"}`))
	f.Add([]byte(`{"kind":"comm","engine":"rt","eager_max":4194304}`))
	f.Add([]byte(`{"kind":"comm","engine":"rt","eager_max":4194305}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data)
		if err != nil {
			return
		}
		if _, err := s.ToComm(); err == nil {
			t.Fatalf("ToComm resolved %s, which only Decode returned", data)
		}
		if _, err := s.Env(); err == nil {
			t.Fatalf("Env resolved %s, which only Decode returned", data)
		}
		c, err := s.Canonicalize()
		if err != nil {
			return
		}
		back, err := Decode(c.CanonicalJSON())
		if err != nil {
			t.Fatalf("canonical JSON %s does not decode: %v", c.CanonicalJSON(), err)
		}
		again, err := back.Canonicalize()
		if err != nil {
			t.Fatalf("canonical spec %s is rejected: %v", c.CanonicalJSON(), err)
		}
		if a, b := c.CanonicalJSON(), again.CanonicalJSON(); !bytes.Equal(a, b) {
			t.Fatalf("canonicalizing twice moved the spec:\n  %s\n  %s", a, b)
		}
		if k1, k2 := mustKey(t, c), mustKey(t, again); k1 != k2 {
			t.Fatalf("canonicalizing twice moved the key: %s vs %s", k1, k2)
		}
		job, jobErr := c.ToComm()
		env, envErr := c.Env()
		if (jobErr == nil) != (c.Kind == KindComm) || (envErr == nil) != (c.Kind == KindExperiment) {
			t.Fatalf("canonical %s spec: ToComm error %v, Env error %v", c.Kind, jobErr, envErr)
		}
		if c.Kind == KindComm {
			if jobAgain, _ := again.ToComm(); !reflect.DeepEqual(job, jobAgain) {
				t.Fatalf("%s resolves to another job canonicalized again:\n  %+v\n  %+v", c.CanonicalJSON(), job, jobAgain)
			}
			return
		}
		// The NAS kernels hold funcs, which DeepEqual never finds equal.
		axes := func(e experiments.Env) [][]int64 {
			return [][]int64{e.PingSizes, e.A2ASizes, e.MultiSizes, e.RTSizes, e.TopoSizes, e.SkewSizes}
		}
		if envAgain, _ := again.Env(); !reflect.DeepEqual(env.Machine, envAgain.Machine) || !reflect.DeepEqual(axes(env), axes(envAgain)) {
			t.Fatalf("%s resolves to another Env canonicalized again", c.CanonicalJSON())
		}
	})
}
