package topo

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/fstest"

	"knemesis/internal/units"
)

func TestPresetsValidate(t *testing.T) {
	for _, m := range []*Machine{XeonE5345(), XeonX5460(), NehalemStyle()} {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
}

// The machine presets list in this order everywhere a name is chosen:
// imb's and knemsim's -machine help and every unknown-machine error.
func TestMachinePresetOrder(t *testing.T) {
	want := []string{"e5345", "x5460", "nehalem"}
	if got := Machines.Names(); !slices.Equal(got, want) {
		t.Fatalf("Machines.Names() = %v, want %v", got, want)
	}
	for _, name := range want {
		m, err := LookupMachine(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	_, err := LookupMachine("pentium-2")
	if want := `topo: unknown machine "pentium-2" (have e5345|x5460|nehalem)`; err == nil || err.Error() != want {
		t.Errorf("LookupMachine(pentium-2) error = %v, want %s", err, want)
	}
}

func TestE5345Topology(t *testing.T) {
	m := XeonE5345()
	if m.Cores != 8 {
		t.Fatalf("cores = %d, want 8", m.Cores)
	}
	a, b := m.PairSharedCache()
	if !m.SharedCache(a, b) {
		t.Fatalf("PairSharedCache returned non-sharing cores %d,%d", a, b)
	}
	c, d := m.PairDifferentDies()
	if m.SharedCache(c, d) {
		t.Fatalf("PairDifferentDies returned sharing cores %d,%d", c, d)
	}
	if m.L2Of(0) != m.L2Of(1) || m.L2Of(0) == m.L2Of(2) {
		t.Fatal("L2 domain mapping wrong for E5345")
	}
}

// The paper's §3.5 calibration points: 4 MiB L2 shared by 2 processes gives
// a 1 MiB threshold; unshared gives 2 MiB; a 6 MiB cache raises thresholds
// by 50%.
func TestDMAMinPaperValues(t *testing.T) {
	e := XeonE5345()
	if got := e.DMAMin(2); got != 1*units.MiB {
		t.Errorf("E5345 DMAMin(2) = %s, want 1MiB", units.FormatSize(got))
	}
	if got := e.DMAMin(1); got != 2*units.MiB {
		t.Errorf("E5345 DMAMin(1) = %s, want 2MiB", units.FormatSize(got))
	}
	x := XeonX5460()
	if got, want := x.DMAMin(2), e.DMAMin(2)*3/2; got != want {
		t.Errorf("X5460 DMAMin(2) = %s, want +50%% = %s",
			units.FormatSize(got), units.FormatSize(want))
	}
	// DMAMin is DMAMinOf over the machine's L2.
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"E5345 DMAMin(2)", e.DMAMin(2), DMAMinOf(4*units.MiB, 2)},
		{"E5345 DMAMin(1)", e.DMAMin(1), DMAMinOf(4*units.MiB, 1)},
		{"E5345 DMAMin(0)", e.DMAMin(0), DMAMinOf(4*units.MiB, 0)},
		{"X5460 DMAMin(2)", x.DMAMin(2), DMAMinOf(6*units.MiB, 2)},
	} {
		if c.got != c.want {
			t.Errorf("%s = %s, DMAMinOf gives %s", c.name,
				units.FormatSize(c.got), units.FormatSize(c.want))
		}
	}
}

// ReadL2 over sysfs layouts: the level-2 cache that is not an instruction
// cache, its size and its sharer count, or not-ok for anything it cannot
// read. dmamin is DMAMinOf(size, sharers), the value rt derives.
func TestReadL2(t *testing.T) {
	// cache builds a sysfs tree whose index<i> directories describe the
	// given caches, each as {level, type, size, shared_cpu_list}.
	cache := func(caches ...[4]string) fstest.MapFS {
		fsys := fstest.MapFS{}
		for i, c := range caches {
			dir := fmt.Sprintf("cpu0/cache/index%d/", i)
			for j, name := range []string{"level", "type", "size", "shared_cpu_list"} {
				fsys[dir+name] = &fstest.MapFile{Data: []byte(c[j] + "\n")}
			}
		}
		return fsys
	}
	l1d := [4]string{"1", "Data", "48K", "0"}
	l1i := [4]string{"1", "Instruction", "32K", "0"}
	l3 := [4]string{"3", "Unified", "107520K", "0-1"}
	cases := []struct {
		name    string
		fsys    fstest.MapFS
		size    int64
		sharers int
		dmamin  int64
	}{
		{"private-2MiB", cache(l1d, l1i, [4]string{"2", "Unified", "2048K", "0"}, l3),
			2 * units.MiB, 1, 1 * units.MiB},
		{"E5345-pair", cache(l1d, l1i, [4]string{"2", "Unified", "4096K", "0-1"}),
			4 * units.MiB, 2, 1 * units.MiB},
		{"M-suffix", cache([4]string{"2", "Unified", "6M", "0-1"}),
			6 * units.MiB, 2, 1536 * units.KiB},
		{"list", cache([4]string{"2", "Data", "1024K", "0,2"}),
			1 * units.MiB, 2, 256 * units.KiB},
		{"range-of-4", cache([4]string{"2", "Unified", "8192K", "0-3"}),
			8 * units.MiB, 4, 1 * units.MiB},
		{"instruction-l2-skipped", cache([4]string{"2", "Instruction", "1024K", "0"},
			[4]string{"2", "Data", "2048K", "0"}),
			2 * units.MiB, 1, 1 * units.MiB},
		{"instruction-only-l2", cache(l1d, [4]string{"2", "Instruction", "1024K", "0"}), 0, 0, 0},
		{"no-l2", cache(l1d, l1i, l3), 0, 0, 0},
		{"missing-tree", fstest.MapFS{}, 0, 0, 0},
		{"malformed-size", cache([4]string{"2", "Unified", "lots", "0"}), 0, 0, 0},
		{"zero-size", cache([4]string{"2", "Unified", "0K", "0"}), 0, 0, 0},
		{"malformed-list", cache([4]string{"2", "Unified", "2048K", "1-0"}), 0, 0, 0},
		{"empty-list", cache([4]string{"2", "Unified", "2048K", ""}), 0, 0, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			size, sharers, ok := ReadL2(c.fsys)
			if want := c.size > 0; ok != want {
				t.Fatalf("ok = %v, want %v (size %d, sharers %d)", ok, want, size, sharers)
			}
			if !ok {
				return
			}
			if size != c.size || sharers != c.sharers {
				t.Errorf("ReadL2 = (%s, %d), want (%s, %d)", units.FormatSize(size), sharers,
					units.FormatSize(c.size), c.sharers)
			}
			if got := DMAMinOf(size, sharers); got != c.dmamin {
				t.Errorf("DMAMinOf = %s, want %s", units.FormatSize(got), units.FormatSize(c.dmamin))
			}
		})
	}
}

func TestValidateRejectsBadMachines(t *testing.T) {
	m := XeonE5345()
	m.L2Domains = [][]CoreID{{0, 1}} // cores 2..7 missing
	if err := m.Validate(); err == nil {
		t.Error("missing-domain machine validated")
	}

	m = XeonE5345()
	m.L2Domains = append(m.L2Domains, []CoreID{0}) // duplicate core
	if err := m.Validate(); err == nil {
		t.Error("duplicate-core machine validated")
	}

	m = XeonE5345()
	m.Params.BlockBytes = 1000 // not a power of two
	if err := m.Validate(); err == nil {
		t.Error("non-pow2 block machine validated")
	}

	m = XeonE5345()
	m.Params.BlockBytes = 32 // below line size
	if err := m.Validate(); err == nil {
		t.Error("block < line machine validated")
	}

	m = XeonE5345()
	m.L2Assoc = 256 // divides the 4 MiB evenly, but a way link is one byte
	if err := m.Validate(); err == nil || !strings.Contains(err.Error(), "limit of 255 ways") {
		t.Errorf("256-way machine: error %v does not name the associativity limit", err)
	}
}

func TestAllCores(t *testing.T) {
	m := XeonX5460()
	cores := m.AllCores()
	if len(cores) != 4 {
		t.Fatalf("AllCores len = %d, want 4", len(cores))
	}
	for i, c := range cores {
		if int(c) != i {
			t.Fatalf("AllCores[%d] = %d", i, c)
		}
	}
}

func TestSharedCachePairs(t *testing.T) {
	m := XeonE5345()
	pairs, err := m.SharedCachePairs(4)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[CoreID]bool{}
	for _, p := range pairs {
		if !m.SharedCache(p[0], p[1]) {
			t.Errorf("pair %v does not share a cache", p)
		}
		for _, c := range p {
			if seen[c] {
				t.Errorf("core %d appears in two pairs", c)
			}
			seen[c] = true
		}
	}
	if _, err := m.SharedCachePairs(5); err == nil {
		t.Error("5 shared pairs should not fit 8 cores")
	}
	if _, err := XeonX5460().SharedCachePairs(3); err == nil {
		t.Error("3 shared pairs should not fit 4 cores")
	}
	if _, err := m.SharedCachePairs(0); err == nil {
		t.Error("0 pairs should error")
	}
	// Pairs spread round-robin across domains: on a wide-domain machine
	// the first pairs must land in distinct L2s before any domain hosts
	// a second pair.
	wide := NehalemStyle() // single 8-core domain: all pairs share it
	pairs, err = wide.SharedCachePairs(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 4 {
		t.Fatalf("nehalem shared pairs = %d, want 4", len(pairs))
	}
	two := XeonE5345()
	pp, err := two.SharedCachePairs(2)
	if err != nil {
		t.Fatal(err)
	}
	if two.L2Of(pp[0][0]) == two.L2Of(pp[1][0]) {
		t.Errorf("2 shared pairs landed in one L2 domain: %v", pp)
	}
}

func TestCrossDiePairs(t *testing.T) {
	m := XeonE5345()
	pairs, err := m.CrossDiePairs(4)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[CoreID]bool{}
	for _, p := range pairs {
		if m.SharedCache(p[0], p[1]) {
			t.Errorf("pair %v shares a cache", p)
		}
		for _, c := range p {
			if seen[c] {
				t.Errorf("core %d appears in two pairs", c)
			}
			seen[c] = true
		}
	}
	if _, err := m.CrossDiePairs(5); err == nil {
		t.Error("5 cross pairs should not fit 8 cores")
	}
	// A single cache domain has no cross-die placement at all.
	if _, err := NehalemStyle().CrossDiePairs(1); err == nil {
		t.Error("single-domain machine produced a cross-die pair")
	}
}

func TestPairCores(t *testing.T) {
	m := XeonE5345()
	pairs, err := m.CrossDiePairs(2)
	if err != nil {
		t.Fatal(err)
	}
	cores := PairCores(pairs)
	if len(cores) != 4 {
		t.Fatalf("PairCores len = %d, want 4", len(cores))
	}
	for i, p := range pairs {
		if cores[2*i] != p[0] || cores[2*i+1] != p[1] {
			t.Fatalf("pair %d not at ranks %d,%d: %v", i, 2*i, 2*i+1, cores)
		}
	}
	// The first pair's placement matches the single-pair helper.
	d0, d1 := m.PairDifferentDies()
	if pairs[0] != [2]CoreID{d0, d1} {
		t.Errorf("first cross pair %v != PairDifferentDies (%d,%d)", pairs[0], d0, d1)
	}
}
