package topo

import (
	"reflect"
	"slices"
	"testing"

	"knemesis/internal/sim"
)

func TestClusterPlaceBlockAndSpread(t *testing.T) {
	c := TwoNode(4, sim.Microsecond, 1e9)
	pl, err := c.Place(6)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 0, 0, 0, 1, 1}; !reflect.DeepEqual(pl.NodeOf, want) {
		t.Fatalf("block NodeOf = %v, want %v", pl.NodeOf, want)
	}
	if pl.CoreOf[4] != 0 || pl.CoreOf[5] != 1 {
		t.Fatalf("block CoreOf = %v", pl.CoreOf)
	}
	if !pl.MultiNode() {
		t.Fatal("6 ranks on two 4-core nodes must span nodes")
	}

	sp, err := c.PlaceSpread(6)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1, 0, 1, 0, 1}; !reflect.DeepEqual(sp.NodeOf, want) {
		t.Fatalf("spread NodeOf = %v, want %v", sp.NodeOf, want)
	}

	// Single-node placements are not multi-node.
	one, err := c.Place(3)
	if err != nil {
		t.Fatal(err)
	}
	if one.MultiNode() {
		t.Fatal("3 ranks fit on one node")
	}

	if _, err := c.Place(9); err == nil {
		t.Fatal("placement beyond capacity must fail")
	}
	if _, err := c.Place(0); err == nil {
		t.Fatal("zero ranks must fail")
	}
}

func TestClusterPathRouting(t *testing.T) {
	// Star: hosts reach each other through the switch in two hops.
	c, err := LookupCluster("four-node")
	if err != nil {
		t.Fatal(err)
	}
	links, lat := c.Path(1, 3)
	if len(links) != 2 {
		t.Fatalf("path n0->n2 has %d links, want 2", len(links))
	}
	if lat != 2*sim.Microsecond {
		t.Fatalf("path latency %v", lat)
	}
	if l, lt := c.Path(2, 2); l != nil || lt != 0 {
		t.Fatal("self path must be empty")
	}

	// Deterministic: the same query always returns the same route.
	ft, err := LookupCluster("fat-tree-16")
	if err != nil {
		t.Fatal(err)
	}
	hosts := ft.Hosts()
	a, b := hosts[0], hosts[len(hosts)-1]
	first, _ := ft.Path(a, b)
	for i := 0; i < 5; i++ {
		again, _ := ft.Path(a, b)
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("route changed between queries: %v vs %v", first, again)
		}
	}
	// Cross-leaf traffic in a 2-level fat tree is host-leaf-spine-leaf-host.
	if len(first) != 4 {
		t.Fatalf("cross-leaf path has %d hops, want 4", len(first))
	}
}

func TestClusterCapacityAndMinLatency(t *testing.T) {
	for _, p := range Clusters.All() {
		c := p.Build()
		if got := c.Capacity(); got < 2 {
			t.Fatalf("%s capacity %d", p.Name, got)
		}
		// Validate rejects a link without a positive latency.
		if err := c.Validate(); err != nil || len(c.Links) == 0 {
			t.Fatalf("%s: %d links, Validate: %v", p.Name, len(c.Links), err)
		}
	}
	ft := FatTree(4, 8, 8, 16, sim.Microsecond, 2.5e9, 2*sim.Microsecond, 10e9)
	if err := ft.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := ft.Capacity(); got != 1024 {
		t.Fatalf("64x16 fat tree capacity %d, want 1024", got)
	}
}

func TestNodeMachineValidates(t *testing.T) {
	for _, cores := range []int{1, 2, 3, 4, 7, 16, 128} {
		m := NodeMachine(cores)
		if err := m.Validate(); err != nil {
			t.Fatalf("NodeMachine(%d): %v", cores, err)
		}
		if len(m.AllCores()) != cores {
			t.Fatalf("NodeMachine(%d) has %d cores", cores, len(m.AllCores()))
		}
	}
	// 129 cores make a 65th L2 domain, one more than the coherence
	// directory tracks: Validate must refuse it, so hw.New never builds it.
	for _, cores := range []int{129, 130} {
		if err := NodeMachine(cores).Validate(); err == nil {
			t.Errorf("NodeMachine(%d) validated with %d L2 domains", cores, len(NodeMachine(cores).L2Domains))
		}
	}
}

func TestLookupClusterUnknown(t *testing.T) {
	if _, err := LookupCluster("no-such-cluster"); err == nil {
		t.Fatal("unknown preset must error")
	}
}

// The cluster presets list in Order, not registration order: imb -topo
// list and every unknown-preset error read this order.
func TestClusterPresetOrder(t *testing.T) {
	want := []string{"two-node", "four-node", "asym-4", "fat-tree-16", "dragonfly-24"}
	if got := Clusters.Names(); !slices.Equal(got, want) {
		t.Fatalf("Clusters.Names() = %v, want %v", got, want)
	}
	for _, name := range want {
		c, err := LookupCluster(name)
		if err != nil {
			t.Fatal(err)
		}
		if c.Name != name {
			t.Errorf("LookupCluster(%q).Name = %q", name, c.Name)
		}
	}
	_, err := LookupCluster("nope")
	if want := `topo: unknown cluster preset "nope" (have two-node|four-node|asym-4|fat-tree-16|dragonfly-24)`; err == nil || err.Error() != want {
		t.Errorf("LookupCluster(nope) error = %v, want %s", err, want)
	}
}
