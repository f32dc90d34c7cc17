package topo

import (
	"fmt"
	"sort"

	"knemesis/internal/cache"
	"knemesis/internal/registry"
	"knemesis/internal/sim"
	"knemesis/internal/units"
)

// Cluster is the level above Machine: a set of nodes (hosts and switches)
// joined by point-to-point links. Hosts carry cores and run ranks; switches
// (zero cores) only route. The description is engine-neutral — the
// simulator builds one hw.Machine per host plus a modelled network, the
// real runtime only uses the host/placement structure to route traffic.
//
// Clusters are written as undirected DOT graphs (see ParseDOT): nodes carry
// cores/mem attributes, edges carry latency/bandwidth.
type Cluster struct {
	Name  string
	Nodes []Node
	Links []Link
}

// Node is one cluster vertex.
type Node struct {
	Name string
	// Cores is the host's core count; 0 marks a switch that hosts no
	// ranks and only forwards traffic.
	Cores int
	// MemBytes is the host's memory size (descriptive; 0 = unspecified).
	MemBytes int64
}

// Link is one undirected cable between Nodes[A] and Nodes[B]. Bandwidth is
// bytes/second per direction (full duplex); Latency is the one-way
// propagation delay.
type Link struct {
	A, B      int
	Latency   sim.Time
	Bandwidth float64
}

// Validate checks the structural invariants every consumer relies on:
// unique node names, at least one host, links joining distinct known nodes
// with positive latency and bandwidth, no duplicate cables, and — when the
// cluster has more than one node — a connected graph.
func (c *Cluster) Validate() error {
	if len(c.Nodes) == 0 {
		return fmt.Errorf("topo: cluster %q has no nodes", c.Name)
	}
	seen := make(map[string]bool, len(c.Nodes))
	hosts := 0
	for _, n := range c.Nodes {
		if n.Name == "" {
			return fmt.Errorf("topo: cluster %q has an unnamed node", c.Name)
		}
		if seen[n.Name] {
			return fmt.Errorf("topo: cluster %q: duplicate node name %q", c.Name, n.Name)
		}
		seen[n.Name] = true
		if n.Cores < 0 {
			return fmt.Errorf("topo: node %q: negative core count %d", n.Name, n.Cores)
		}
		if n.MemBytes < 0 {
			return fmt.Errorf("topo: node %q: negative memory size", n.Name)
		}
		if n.Cores > 0 {
			hosts++
		}
	}
	if hosts == 0 {
		return fmt.Errorf("topo: cluster %q has no host nodes (every node has cores=0)", c.Name)
	}
	cables := make(map[[2]int]bool, len(c.Links))
	for _, l := range c.Links {
		if l.A < 0 || l.A >= len(c.Nodes) || l.B < 0 || l.B >= len(c.Nodes) {
			return fmt.Errorf("topo: cluster %q: link endpoint out of range", c.Name)
		}
		if l.A == l.B {
			return fmt.Errorf("topo: cluster %q: self-loop on node %q", c.Name, c.Nodes[l.A].Name)
		}
		key := [2]int{min(l.A, l.B), max(l.A, l.B)}
		if cables[key] {
			return fmt.Errorf("topo: cluster %q: duplicate link %s -- %s",
				c.Name, c.Nodes[key[0]].Name, c.Nodes[key[1]].Name)
		}
		cables[key] = true
		if l.Bandwidth <= 0 {
			return fmt.Errorf("topo: link %s -- %s: missing or zero bandwidth",
				c.Nodes[l.A].Name, c.Nodes[l.B].Name)
		}
		if l.Latency <= 0 {
			return fmt.Errorf("topo: link %s -- %s: missing or zero latency",
				c.Nodes[l.A].Name, c.Nodes[l.B].Name)
		}
	}
	if len(c.Nodes) > 1 {
		reach := c.reachableFrom(0)
		if len(reach) != len(c.Nodes) {
			for i := range c.Nodes {
				if !reach[i] {
					return fmt.Errorf("topo: cluster %q is disconnected: node %q unreachable",
						c.Name, c.Nodes[i].Name)
				}
			}
		}
	}
	return nil
}

func (c *Cluster) reachableFrom(start int) map[int]bool {
	reach := map[int]bool{start: true}
	queue := []int{start}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, l := range c.Links {
			for _, next := range []int{l.A, l.B} {
				if (l.A == n || l.B == n) && !reach[next] {
					reach[next] = true
					queue = append(queue, next)
				}
			}
		}
	}
	return reach
}

// Hosts returns the indices of nodes with cores, in declaration order.
func (c *Cluster) Hosts() []int {
	var out []int
	for i, n := range c.Nodes {
		if n.Cores > 0 {
			out = append(out, i)
		}
	}
	return out
}

// Capacity returns the total rank capacity (one rank per host core).
func (c *Cluster) Capacity() int {
	total := 0
	for _, n := range c.Nodes {
		total += n.Cores
	}
	return total
}

// Path returns the link indices of a shortest route between nodes a and b
// (BFS by hop count; ties broken toward lower node indices, so routes are
// deterministic) plus the summed one-way latency. An empty path with zero
// latency means a == b.
func (c *Cluster) Path(a, b int) ([]int, sim.Time) {
	if a == b {
		return nil, 0
	}
	// prev[n] = (predecessor node, link used to reach n).
	type hop struct{ node, link int }
	prev := make(map[int]hop, len(c.Nodes))
	prev[a] = hop{-1, -1}
	queue := []int{a}
	for len(queue) > 0 {
		if _, ok := prev[b]; ok {
			break
		}
		n := queue[0]
		queue = queue[1:]
		// Examine neighbours in (node index, link index) order for a
		// deterministic tree.
		type edge struct{ node, link int }
		var edges []edge
		for li, l := range c.Links {
			if l.A == n {
				edges = append(edges, edge{l.B, li})
			} else if l.B == n {
				edges = append(edges, edge{l.A, li})
			}
		}
		sort.Slice(edges, func(i, j int) bool {
			if edges[i].node != edges[j].node {
				return edges[i].node < edges[j].node
			}
			return edges[i].link < edges[j].link
		})
		for _, e := range edges {
			if _, ok := prev[e.node]; !ok {
				prev[e.node] = hop{n, e.link}
				queue = append(queue, e.node)
			}
		}
	}
	if _, ok := prev[b]; !ok {
		panic(fmt.Sprintf("topo: no path between %q and %q (cluster not validated?)",
			c.Nodes[a].Name, c.Nodes[b].Name))
	}
	var links []int
	var lat sim.Time
	for n := b; n != a; n = prev[n].node {
		li := prev[n].link
		links = append(links, li)
		lat += c.Links[li].Latency
	}
	// Reverse into a→b order.
	for i, j := 0, len(links)-1; i < j; i, j = i+1, j-1 {
		links[i], links[j] = links[j], links[i]
	}
	return links, lat
}

// Placement maps ranks onto a cluster: which node and which core within
// that node each rank runs on. It is the cluster-level analogue of the
// SharedCachePairs/CrossDiePairs placement helpers one level down.
type Placement struct {
	Cluster *Cluster
	// NodeOf maps rank -> cluster node index.
	NodeOf []int
	// CoreOf maps rank -> core within its node.
	CoreOf []CoreID
	// NodeRanks maps cluster node index -> the ranks placed there
	// (ascending); hostless nodes map to nil.
	NodeRanks [][]int
}

// Place assigns ranks to host cores block-wise: hosts fill up one after
// another in declaration order (the dense placement batch schedulers use).
func (c *Cluster) Place(ranks int) (*Placement, error) {
	return c.place(ranks, false)
}

// PlaceSpread assigns ranks round-robin across hosts (one rank per host per
// round), maximizing inter-node traffic — the adversarial placement for
// network experiments.
func (c *Cluster) PlaceSpread(ranks int) (*Placement, error) {
	return c.place(ranks, true)
}

func (c *Cluster) place(ranks int, spread bool) (*Placement, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if total := c.Capacity(); ranks < 1 || ranks > total {
		return nil, fmt.Errorf("topo: cluster %q holds %d ranks (one per host core), requested %d",
			c.Name, total, ranks)
	}
	pl := &Placement{
		Cluster:   c,
		NodeOf:    make([]int, ranks),
		CoreOf:    make([]CoreID, ranks),
		NodeRanks: make([][]int, len(c.Nodes)),
	}
	hosts := c.Hosts()
	assign := func(rank, node int) {
		pl.NodeOf[rank] = node
		pl.CoreOf[rank] = CoreID(len(pl.NodeRanks[node]))
		pl.NodeRanks[node] = append(pl.NodeRanks[node], rank)
	}
	if spread {
		next := 0
		for rank := 0; rank < ranks; {
			node := hosts[next%len(hosts)]
			next++
			if len(pl.NodeRanks[node]) < c.Nodes[node].Cores {
				assign(rank, node)
				rank++
			}
		}
	} else {
		rank := 0
		for _, node := range hosts {
			for i := 0; i < c.Nodes[node].Cores && rank < ranks; i++ {
				assign(rank, node)
				rank++
			}
		}
	}
	return pl, nil
}

// MultiNode reports whether the placement spans more than one node.
func (pl *Placement) MultiNode() bool {
	for _, n := range pl.NodeOf[1:] {
		if n != pl.NodeOf[0] {
			return true
		}
	}
	return false
}

// UsedHosts returns the node indices that received ranks, ascending.
func (pl *Placement) UsedHosts() []int {
	var out []int
	for node, ranks := range pl.NodeRanks {
		if len(ranks) > 0 {
			out = append(out, node)
		}
	}
	return out
}

// MaxNodeCores is the largest host NodeMachine builds a valid machine for:
// it pairs cores into L2 domains, and the coherence directory tracks at
// most cache.MaxDomains of them.
const MaxNodeCores = 2 * cache.MaxDomains

// NodeMachine builds the per-host machine description used when a cluster
// node has no explicit preset: cores cores paired into shared-L2 domains
// (an odd trailing core gets a private L2), 4 MiB L2s and the calibrated
// default cost model — the E5345 geometry generalized to any core count up
// to MaxNodeCores (above it the machine fails Validate).
func NodeMachine(cores int) *Machine {
	if cores < 1 {
		panic(fmt.Sprintf("topo: NodeMachine with %d cores", cores))
	}
	m := &Machine{
		Name:        fmt.Sprintf("cluster node (%d cores, 4MiB L2 per pair)", cores),
		Cores:       cores,
		L2SizeBytes: 4 * units.MiB,
		L2Assoc:     16,
		Params:      DefaultParams(),
	}
	for c := 0; c < cores; c += 2 {
		if c+1 < cores {
			m.L2Domains = append(m.L2Domains, []CoreID{CoreID(c), CoreID(c + 1)})
		} else {
			m.L2Domains = append(m.L2Domains, []CoreID{CoreID(c)})
		}
	}
	return m
}

// FatTree builds a two-level fat tree: leaves leaf switches each serving
// hostsPerLeaf hosts of coresPerHost cores over edge links, and every leaf
// uplinked to every one of spines spine switches. Edge links carry edgeLat/
// edgeBW, uplinks upLat/upBW.
func FatTree(spines, leaves, hostsPerLeaf, coresPerHost int,
	edgeLat sim.Time, edgeBW float64, upLat sim.Time, upBW float64) *Cluster {
	c := &Cluster{Name: fmt.Sprintf("fat-tree-%d", leaves*hostsPerLeaf*coresPerHost)}
	for s := 0; s < spines; s++ {
		c.Nodes = append(c.Nodes, Node{Name: fmt.Sprintf("spine%d", s)})
	}
	for l := 0; l < leaves; l++ {
		leaf := len(c.Nodes)
		c.Nodes = append(c.Nodes, Node{Name: fmt.Sprintf("leaf%d", l)})
		for s := 0; s < spines; s++ {
			c.Links = append(c.Links, Link{A: s, B: leaf, Latency: upLat, Bandwidth: upBW})
		}
		for h := 0; h < hostsPerLeaf; h++ {
			host := len(c.Nodes)
			c.Nodes = append(c.Nodes, Node{
				Name:     fmt.Sprintf("n%d", l*hostsPerLeaf+h),
				Cores:    coresPerHost,
				MemBytes: int64(coresPerHost) * 2 * units.GiB,
			})
			c.Links = append(c.Links, Link{A: leaf, B: host, Latency: edgeLat, Bandwidth: edgeBW})
		}
	}
	return c
}

// Dragonfly builds a single-router-per-group dragonfly-style cluster:
// groups fully meshed router switches (the "global" links), each serving
// hostsPerGroup hosts of coresPerHost cores over local links.
func Dragonfly(groups, hostsPerGroup, coresPerHost int,
	localLat sim.Time, localBW float64, globalLat sim.Time, globalBW float64) *Cluster {
	c := &Cluster{Name: fmt.Sprintf("dragonfly-%d", groups*hostsPerGroup*coresPerHost)}
	for g := 0; g < groups; g++ {
		c.Nodes = append(c.Nodes, Node{Name: fmt.Sprintf("r%d", g)})
	}
	for g := 0; g < groups; g++ {
		for p := g + 1; p < groups; p++ {
			c.Links = append(c.Links, Link{A: g, B: p, Latency: globalLat, Bandwidth: globalBW})
		}
		for h := 0; h < hostsPerGroup; h++ {
			host := len(c.Nodes)
			c.Nodes = append(c.Nodes, Node{
				Name:     fmt.Sprintf("g%dn%d", g, h),
				Cores:    coresPerHost,
				MemBytes: int64(coresPerHost) * 2 * units.GiB,
			})
			c.Links = append(c.Links, Link{A: g, B: host, Latency: localLat, Bandwidth: localBW})
		}
	}
	return c
}

// TwoNode builds the minimal multi-node cluster: two hosts of coresPerNode
// cores joined by one cable.
func TwoNode(coresPerNode int, lat sim.Time, bw float64) *Cluster {
	return &Cluster{
		Name: "two-node",
		Nodes: []Node{
			{Name: "n0", Cores: coresPerNode, MemBytes: 4 * units.GiB},
			{Name: "n1", Cores: coresPerNode, MemBytes: 4 * units.GiB},
		},
		Links: []Link{{A: 0, B: 1, Latency: lat, Bandwidth: bw}},
	}
}

// ClusterPreset is one registered, buildable cluster description.
type ClusterPreset struct {
	Name  string
	Help  string
	Order int
	Build func() *Cluster
}

// Clusters is the cluster preset registry, in listing order.
var Clusters = registry.New("topo", "cluster preset", func(p ClusterPreset) (string, int) { return p.Name, p.Order })

// LookupCluster builds the named preset; the error lists the registered
// names.
func LookupCluster(name string) (*Cluster, error) {
	p, err := Clusters.Lookup(name)
	if err != nil {
		return nil, err
	}
	return p.Build(), nil
}

func init() {
	gbit := 1.25e9 // 10 Gb/s in bytes/second
	Clusters.Register(ClusterPreset{
		Name: "two-node", Order: 10, Help: "2 hosts x 8 cores, one 10Gb cable",
		Build: func() *Cluster { return TwoNode(8, 1*sim.Microsecond, gbit) },
	})
	Clusters.Register(ClusterPreset{
		Name: "four-node", Order: 20, Help: "4 hosts x 4 cores on one switch",
		Build: func() *Cluster {
			c := &Cluster{Name: "four-node", Nodes: []Node{{Name: "sw"}}}
			for i := 0; i < 4; i++ {
				c.Nodes = append(c.Nodes, Node{
					Name: fmt.Sprintf("n%d", i), Cores: 4, MemBytes: 8 * units.GiB,
				})
				c.Links = append(c.Links, Link{A: 0, B: i + 1,
					Latency: 1 * sim.Microsecond, Bandwidth: gbit})
			}
			return c
		},
	})
	Clusters.Register(ClusterPreset{
		Name: "asym-4", Order: 30, Help: "4 hosts in a line with asymmetric link speeds",
		Build: func() *Cluster {
			c := &Cluster{Name: "asym-4"}
			for i := 0; i < 4; i++ {
				c.Nodes = append(c.Nodes, Node{
					Name: fmt.Sprintf("n%d", i), Cores: 4, MemBytes: 8 * units.GiB,
				})
			}
			// A fast cable, a slow long-haul hop, and a mid-speed tail.
			c.Links = []Link{
				{A: 0, B: 1, Latency: 1 * sim.Microsecond, Bandwidth: 4 * gbit},
				{A: 1, B: 2, Latency: 5 * sim.Microsecond, Bandwidth: gbit / 4},
				{A: 2, B: 3, Latency: 2 * sim.Microsecond, Bandwidth: gbit},
			}
			return c
		},
	})
	Clusters.Register(ClusterPreset{
		Name: "fat-tree-16", Order: 40, Help: "2-spine/2-leaf fat tree, 4 hosts x 4 cores",
		Build: func() *Cluster {
			return FatTree(2, 2, 2, 4,
				1*sim.Microsecond, 2*gbit, 2*sim.Microsecond, 4*gbit)
		},
	})
	Clusters.Register(ClusterPreset{
		Name: "dragonfly-24", Order: 50, Help: "3-group dragonfly, 6 hosts x 4 cores",
		Build: func() *Cluster {
			return Dragonfly(3, 2, 4,
				1*sim.Microsecond, 2*gbit, 4*sim.Microsecond, gbit)
		},
	})
}
