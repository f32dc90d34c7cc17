// Package topo describes simulated machine topologies: cores, the cache
// domains they share, and the calibrated cost parameters of the memory
// system. Presets model the testbeds of the paper (dual-socket quad-core
// Xeon E5345 with 4 MiB L2 caches shared per core pair, and quad-core Xeon
// X5460 with 6 MiB L2 caches).
package topo

import (
	"fmt"

	"knemesis/internal/cache"
	"knemesis/internal/registry"
	"knemesis/internal/sim"
	"knemesis/internal/units"
)

// CoreID identifies a CPU core within a Machine.
type CoreID int

// Machine describes hardware topology plus cost parameters. It is a pure
// description: runtime state (caches, fluids, engines) lives in internal/hw.
type Machine struct {
	Name  string
	Cores int

	// L2Domains groups cores by shared L2 cache. Every core appears in
	// exactly one domain. A domain with one core models a private L2.
	L2Domains [][]CoreID

	// L2SizeBytes and L2Assoc describe each L2 cache.
	L2SizeBytes int64
	L2Assoc     int

	Params Params
}

// Params are calibrated cost-model constants. See DESIGN.md §4.
type Params struct {
	// BlockBytes is the cache-simulation granularity. Miss statistics are
	// reported in 64-byte-line equivalents regardless of this value.
	// Coarser blocks make big experiments faster with near-identical
	// streaming behaviour.
	BlockBytes int64

	// LineBytes is the true hardware cache-line size used for reporting.
	LineBytes int64

	// PageBytes is the virtual-memory page size.
	PageBytes int64

	// BusBandwidth is the shared memory/FSB bandwidth in bytes/second,
	// consumed by cache fills, writebacks and DMA transfers.
	BusBandwidth float64

	// CPUCopyCachedBps is the copy rate a core sustains when both source
	// and destination blocks hit in its cache hierarchy.
	CPUCopyCachedBps float64

	// CPUCopyStreamBps caps the copy rate when the core is missing to
	// memory (prefetch-limited streaming rate of the era).
	CPUCopyStreamBps float64

	// DirtyTransferFactor multiplies bus bytes for modified-line
	// cache-to-cache transfers (FSB snoop penalty).
	DirtyTransferFactor float64

	// RemoteDirtyStallFactor multiplies the CPU miss stall for bytes that
	// were dirty in another cache: modified-line interventions are slow
	// and defeat the prefetchers. This is what makes the double-buffered
	// copy slow across dies (its copy-buffer lines are perpetually dirty
	// in the peer's cache) while single-copy reads of a clean send buffer
	// stream at full rate — the central effect of Figures 3-5.
	RemoteDirtyStallFactor float64

	// MemLatency is the latency of an isolated cache-missing access
	// (used for flags and queue cells, not bulk copies).
	MemLatency sim.Time

	// SharedHitLatency is the latency of an isolated access that hits in
	// a shared L2 (e.g. polling a flag last written by the cache sibling).
	SharedHitLatency sim.Time

	// SyscallCost is the user/kernel crossing cost (paper §3.1: ~100 ns).
	SyscallCost sim.Time

	// IoctlCost is the additional command-dispatch cost of a KNEM ioctl.
	IoctlCost sim.Time

	// VFSOverhead is the per-call virtual-filesystem overhead of
	// vmsplice/readv/writev beyond the bare syscall (paper §4.2 blames
	// vmsplice's "higher initialization costs" on VFS requirements).
	VFSOverhead sim.Time

	// PinPerPage / UnpinPerPage are get_user_pages-style costs.
	PinPerPage   sim.Time
	UnpinPerPage sim.Time

	// QueueOpCost is the CPU cost of a lock-free queue enqueue/dequeue.
	QueueOpCost sim.Time

	// DMABandwidth is the I/OAT engine's copy rate in bytes/second
	// (it additionally consumes 2x bytes of BusBandwidth: read + write).
	DMABandwidth float64

	// DMASubmitPerSegment is the MMIO cost, paid by the submitting CPU,
	// per physically contiguous segment handed to the DMA engine.
	DMASubmitPerSegment sim.Time

	// DMAEngineStartup is the engine-side cost to begin a request.
	DMAEngineStartup sim.Time

	// DMAPrepFixed and DMAPrepPerPage model the driver's receive-side
	// preparation of an I/OAT transfer (descriptor chain building and the
	// page-alignment fixups the paper blames for unstable I/OAT numbers,
	// §4.2). Calibrated against Figure 5: they are what keeps I/OAT
	// unattractive below the ~1-2 MiB DMAmin threshold.
	DMAPrepFixed   sim.Time
	DMAPrepPerPage sim.Time

	// PhysRunPages is the typical number of virtually contiguous pages
	// that are also physically contiguous; it determines how many
	// segments a buffer splits into for DMA submission.
	PhysRunPages int

	// PipePages is the kernel pipe capacity in pages (PIPE_BUFFERS).
	PipePages int

	// SchedWakeLatency is the scheduler wakeup cost paid by a process
	// that blocked in a pipe operation (futex/wait-queue round trip).
	// It is the "much more synchronization between source and destination
	// processes" that makes vmsplice trail KNEM (§4.2).
	SchedWakeLatency sim.Time

	// KThreadSpawnCost is the cost to wake a kernel worker thread.
	KThreadSpawnCost sim.Time
}

// DefaultParams returns the calibrated 2009-Xeon cost model shared by the
// machine presets.
func DefaultParams() Params {
	return Params{
		BlockBytes: 1024,
		LineBytes:  64,
		PageBytes:  4096,
		// 1333 MHz FSB x 8 B is 10.6e9 peak; sustained transfer efficiency
		// on these FSBs is ~75% (arbitration, snoop and turnaround cycles
		// — STREAM measures 6-7 GB/s on Clovertown), and contention-regime
		// scaling only reproduces with the sustained figure.
		BusBandwidth:           8.0e9,
		CPUCopyCachedBps:       6.5e9,
		CPUCopyStreamBps:       3.0e9,
		DirtyTransferFactor:    2.0,
		RemoteDirtyStallFactor: 5.0,
		MemLatency:             90 * sim.Nanosecond,
		SharedHitLatency:       14 * sim.Nanosecond,
		SyscallCost:            100 * sim.Nanosecond,
		IoctlCost:              150 * sim.Nanosecond,
		VFSOverhead:            600 * sim.Nanosecond,
		PinPerPage:             80 * sim.Nanosecond,
		UnpinPerPage:           40 * sim.Nanosecond,
		QueueOpCost:            40 * sim.Nanosecond,
		DMABandwidth:           5.2e9,
		DMASubmitPerSegment:    300 * sim.Nanosecond,
		DMAEngineStartup:       3 * sim.Microsecond,
		DMAPrepFixed:           40 * sim.Microsecond,
		DMAPrepPerPage:         200 * sim.Nanosecond,
		PhysRunPages:           8,
		PipePages:              16,
		SchedWakeLatency:       3 * sim.Microsecond,
		KThreadSpawnCost:       1500 * sim.Nanosecond,
	}
}

// XeonE5345 returns the paper's primary testbed: dual-socket quad-core
// "Clovertown" at 2.33 GHz; each socket has two dies, each die a pair of
// cores sharing a 4 MiB L2.
func XeonE5345() *Machine {
	return &Machine{
		Name:  "Xeon E5345 (2x4 cores, 4MiB L2 per pair)",
		Cores: 8,
		L2Domains: [][]CoreID{
			{0, 1}, {2, 3}, // socket 0, dies 0 and 1
			{4, 5}, {6, 7}, // socket 1, dies 0 and 1
		},
		L2SizeBytes: 4 * units.MiB,
		L2Assoc:     16,
		Params:      DefaultParams(),
	}
}

// XeonX5460 returns the paper's secondary host: quad-core "Harpertown" at
// 3.16 GHz with two 6 MiB L2 caches.
func XeonX5460() *Machine {
	m := &Machine{
		Name:  "Xeon X5460 (4 cores, 6MiB L2 per pair)",
		Cores: 4,
		L2Domains: [][]CoreID{
			{0, 1}, {2, 3},
		},
		L2SizeBytes: 6 * units.MiB,
		L2Assoc:     24,
		Params:      DefaultParams(),
	}
	// Faster clock: cached copies and small-op latencies improve a bit.
	m.Params.CPUCopyCachedBps = 8e9
	m.Params.SharedHitLatency = 11 * sim.Nanosecond
	return m
}

// NehalemStyle returns a forward-looking preset discussed in the paper's
// conclusion: 8 cores all sharing one large last-level cache.
func NehalemStyle() *Machine {
	m := &Machine{
		Name:  "Nehalem-style (8 cores, one shared 8MiB LLC)",
		Cores: 8,
		L2Domains: [][]CoreID{
			{0, 1, 2, 3, 4, 5, 6, 7},
		},
		L2SizeBytes: 8 * units.MiB,
		L2Assoc:     16,
		Params:      DefaultParams(),
	}
	m.Params.BusBandwidth = 25e9 // integrated memory controller
	m.Params.DMABandwidth = 8e9
	return m
}

// MachinePreset is one named, buildable machine: a -machine flag value or
// a spec's "machine".
type MachinePreset struct {
	Name  string
	Order int
	Build func() *Machine
}

// Machines is the machine preset registry, in flag-help order.
var Machines = registry.New("topo", "machine", func(p MachinePreset) (string, int) { return p.Name, p.Order })

func init() {
	Machines.Register(MachinePreset{Name: "e5345", Order: 0, Build: XeonE5345})
	Machines.Register(MachinePreset{Name: "x5460", Order: 1, Build: XeonX5460})
	Machines.Register(MachinePreset{Name: "nehalem", Order: 2, Build: NehalemStyle})
}

// LookupMachine builds the named machine preset; the error lists the
// registered names.
func LookupMachine(name string) (*Machine, error) {
	p, err := Machines.Lookup(name)
	if err != nil {
		return nil, err
	}
	return p.Build(), nil
}

// Validate checks structural invariants: every core in exactly one domain,
// no more domains than the coherence directory tracks, positive sizes,
// power-of-two block/page sizes.
func (m *Machine) Validate() error {
	if m.Cores <= 0 {
		return fmt.Errorf("topo: %s: no cores", m.Name)
	}
	if len(m.L2Domains) > cache.MaxDomains {
		return fmt.Errorf("topo: %s: %d L2 domains above the coherence directory's limit of %d", m.Name, len(m.L2Domains), cache.MaxDomains)
	}
	seen := make(map[CoreID]bool)
	for _, dom := range m.L2Domains {
		if len(dom) == 0 {
			return fmt.Errorf("topo: %s: empty L2 domain", m.Name)
		}
		for _, c := range dom {
			if c < 0 || int(c) >= m.Cores {
				return fmt.Errorf("topo: %s: core %d out of range", m.Name, c)
			}
			if seen[c] {
				return fmt.Errorf("topo: %s: core %d in two L2 domains", m.Name, c)
			}
			seen[c] = true
		}
	}
	if len(seen) != m.Cores {
		return fmt.Errorf("topo: %s: %d cores missing an L2 domain", m.Name, m.Cores-len(seen))
	}
	if m.L2SizeBytes <= 0 || m.L2Assoc <= 0 {
		return fmt.Errorf("topo: %s: invalid L2 geometry", m.Name)
	}
	if m.L2Assoc > cache.MaxAssoc {
		return fmt.Errorf("topo: %s: L2 associativity %d above the cache model's limit of %d ways", m.Name, m.L2Assoc, cache.MaxAssoc)
	}
	p := m.Params
	for _, v := range []int64{p.BlockBytes, p.LineBytes, p.PageBytes} {
		if v <= 0 || v&(v-1) != 0 {
			return fmt.Errorf("topo: %s: sizes must be positive powers of two", m.Name)
		}
	}
	if p.BlockBytes < p.LineBytes {
		return fmt.Errorf("topo: %s: block granularity below line size", m.Name)
	}
	if m.L2SizeBytes%(p.BlockBytes*int64(m.L2Assoc)) != 0 {
		return fmt.Errorf("topo: %s: L2 size not divisible by assoc*block", m.Name)
	}
	return nil
}

// L2Of returns the index of the L2 domain containing core c.
func (m *Machine) L2Of(c CoreID) int {
	for i, dom := range m.L2Domains {
		for _, dc := range dom {
			if dc == c {
				return i
			}
		}
	}
	panic(fmt.Sprintf("topo: core %d not in any L2 domain of %s", c, m.Name))
}

// SharedCache reports whether cores a and b share an L2.
func (m *Machine) SharedCache(a, b CoreID) bool { return m.L2Of(a) == m.L2Of(b) }

// PairSharedCache returns two cores that share an L2 (the paper's
// "Shared Cache" placement).
func (m *Machine) PairSharedCache() (CoreID, CoreID) {
	for _, dom := range m.L2Domains {
		if len(dom) >= 2 {
			return dom[0], dom[1]
		}
	}
	panic("topo: machine has no shared-cache pair: " + m.Name)
}

// PairDifferentDies returns two cores that do not share any cache (the
// paper's "Different Dies" placement).
func (m *Machine) PairDifferentDies() (CoreID, CoreID) {
	if len(m.L2Domains) < 2 {
		panic("topo: machine has a single cache domain: " + m.Name)
	}
	return m.L2Domains[0][0], m.L2Domains[1][0]
}

// SharedCachePairs returns n disjoint core pairs, each pair sharing an L2
// (the paper's "Shared Cache" placement replicated n times). Pairs are drawn
// from distinct L2 domains first, so with one pair per domain no two pairs
// contend for the same cache.
func (m *Machine) SharedCachePairs(n int) ([][2]CoreID, error) {
	if n < 1 {
		return nil, fmt.Errorf("topo: need at least 1 pair, want %d", n)
	}
	var out [][2]CoreID
	for round := 0; ; round++ {
		added := false
		for _, dom := range m.L2Domains {
			i := 2 * round
			if i+1 >= len(dom) {
				continue
			}
			added = true
			if out = append(out, [2]CoreID{dom[i], dom[i+1]}); len(out) == n {
				return out, nil
			}
		}
		if !added {
			return nil, fmt.Errorf("topo: %s supports %d shared-cache pairs, want %d", m.Name, len(out), n)
		}
	}
}

// CrossDiePairs returns n disjoint core pairs whose members do not share any
// cache (the paper's "Different Dies" placement replicated n times). Domains
// are consumed two at a time and their cores zipped, so the i-th pair of a
// domain couple occupies slot i of both dies.
func (m *Machine) CrossDiePairs(n int) ([][2]CoreID, error) {
	if n < 1 {
		return nil, fmt.Errorf("topo: need at least 1 pair, want %d", n)
	}
	var out [][2]CoreID
	for d := 0; d+1 < len(m.L2Domains); d += 2 {
		a, b := m.L2Domains[d], m.L2Domains[d+1]
		for i := 0; i < len(a) && i < len(b) && len(out) < n; i++ {
			out = append(out, [2]CoreID{a[i], b[i]})
		}
	}
	if len(out) < n {
		return nil, fmt.Errorf("topo: %s supports %d cross-die pairs, want %d", m.Name, len(out), n)
	}
	return out[:n], nil
}

// PairCores flattens pair placements into the rank-ordered core list a
// channel expects: pair i becomes ranks 2i and 2i+1.
func PairCores(pairs [][2]CoreID) []CoreID {
	out := make([]CoreID, 0, 2*len(pairs))
	for _, p := range pairs {
		out = append(out, p[0], p[1])
	}
	return out
}

// AllCores returns 0..Cores-1, the placement used by 8-process runs.
func (m *Machine) AllCores() []CoreID {
	out := make([]CoreID, m.Cores)
	for i := range out {
		out[i] = CoreID(i)
	}
	return out
}

// DMAMin implements the paper's §3.5 formula,
//
//	DMAmin = CacheSize / (2 x ProcessesUsingTheCache),
//
// the message size above which I/OAT copy offload should be preferred.
// processesUsingCache is the number of MPI processes whose working sets
// compete for the receiver's largest cache (1 when the peers do not share a
// cache, 2 when a communicating pair shares one L2, and so on).
func (m *Machine) DMAMin(processesUsingCache int) int64 {
	return DMAMinOf(m.L2SizeBytes, processesUsingCache)
}

// DMAMinOf is the §3.5 formula itself, cacheBytes / (2 x sharers), for any
// cache: the simulated machines' and the host's (rt reads the latter from
// sysfs through ReadL2). Fewer than one sharer counts as one.
func DMAMinOf(cacheBytes int64, sharers int) int64 {
	return cacheBytes / (2 * int64(max(1, sharers)))
}
