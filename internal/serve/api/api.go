// Package api defines knemd's wire surface: the canonical, versioned
// JobSpec envelope clients submit, its validation and normalization
// against the engine/experiment/LMT/perturbation registries, the cache key
// derivation, and the response types the daemon serves.
//
// Canonicalization is what makes the result cache sound: two semantically
// equal specs — default values elided or spelled out, perturbation
// parameters in any order — normalize to the same envelope, marshal to the
// same canonical JSON (fixed field order) and therefore hash to the same
// cache key.
package api

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"
	"strings"

	"knemesis/internal/comm"
	"knemesis/internal/core"
	"knemesis/internal/experiments"
	"knemesis/internal/imb"
	"knemesis/internal/perturb"
	"knemesis/internal/rt"
	"knemesis/internal/topo"
	"knemesis/internal/units"
)

// Version is the JobSpec envelope version this daemon speaks.
const Version = 1

// CodeVersion participates in every cache key: bump it when an engine or
// driver change may alter artefact bytes, so stale results are never
// served across code revisions.
const CodeVersion = "knemesis-2026.10"

// Job kinds.
const (
	KindExperiment = "experiment" // a registered experiments entry
	KindComm       = "comm"       // a raw comm-API benchmark job
)

// Resource classes (scheduler lanes).
const (
	ClassSim = "sim" // fan out across the bounded worker pool
	ClassRT  = "rt"  // one rt job at a time; no core reserved, sim jobs may run beside it
)

// rtExperiments names the registered experiments that exercise the real
// runtime: their wall-clock rows are only honest on quiet cores, so they
// schedule in the exclusive rt class.
var rtExperiments = map[string]bool{"rt": true, "skew": true}

// Spec is the versioned job envelope. Exactly one kind's field group
// applies; unknown JSON fields are rejected at decode time.
type Spec struct {
	Version int    `json:"version"`
	Kind    string `json:"kind"`

	// KindExperiment: a registered experiment on a machine preset.
	Experiment string `json:"experiment,omitempty"`
	Machine    string `json:"machine,omitempty"` // e5345 (default) | x5460 | nehalem
	Quick      bool   `json:"quick,omitempty"`   // reduced-scale sweep

	// KindComm: one benchmark driver on one engine.
	Engine    string  `json:"engine,omitempty"`    // sim (default) | rt
	Bench     string  `json:"bench,omitempty"`     // pingpong (default) | sendrecv | ...
	Ranks     int     `json:"ranks,omitempty"`     // default 2
	Sizes     []int64 `json:"sizes,omitempty"`     // message sizes in bytes, default [65536]
	LMT       string  `json:"lmt,omitempty"`       // sim backend preset, default "default"
	RTMode    string  `json:"rtmode,omitempty"`    // rt large-message mode, default single-copy
	EagerMax  int64   `json:"eager_max,omitempty"` // rendezvous threshold override
	Topology  string  `json:"topology,omitempty"`  // cluster preset name or DOT text ("" = single node)
	Placement string  `json:"placement,omitempty"` // shared (default) | cross; on a topology block (default) | spread
	FlatColl  bool    `json:"flat_coll,omitempty"` // keep flat collectives on a topology
	Perturb   string  `json:"perturb,omitempty"`   // ';'-separated perturbation specs
	Seed      uint64  `json:"seed,omitempty"`      // perturbation RNG seed

	// DeadlineSec bounds the run. It may only shorten the daemon's
	// default deadline: 0, or a value at or above the default, runs under
	// the default. It does not enter the cache key: a deadline changes
	// whether a run finishes, not what a finished run produces.
	DeadlineSec float64 `json:"deadline_sec,omitempty"`
}

// Decode parses a spec envelope strictly: unknown fields are errors, so a
// typo'd field name cannot silently select a default.
func Decode(data []byte) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("api: bad spec: %w", err)
	}
	return s, nil
}

// Canonicalize validates the spec against the registries and returns its
// normal form: version pinned, defaults spelled out, sizes sorted and
// deduplicated, the perturbation list in its canonical String form, inert
// fields zeroed. The result is the only form the daemon schedules, hashes
// and stores.
func (s Spec) Canonicalize() (Spec, error) {
	c := s
	if c.Version == 0 {
		c.Version = Version
	}
	if c.Version != Version {
		return Spec{}, fmt.Errorf("api: unsupported spec version %d (this daemon speaks %d)", c.Version, Version)
	}
	switch c.Kind {
	case KindExperiment:
		return c.canonExperiment()
	case KindComm:
		return c.canonComm()
	case "":
		return Spec{}, fmt.Errorf("api: missing kind (have %s|%s)", KindExperiment, KindComm)
	default:
		return Spec{}, fmt.Errorf("api: unknown kind %q (have %s|%s)", c.Kind, KindExperiment, KindComm)
	}
}

func (s Spec) canonExperiment() (Spec, error) {
	c := s
	if _, err := experiments.Experiments.Lookup(c.Experiment); err != nil {
		return Spec{}, err
	}
	if c.Machine == "" {
		c.Machine = "e5345"
	}
	if _, err := topo.LookupMachine(c.Machine); err != nil {
		return Spec{}, err
	}
	// The comm field group is inert on an experiment job; a spec that sets
	// any of it is more likely confused than deliberate.
	if c.Engine != "" || c.Bench != "" || c.Ranks != 0 || len(c.Sizes) != 0 ||
		c.LMT != "" || c.RTMode != "" || c.EagerMax != 0 || c.Topology != "" ||
		c.Placement != "" || c.FlatColl || c.Perturb != "" || c.Seed != 0 {
		return Spec{}, fmt.Errorf("api: experiment job %q sets comm-only fields", c.Experiment)
	}
	if c.DeadlineSec < 0 {
		return Spec{}, fmt.Errorf("api: negative deadline_sec")
	}
	return c, nil
}

func (s Spec) canonComm() (Spec, error) {
	c := s
	if c.Experiment != "" || c.Machine != "" && c.Engine == "rt" {
		// Machine presets only shape the simulator; rt jobs carrying one
		// would silently ignore it.
		if c.Experiment != "" {
			return Spec{}, fmt.Errorf("api: comm job sets experiment-only fields")
		}
		return Spec{}, fmt.Errorf("api: machine preset %q is meaningless on the rt engine", c.Machine)
	}
	if c.Quick {
		return Spec{}, fmt.Errorf("api: quick applies to experiment jobs only")
	}
	if c.Engine == "" {
		c.Engine = "sim"
	}
	if _, err := comm.Engines.Lookup(c.Engine); err != nil {
		return Spec{}, err
	}
	if c.Bench == "" {
		c.Bench = "pingpong"
	}
	if _, err := imb.Benches.Lookup(c.Bench); err != nil {
		return Spec{}, err
	}
	if c.Ranks == 0 {
		c.Ranks = 2
	}
	if c.Ranks < 2 {
		return Spec{}, fmt.Errorf("api: ranks %d: need at least 2", c.Ranks)
	}
	if c.Bench == "multi-pingpong" && c.Ranks%2 != 0 {
		return Spec{}, fmt.Errorf("api: multi-pingpong pairs ranks 2i and 2i+1, need an even count, have %d", c.Ranks)
	}
	if len(c.Sizes) == 0 {
		c.Sizes = []int64{64 * units.KiB}
	}
	c.Sizes = append([]int64(nil), c.Sizes...)
	slices.Sort(c.Sizes)
	c.Sizes = slices.Compact(c.Sizes)
	for _, sz := range c.Sizes {
		if sz < 1 {
			return Spec{}, fmt.Errorf("api: message size %d: need at least 1 byte", sz)
		}
	}
	var m *topo.Machine // the simulated host; nil on rt
	if c.Engine == "sim" {
		if c.Machine == "" {
			c.Machine = "e5345"
		}
		var err error
		if m, err = topo.LookupMachine(c.Machine); err != nil {
			return Spec{}, err
		}
		if c.LMT == "" {
			c.LMT = "default"
		}
		if _, err := core.ParseSpec(c.LMT); err != nil {
			return Spec{}, err
		}
		c.RTMode = "" // inert on sim
	} else {
		if c.LMT != "" {
			return Spec{}, fmt.Errorf("api: lmt preset %q is meaningless on the rt engine", c.LMT)
		}
		if c.RTMode == "" {
			c.RTMode = "single-copy"
		}
		if _, err := rt.ParseMode(c.RTMode); err != nil {
			return Spec{}, err
		}
		if c.Ranks > rt.MaxRanks {
			return Spec{}, fmt.Errorf("api: ranks %d: the rt engine runs at most %d", c.Ranks, rt.MaxRanks)
		}
	}
	if c.EagerMax < 0 {
		return Spec{}, fmt.Errorf("api: negative eager_max")
	}
	if c.Topology != "" {
		cl, err := cluster(c.Topology)
		if err != nil {
			return Spec{}, err
		}
		if isDOT(c.Topology) {
			c.Topology = canonDOT(cl)
		}
		if c.Placement == "" {
			c.Placement = "block"
		}
		if c.Placement != "block" && c.Placement != "spread" {
			return Spec{}, fmt.Errorf("api: unknown placement %q (have block|spread)", c.Placement)
		}
		if c.Ranks > cl.Capacity() {
			return Spec{}, fmt.Errorf("api: cluster %s has %d cores, requested %d ranks", cl.Name, cl.Capacity(), c.Ranks)
		}
		if c.Engine == "sim" {
			// The simulator builds a topo.NodeMachine per used host; refuse
			// every host it cannot model before any machine is built.
			for _, n := range cl.Nodes {
				if n.Cores > topo.MaxNodeCores {
					return Spec{}, fmt.Errorf("api: host %s of cluster %s has %d cores, the simulator models at most %d", n.Name, cl.Name, n.Cores, topo.MaxNodeCores)
				}
			}
			c.Machine = "" // inert: the cluster's hosts are the machines
		}
	} else {
		if c.FlatColl {
			return Spec{}, fmt.Errorf("api: flat_coll needs a topology")
		}
		if m != nil && c.Ranks > m.Cores {
			return Spec{}, fmt.Errorf("api: machine %s has %d cores, requested %d ranks", c.Machine, m.Cores, c.Ranks)
		}
		switch c.Placement {
		case "", "shared":
			// The first ranks cores: pairs (0,1), (2,3), ... share a cache
			// on every machine preset.
			c.Placement = ""
		case "cross":
			if m == nil {
				return Spec{}, fmt.Errorf("api: cross placement pins simulated cores, not %s ranks", c.Engine)
			}
			if c.Ranks%2 != 0 {
				return Spec{}, fmt.Errorf("api: cross placement pairs ranks, need an even count, have %d", c.Ranks)
			}
			if _, err := m.CrossDiePairs(c.Ranks / 2); err != nil {
				return Spec{}, err
			}
		default:
			return Spec{}, fmt.Errorf("api: unknown placement %q (have shared|cross; block|spread need a topology)", c.Placement)
		}
	}
	if c.Perturb != "" {
		specs, err := perturb.ParseList(c.Perturb)
		if err != nil {
			return Spec{}, err
		}
		c.Perturb = perturb.FormatList(specs) // canonical: sorted param keys
	}
	// Decided on the canonical list, so a blank one (" ", ";") reads as no
	// perturbation and canonicalizing again changes nothing.
	if c.Perturb == "" {
		c.Seed = 0 // inert without perturbations
	} else if c.Seed == 0 {
		c.Seed = 1
	}
	if c.DeadlineSec < 0 {
		return Spec{}, fmt.Errorf("api: negative deadline_sec")
	}
	return c, nil
}

// Class returns the scheduler resource class of a canonical spec: rt jobs
// (and the experiments that run rt rows) are exclusive, everything else
// rides the sim pool.
func (s Spec) Class() string {
	if s.Kind == KindComm && s.Engine == "rt" {
		return ClassRT
	}
	if s.Kind == KindExperiment && rtExperiments[s.Experiment] {
		return ClassRT
	}
	return ClassSim
}

// ToComm materializes a canonical comm-kind spec into the engine-neutral
// comm.JobSpec it executes as: names resolve to the machine, cluster and
// perturbation values the engines take. It plays no part in the cache key,
// which hashes the canonical spec itself.
func (s Spec) ToComm() (comm.JobSpec, error) {
	if s.Kind != KindComm {
		return comm.JobSpec{}, fmt.Errorf("api: ToComm on a %s spec", s.Kind)
	}
	spec := comm.JobSpec{
		Ranks:    s.Ranks,
		EagerMax: s.EagerMax,
		LMT:      s.LMT,
		RTMode:   s.RTMode,
	}
	if s.Engine == "sim" && s.Topology == "" {
		m, err := topo.LookupMachine(s.Machine)
		if err != nil {
			return comm.JobSpec{}, err
		}
		spec.Machine = m
	}
	if s.Topology != "" {
		cl, err := cluster(s.Topology)
		if err != nil {
			return comm.JobSpec{}, err
		}
		spec.Topology = cl
		spec.Placement = s.Placement
		spec.FlatCollectives = s.FlatColl
	} else if s.Placement == "cross" {
		pairs, err := spec.Machine.CrossDiePairs(s.Ranks / 2)
		if err != nil {
			return comm.JobSpec{}, err
		}
		spec.Cores = topo.PairCores(pairs)
	}
	if s.Perturb != "" {
		specs, err := perturb.ParseList(s.Perturb)
		if err != nil {
			return comm.JobSpec{}, err
		}
		spec.Perturbations = specs
		spec.Seed = s.Seed
	}
	return spec, nil
}

// isDOT reports whether a topology value is DOT text rather than a preset
// name (no preset name holds a brace).
func isDOT(topology string) bool { return strings.Contains(topology, "{") }

// cluster resolves a topology value: DOT text is parsed, anything else must
// name a registered preset. A file path is neither, so it is rejected: the
// daemon never opens a path taken from a spec.
func cluster(topology string) (*topo.Cluster, error) {
	if isDOT(topology) {
		return topo.ParseDOT(topology)
	}
	return topo.LookupCluster(topology)
}

// canonDOT is the canonical form of DOT topology text: the name of the
// preset it renders identically to, else its RenderDOT form. One cluster
// thus has one canonical spec, and so one cache key, however its DOT text
// was spelled.
func canonDOT(cl *topo.Cluster) string {
	dot := topo.RenderDOT(cl)
	for _, p := range topo.Clusters.All() {
		if topo.RenderDOT(p.Build()) == dot {
			return p.Name
		}
	}
	return dot
}

// CanonicalJSON marshals a canonical spec deterministically (fixed struct
// field order, normalized values): the byte form the daemon stores and
// hashes.
func (s Spec) CanonicalJSON() []byte {
	buf, err := json.Marshal(s)
	if err != nil {
		panic(fmt.Sprintf("api: spec marshal cannot fail: %v", err)) // no unmarshalable field types
	}
	return buf
}

// CacheKey derives the result-cache key of a canonical spec: sha256 over
// CodeVersion, a 0 byte and the spec's CanonicalJSON with the deadline
// zeroed. Every other spec field enters the key by construction, so equal
// keys mean equal canonical specs, and so equal specs embedded in the
// artefacts. The deadline never enters the key. The error is always nil.
func (s Spec) CacheKey() (string, error) {
	s.DeadlineSec = 0
	h := sha256.New()
	h.Write([]byte(CodeVersion))
	h.Write([]byte{0})
	h.Write(s.CanonicalJSON())
	return hex.EncodeToString(h.Sum(nil)), nil
}

// --- response types ------------------------------------------------------

// SubmitResult answers POST /v1/jobs.
type SubmitResult struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Cached bool   `json:"cached"`
	Key    string `json:"key"`
}

// Error is the JSON error body on every non-2xx response.
type Error struct {
	Error string `json:"error"`
}

// RecoveryStats summarizes what the daemon's boot-time WAL replay
// reconstructed and how the interrupted jobs were resolved.
type RecoveryStats struct {
	// ReplayEntries is the number of WAL lines applied; ReplayRecords the
	// ledger records rebuilt from them.
	ReplayEntries int `json:"replay_entries"`
	ReplayRecords int `json:"replay_records"`
	// TornTail reports the WAL ended mid-line (the crash landed inside an
	// append); the fragment was dropped and truncated.
	TornTail bool `json:"torn_tail,omitempty"`
	// Requeued / CachedAnswered / CrashFailed partition the interrupted
	// jobs by how recovery resolved them.
	Requeued       int `json:"requeued"`
	CachedAnswered int `json:"cached_answered"`
	CrashFailed    int `json:"crash_failed"`
	// ReplayMS is the wall-clock cost of replay plus resolution.
	ReplayMS float64 `json:"replay_ms"`
}

// Stats answers GET /v1/stats.
type Stats struct {
	UptimeSec float64 `json:"uptime_sec"`
	// Ready is false while crash recovery is still resolving interrupted
	// jobs (submissions are rejected; /v1/readyz answers 503).
	Ready bool `json:"ready"`

	// Submitted counts submissions: every job handed to the scheduler
	// (shed ones and recovery re-queues included) plus every cache hit,
	// which never reaches it. Shed counts those the full queue turned away.
	Submitted int64 `json:"submitted"`
	Shed      int64 `json:"shed"`

	// Queued and Running are the scheduler's current backlog and running
	// set. Done counts jobs that reached done: runs, and interrupted jobs
	// recovery answered from the cache. A cache hit at submission creates
	// no job and is counted in CacheHits only. Failed and Cancelled count
	// the other terminal states.
	Queued    int64 `json:"queued"`
	Running   int64 `json:"running"`
	Done      int64 `json:"done"`
	Failed    int64 `json:"failed"`
	Cancelled int64 `json:"cancelled"`

	// Panics counts runner panics converted into job failures, one per
	// failed run; Quarantined counts cache keys the panic circuit breaker
	// sheds on submit after repeated panics across submissions.
	Panics      int64 `json:"panics"`
	Quarantined int   `json:"quarantined"`

	// CacheHits counts lookups the result cache answered: submissions
	// answered with the record of the run that owns the artefact, and
	// interrupted jobs recovery finished from it. CacheMisses counts the
	// lookups that found nothing; CacheEntries the keys that have an owner.
	CacheHits    int64 `json:"cache_hits"`
	CacheMisses  int64 `json:"cache_misses"`
	CacheEntries int   `json:"cache_entries"`

	// RTMaxObserved is the in-process honesty probe: the high-water mark
	// of concurrently executing rt-class jobs. Anything above 1 means two
	// rt measurements ran at once; sim jobs running beside one are not
	// counted.
	RTMaxObserved int64 `json:"rt_max_observed"`
	// RTAuditFailures counts rt jobs whose post-run envelope audit found
	// leaked envelopes (minted != pooled).
	RTAuditFailures int64 `json:"rt_audit_failures"`

	// Recovery summarizes the boot-time WAL replay (zero-valued on a
	// fresh store).
	Recovery RecoveryStats `json:"recovery"`
}
