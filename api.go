// Package knemesis reproduces "Cache-Efficient, Intranode, Large-Message
// MPI Communication with MPICH2-Nemesis" (Buntinas, Goglin, Goodell,
// Mercier, Moreaud — ICPP 2009) as a Go library.
//
// The public API is built around one engine-neutral communication
// interface (Peer/Job, see internal/comm): every workload — the IMB
// benchmark drivers, the NAS proxy kernels, the conformance tests — is
// written once against it and runs on every registered engine. Two engines
// ship today:
//
//   - "sim": a deterministic discrete-event simulator of the paper's
//     testbed (multicore Xeon with shared-L2 pairs, FSB bandwidth, I/OAT
//     DMA engine, Linux pipes and the KNEM kernel module) running a
//     Nemesis channel with the paper's four Large Message Transfer
//     backends. Every figure and table of the paper's evaluation
//     regenerates from this engine (see Experiments, cmd/knemsim, and
//     EXPERIMENTS.md).
//
//   - "rt": a real goroutine runtime with Nemesis-style lock-free queues
//     where single-copy rendezvous is natively possible; the same
//     benchmarks measure the paper's eager-vs-single-copy trade-off for
//     real, in wall-clock time (the "rt" experiment feeds those rows
//     through the same artefact pipeline).
//
// This facade re-exports the stable entry points; the implementation lives
// under internal/ (see DESIGN.md for the package map and "How to add an
// engine"). The package examples print the paper's headline shapes (Figs.
// 5 and 7, the §3.5 thresholds, Table 1's IS row) with their output pinned,
// so `go test` fails when a printed number moves.
package knemesis

import (
	"knemesis/internal/comm"
	"knemesis/internal/core"
	"knemesis/internal/experiments"
	"knemesis/internal/imb"
	"knemesis/internal/mpi"
	"knemesis/internal/nas"
	"knemesis/internal/nemesis"
	"knemesis/internal/rt"
	"knemesis/internal/topo"
)

// The engine-neutral communication surface: workloads are written against
// Peer (one rank) and Job (one communicator world), and engines are
// resolved by name through the registry.
type (
	// Peer is one rank's engine-neutral communication handle.
	Peer = comm.Peer
	// Job is one runnable communicator world on some engine.
	Job = comm.Job
	// JobSpec describes a job; engines read the fields they understand.
	JobSpec = comm.JobSpec
	// Engine is one entry of the engine registry ("sim", "rt").
	Engine = comm.Engine
	// Buf is an engine-neutral buffer handle.
	Buf = comm.Buf
	// BufRange is a contiguous view into a Buf (a message body).
	BufRange = comm.Range
	// CommStatus describes a completed receive.
	CommStatus = comm.Status
	// CommRequest is a nonblocking operation handle.
	CommRequest = comm.Request
	// Usage is an engine-neutral machine-utilization snapshot.
	Usage = comm.Usage
)

// Engine registry access and job construction.
var (
	// NewJob builds a job on the named engine ("sim", "rt").
	NewJob = comm.NewJob
	// Engines is the engine registry (Lookup, All, Names).
	Engines = comm.Engines
	// NewSimJob wraps an already-built simulated stack as a job, one rank
	// per channel endpoint. Its Peers also move noncontiguous vectors:
	// SendVec(dst, tag, mem.IOVec) and RecvVec(src, tag, mem.IOVec)
	// (Example_noncontig). A sim job runs once: when its Run returns, the
	// stack's machines have handed their cache state back for later
	// stacks to reuse (Usage and MissLines still read the finished run),
	// and a second Run returns an error. Build a new stack for every run.
	NewSimJob = mpi.NewSimJob

	// R and WholeBuf build message ranges over a Buf.
	R        = comm.R
	WholeBuf = comm.Whole
)

// Matching wildcards for Peer receives.
const (
	AnySource = comm.AnySource
	AnyTag    = comm.AnyTag
)

// Engine-neutral benchmark drivers: one source per workload, every engine.
var (
	// RunPingPong measures ranks 0<->1 of any job across sizes.
	RunPingPong = imb.RunPingPong
	// RunAlltoall measures an all-ranks alltoall on any job.
	RunAlltoall = imb.RunAlltoall
	// RunMultiPingPong measures N concurrent PingPong pairs (ranks 2i,
	// 2i+1) contending inside one job.
	RunMultiPingPong = imb.RunMultiPingPong
	// RunSendrecv measures the IMB periodic-chain Sendrecv pattern.
	RunSendrecv = imb.RunSendrecv
	// RunExchange measures the IMB both-neighbour Exchange pattern.
	RunExchange = imb.RunExchange
	// RunBcast and RunAllreduce measure those collectives.
	RunBcast     = imb.RunBcast
	RunAllreduce = imb.RunAllreduce
)

// Re-exported machine topology types and presets.
type (
	// Machine describes a simulated host (cores, cache domains, costs).
	Machine = topo.Machine
	// CoreID identifies a core of a Machine.
	CoreID = topo.CoreID
)

// Machine presets from the paper's evaluation.
var (
	// XeonE5345 is the paper's primary testbed: 2x4 cores, one 4 MiB L2
	// per core pair.
	XeonE5345 = topo.XeonE5345
	// XeonX5460 is the secondary host with 6 MiB L2 caches.
	XeonX5460 = topo.XeonX5460
	// NehalemStyle is the forward-looking single-shared-LLC preset the
	// paper's conclusion anticipates.
	NehalemStyle = topo.NehalemStyle
)

// LMT configuration (the paper's contribution).
type (
	// LMTOptions selects and tunes a Large Message Transfer backend.
	LMTOptions = core.Options
	// LMTKind names a backend: the key of the core backend registry.
	LMTKind = core.Kind
	// LMTBackend is one entry of the backend registry.
	LMTBackend = core.Backend
	// LMTSpec is one named backend preset (the CLIs' -lmt values).
	LMTSpec = core.Spec
	// IOATPolicy controls DMA-engine offload for the KNEM backend.
	IOATPolicy = core.IOATPolicy
	// Stack is a fully wired simulated node (hardware, OS, KNEM, channel).
	Stack = core.Stack
	// ChannelConfig tunes the Nemesis channel (thresholds, cells).
	ChannelConfig = nemesis.Config
)

// Backend and policy constants.
const (
	DefaultLMT        = core.DefaultLMT
	VmspliceLMT       = core.VmspliceLMT
	VmspliceWritevLMT = core.VmspliceWritevLMT
	KnemLMT           = core.KnemLMT
	CMALMT            = core.CMALMT

	IOATOff    = core.IOATOff
	IOATAlways = core.IOATAlways
	IOATAuto   = core.IOATAuto
)

// Backend registry access: the enumeration the CLIs and embedders use
// instead of hand-maintained switches.
var (
	// LMTBackends is the backend registry (Lookup, All, Names), in
	// paper-table order.
	LMTBackends = core.Backends
	// LMTSpecs is the preset registry (every backend x variant), in
	// paper-table order.
	LMTSpecs = core.Presets
	// ParseLMT resolves a preset name (e.g. "knem-ioat-auto", "cma")
	// into options.
	ParseLMT = core.ParseSpec
)

// NewStack builds a simulated node on machine m with one MPI rank pinned to
// each listed core.
func NewStack(m *Machine, cores []CoreID, opt LMTOptions, cfg ChannelConfig) *Stack {
	return core.NewStack(m, cores, opt, cfg)
}

// StandardLMTOptions returns the four configurations of the paper's tables
// (default, vmsplice, KNEM kernel copy, KNEM + auto I/OAT).
func StandardLMTOptions() []LMTOptions { return core.StandardOptions() }

// Experiment registry types: every paper artefact is a registered
// Experiment run against an Env, and RunExperiment is the one way to run
// one (cmd/knemsim and knemd's experiment jobs call the same function).
type (
	// Experiment is one entry of the paper-artefact registry.
	Experiment = experiments.Experiment
	// ExperimentEnv is the declarative input an experiment runs against.
	ExperimentEnv = experiments.Env
	// ExperimentResult is a runnable experiment's rendered artefact.
	ExperimentResult = experiments.Result
)

// Experiments.
var (
	// Experiments is the experiment registry (Lookup, All, Names).
	Experiments = experiments.Experiments
	// RunExperiment runs a registered experiment (Figs. 3-7, Tables 1-2,
	// the §3.5 thresholds study, ...) against an Env; its Result renders
	// as text and returns the artefact files.
	RunExperiment = experiments.Run
	// DefaultExperimentEnv is the paper's full-scale setup on a machine.
	DefaultExperimentEnv = experiments.DefaultEnv

	// NASKernels lists the Table 1 proxy suite.
	NASKernels = nas.Kernels
)

// RT is the real goroutine runtime (non-simulated). The engine-neutral way
// to use it is NewJob("rt", ...); these re-exports remain for direct use.
type (
	// RTWorld is a job of concurrently running rank goroutines.
	RTWorld = rt.World
	// RTRank is one rank's handle.
	RTRank = rt.Rank
	// RTConfig tunes thresholds and the large-message strategy. Its zero
	// value is the single-copy rendezvous (Large == RTSingleCopy).
	RTConfig = rt.Config
)

// RT large-message strategies.
const (
	RTEager      = rt.Eager
	RTSingleCopy = rt.SingleCopy
	RTOffload    = rt.Offload
)

// RT mode helpers (the rt engine's -rtmode values).
var (
	RTModeNames = rt.ModeNames
	ParseRTMode = rt.ParseMode
)

// NewRTWorld creates a real runtime of n rank goroutines.
func NewRTWorld(n int, cfg RTConfig) *RTWorld { return rt.NewWorld(n, cfg) }
