// Package comm defines the engine-neutral communication API every workload
// in this repository is written against: the Peer interface (one rank's
// handle), the Job interface (one running communicator world), and the
// Engine registry that maps names ("sim", "rt") to job factories.
//
// Two engines implement it today — the deterministic discrete-event
// simulator (internal/mpi over internal/core) and the real goroutine
// runtime (internal/rt) — so every IMB driver and NAS proxy kernel is
// written once and runs on both, and a future engine (a networked backend,
// a different simulator) gains the whole workload suite by registering
// here. See DESIGN.md, "How to add an engine".
package comm

import (
	"context"
	"time"

	"knemesis/internal/hw"
	"knemesis/internal/sim"
)

// Time is the engine-neutral duration and timestamp type: the simulator's
// picosecond fixed-point Time. Simulated engines report simulated time in
// it; real engines report wall-clock time in it. The alias (rather than a
// new type) keeps the sim engine's arithmetic bit-identical to the
// pre-interface drivers.
type Time = sim.Time

// FromDuration converts a wall-clock duration to Time (real engines fill
// their Clock from this).
func FromDuration(d time.Duration) Time { return Time(d.Nanoseconds()) * sim.Nanosecond }

// Matching wildcards. Engines match on these values themselves; adapters
// pass them through untranslated.
const (
	// AnySource matches a message from any rank.
	AnySource = -1
	// AnyTag matches a message with any tag. (Deliberately not -1: the
	// collectives' internal tags are negative.)
	AnyTag = -1 << 31
)

// Buf is an engine-neutral buffer handle: a contiguous allocation owned by
// one rank. The simulator backs it with a simulated address range (content
// access to bench buffers panics there — see Job.Alloc vs AllocBench); the
// real runtime backs it with an ordinary byte slice.
type Buf interface {
	// Len returns the buffer length in bytes.
	Len() int64
	// Bytes returns the live backing bytes. Panics on content-free bench
	// buffers (AllocBench) under the simulator.
	Bytes() []byte
}

// Range is a contiguous view into a Buf — the unit every point-to-point
// operation moves. A zero Range (nil Buf) is a zero-byte message.
type Range struct {
	Buf Buf
	Off int64
	Len int64
}

// R builds a Range over [off, off+n) of b.
func R(b Buf, off, n int64) Range { return Range{Buf: b, Off: off, Len: n} }

// Whole wraps all of b as a Range.
func Whole(b Buf) Range { return Range{Buf: b, Off: 0, Len: b.Len()} }

// bytes returns the live backing slice of a range (nil for a zero Range).
// The collective algorithms use it only to combine reduction operands,
// which are real buffers on every engine; block moves go through
// Peer.CopyLocal so modelled engines charge them.
func (r Range) bytes() []byte {
	if r.Buf == nil || r.Len == 0 {
		return nil
	}
	return r.Buf.Bytes()[r.Off : r.Off+r.Len]
}

// Status describes a completed receive.
type Status struct {
	Source int
	Tag    int
	Bytes  int64
}

// Request is a nonblocking operation handle. Only the owning rank's Peer
// may Wait on it.
type Request interface {
	// Done reports completion without blocking (it may make one progress
	// pass on engines that need it).
	Done() bool
}

// Clock yields monotonic engine time: simulated time on the simulator,
// wall-clock time on real engines.
type Clock interface {
	// Elapsed returns the time since the job started.
	Elapsed() Time
}

// ReduceOp combines src into dst elementwise (len(dst) == len(src)).
type ReduceOp func(dst, src []byte)

// Peer is one rank's communication handle — the engine-neutral surface all
// workloads are written against. All methods must be called from the
// rank's own execution context (the function passed to Job.Run).
type Peer interface {
	Clock

	// Rank returns the calling rank; Size the job size.
	Rank() int
	Size() int

	// NodeOf returns the cluster node index hosting a rank: 0 for every
	// rank of a single-node job, the placement's node otherwise. The
	// hierarchical collectives group ranks by it.
	NodeOf(rank int) int

	// Alloc allocates rank-private, zero-initialized memory whose content
	// is real (Bytes works everywhere).
	Alloc(n int64) Buf
	// AllocBench allocates a content-free benchmark buffer: the simulator
	// models its addresses exactly but backs it with no storage (content
	// access panics); real engines return ordinary memory. Use it for
	// sweeps that never verify payload content.
	AllocBench(n int64) Buf

	// Point-to-point. Tags must be non-negative and below 1<<24; sources
	// and tags accept the package wildcards.
	Send(dst, tag int, r Range)
	Recv(src, tag int, r Range) Status
	Isend(dst, tag int, r Range) Request
	Irecv(src, tag int, r Range) Request
	Wait(req Request) Status
	Waitall(reqs ...Request)
	// Sendrecv runs the send and the receive concurrently: the building
	// block of pairwise exchanges, deadlock-free even when both sides
	// send first.
	Sendrecv(dst, sendTag int, s Range, src, recvTag int, rv Range) Status

	// CopyLocal moves bytes within the rank's own memory (dst.Len ==
	// src.Len). Engines with a memory model charge modelled copy cost and
	// accept bench buffers; real engines perform a plain copy.
	CopyLocal(dst, src Range)

	// Collectives. Every rank must invoke them in the same order.
	Barrier()
	Bcast(root int, r Range)
	Allreduce(r Range, op ReduceOp)
	Alltoall(send, recv Buf, block int64)
	Alltoallv(send Buf, sendCounts, sendDispls []int64,
		recv Buf, recvCounts, recvDispls []int64)

	// Compute models base seconds of application computation streaming
	// over the given working-set regions. The simulator charges modelled
	// CPU and cache time; real engines treat it as a no-op (the proxy
	// kernels' compute is modelled, not executed).
	Compute(base Time, ws ...Range)
}

// Usage is an engine-neutral machine-utilization snapshot: the simulator's
// hw.Utilization, with its Sub and TotalCoreBusySec. The simulator fills
// every field from its hardware model; engines without a hardware model
// fill Elapsed only and leave the rest zero.
type Usage = hw.Utilization

// Job is one communicator world ready to run a workload. A Job is
// single-use: build one per workload run (engines may tear down worker
// state when Run returns).
type Job interface {
	// Size returns the number of ranks.
	Size() int
	// Label names the job's transfer configuration for result rows
	// (the LMT label on the simulator, the large-message mode on rt).
	Label() string
	// Run executes app on every rank concurrently and waits for all of
	// them. It returns the first rank failure (deadlocks and panics
	// included). A simulator job runs once: its end releases the
	// machines' cache state, and a second Run returns an error.
	Run(app func(p Peer)) error
	// RunCtx is Run under a context: when ctx is cancelled (or its
	// deadline passes) the engine cuts the run — the simulator stops at a
	// cut event and force-unwinds its processes, the real runtime wakes
	// every parked rank and reclaims its pooled state — and the returned
	// error wraps ctx's error (errors.Is-able) plus a per-rank state dump.
	// A run that completes before cancellation returns exactly as Run.
	RunCtx(ctx context.Context, app func(p Peer)) error
	// Usage snapshots machine utilization. It may be called from inside
	// app (rank 0 windows a measurement) and after Run.
	Usage() Usage
	// MissLines returns machine-wide L2 cache misses in 64-byte-line
	// equivalents, or 0 on engines without a cache model.
	MissLines() int64
}
