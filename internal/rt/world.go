package rt

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"knemesis/internal/topo"
)

// LargeMode selects the large-message strategy, mirroring the paper's LMT
// choices in Go-native form. The zero value is SingleCopy, so a zero Config
// moves a large message once.
type LargeMode int

const (
	// SingleCopy performs rendezvous: the receiver (helped by the waiting
	// sender) copies straight from the sender's buffer in chunks — what
	// KNEM/vmsplice achieve via the kernel.
	SingleCopy LargeMode = iota
	// Eager forces every message through the two-copy cell path (the
	// baseline double-buffering analogue); oversized messages are
	// pipelined through cell-sized segments.
	Eager
	// Offload performs rendezvous with the chunked copy executed by
	// copy goroutines the receiver starts at CTS, freeing it to overlap —
	// the asynchronous KNEM analogue.
	Offload
)

// String names the mode.
func (m LargeMode) String() string {
	switch m {
	case Eager:
		return "eager"
	case SingleCopy:
		return "single-copy"
	case Offload:
		return "offload"
	default:
		return fmt.Sprintf("LargeMode(%d)", int(m))
	}
}

// Config tunes a World.
type Config struct {
	// RndvThreshold is the eager/rendezvous switch (default 64 KiB).
	// The eager cells grow with it: they are max(64 KiB, RndvThreshold).
	RndvThreshold int
	// Large selects the rendezvous strategy; the zero value is
	// SingleCopy.
	Large LargeMode
	// NodeOf maps each rank to its cluster node (nil or empty = one
	// node). Cross-node pairs model a network path: the per-pair
	// fastboxes and the single-copy rendezvous are shared-memory fast
	// paths, so those messages skip the fastbox and travel the streamed
	// eager cell path (a copy at each end), mirroring a NIC's
	// send/receive buffers.
	NodeOf []int

	// RecvDelay, when set, is slept (cancellably) before each posted
	// receive reaches the matching machinery — the delayed-receiver
	// perturbation hook. op counts the rank's posted receives, so the
	// delay schedule is a pure function of (rank, op).
	RecvDelay func(rank int, op uint64) time.Duration
	// CrossDelay, when set, adds wall-clock latency to every cross-node
	// send of the given size — the link perturbation hooks (degraded,
	// jittery and flapping links).
	CrossDelay func(bytes int) time.Duration
}

// defaultCellBytes is the smallest eager copy cell, and so the default
// rendezvous threshold.
const defaultCellBytes = 64 * 1024

// World is one job of n ranks.
type World struct {
	cfg   Config
	ranks []*Rank
	start time.Time // wall-clock base for the engine-neutral Clock

	// Derived by NewWorld from the threshold and the host, not configured.
	cellBytes  int  // eager cell capacity: max(64 KiB, RndvThreshold)
	copiers    int  // offload copy goroutines per rendezvous: max(1, NumCPU/4)
	senderCopy bool // a waiting rendezvous sender claims chunks: GOMAXPROCS > 1
	spinMin    int  // a larger rendezvous send spins for CTS: the host's DMAmin

	// copyWG counts running offload copy goroutines. Each Add happens on
	// a rank goroutine before it returns, so before RunCtx's Wait.
	copyWG sync.WaitGroup

	// Cancellation: Cancel closes cancelc; ranks observe it at their
	// parking and spin points and unwind via cancelPanic.
	cancelc   chan struct{}
	cancelled atomic.Bool

	// Stats (per-rank, folded at join; read after Run returns).
	EagerMsgs   atomic.Int64
	RndvMsgs    atomic.Int64
	FastboxMsgs atomic.Int64 // eager messages that took a fastbox
	NetMsgs     atomic.Int64 // messages between ranks on different nodes
	BytesMoved  atomic.Int64
}

// hostDMAMin is the paper's §3.5 threshold for this host, DMAmin = L2 /
// (2 x CPUs sharing it), read from sysfs once per process; math.MaxInt
// when sysfs does not describe an L2.
var hostDMAMin = sync.OnceValue(func() int {
	size, sharers, ok := topo.ReadL2(os.DirFS("/sys/devices/system/cpu"))
	if !ok {
		return math.MaxInt
	}
	return int(topo.DMAMinOf(size, sharers))
})

// MaxRanks is the largest world a caller should build from input it does
// not control (knemd refuses rt specs above it): every rank holds one
// fastbox per peer, so a world of n ranks holds n² of them, ≈ 71 MB at 256
// ranks and ≈ 17 GiB at 4 096.
const MaxRanks = 256

// MaxRndvThreshold is the largest RndvThreshold a caller should take from
// input it does not control (knemd refuses rt specs above it): every eager
// message above the fastbox takes a cell of max(64 KiB, RndvThreshold)
// bytes, so a 1 TiB threshold allocates 1 TiB on its first 64 KiB send.
// 4 MiB is the paper's largest message.
const MaxRndvThreshold = 4 << 20

// NewWorld creates a world of n ranks. It derives the cell size from the
// threshold, so an eager message of any threshold fits one cell; the
// offload copy width from the core count; the sender's rendezvous copy from
// GOMAXPROCS, because on a single P a helping sender only steals the
// processor from the receiver doing the copy; and spinMin, the size above
// which a rendezvous sender spins for CTS instead of parking, from the
// host's DMAmin. The spin needs the sender copy on and a P for every rank:
// with fewer Ps than ranks a spinner takes the P another rank would run on.
func NewWorld(n int, cfg Config) *World {
	if n <= 0 {
		panic("rt: world needs at least one rank")
	}
	if len(cfg.NodeOf) > 0 && len(cfg.NodeOf) != n {
		panic(fmt.Sprintf("rt: NodeOf has %d entries for %d ranks", len(cfg.NodeOf), n))
	}
	if cfg.RndvThreshold == 0 {
		cfg.RndvThreshold = defaultCellBytes
	}
	w := &World{cfg: cfg,
		cancelc: make(chan struct{}), start: time.Now(),
		cellBytes:  max(defaultCellBytes, cfg.RndvThreshold),
		copiers:    max(1, runtime.NumCPU()/4),
		senderCopy: runtime.GOMAXPROCS(0) > 1,
		spinMin:    math.MaxInt,
	}
	if w.senderCopy && n <= runtime.GOMAXPROCS(0) {
		w.spinMin = hostDMAMin()
	}
	for r := 0; r < n; r++ {
		w.ranks = append(w.ranks, newRank(w, r, n))
	}
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.ranks) }

// NodeOf returns the cluster node hosting a rank (0 without a placement).
func (w *World) NodeOf(rank int) int {
	if len(w.cfg.NodeOf) == 0 {
		return 0
	}
	return w.cfg.NodeOf[rank]
}

// crossNode reports whether two ranks live on different nodes.
func (w *World) crossNode(a, b int) bool { return w.NodeOf(a) != w.NodeOf(b) }

// cancelPanic unwinds a cancelled rank's stack: the parking and spinning
// points panic it when the world is cancelled, and RunCtx's per-rank
// recover swallows exactly this type (anything else is a real failure).
type cancelPanic struct{}

// Cancel cuts the run: every parked rank wakes into a cancelPanic, every
// spinning rank observes the flag on its next pass, and the whole world
// unwinds without completing outstanding operations. Idempotent and safe
// from any goroutine.
func (w *World) Cancel() {
	if w.cancelled.CompareAndSwap(false, true) {
		close(w.cancelc)
	}
}

// Run executes app on every rank concurrently and waits for all of them
// and for every copy goroutine they started. It returns the first panic
// as an error.
func (w *World) Run(app func(r *Rank)) error {
	return w.RunCtx(context.Background(), app)
}

// RunCtx is Run under a context: when ctx is cancelled (or its deadline
// passes) the world snapshots its per-rank state, cancels the run, and
// returns an error wrapping ctx's error plus that state dump. A rank
// panicking for any other reason also cancels its peers, so one crashed
// rank unwinds the whole job instead of deadlocking it. A run that
// completes before cancellation returns exactly as Run. Either way every
// goroutine the run started has exited and the world's pooled envelopes
// are reclaimed on return.
func (w *World) RunCtx(ctx context.Context, app func(r *Rank)) error {
	var dumpMu sync.Mutex
	var dump string
	unhook := context.AfterFunc(ctx, func() {
		d := w.StateDump()
		dumpMu.Lock()
		dump = d
		dumpMu.Unlock()
		w.Cancel()
	})
	var wg sync.WaitGroup
	panics := make(chan any, len(w.ranks))
	for _, r := range w.ranks {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					if _, ok := p.(cancelPanic); ok {
						return
					}
					panics <- fmt.Sprintf("rank %d: %v", r.rank, p)
					w.Cancel()
				}
			}()
			app(r)
		}()
	}
	wg.Wait()
	unhook()
	w.copyWG.Wait()
	w.reclaim()
	w.foldStats()
	select {
	case p := <-panics:
		return fmt.Errorf("rt: %v", p)
	default:
	}
	if err := ctx.Err(); err != nil {
		// The AfterFunc callback may still be in flight; fall back to a
		// fresh (post-join, quiesced) dump if it has not stored one yet.
		dumpMu.Lock()
		d := dump
		dumpMu.Unlock()
		if d == "" {
			d = w.StateDump()
		}
		return fmt.Errorf("rt: job cancelled: %w\n%s", err, d)
	}
	return nil
}

// reclaim returns every in-flight envelope to its home pool after the
// ranks have joined: queued arrivals a cancelled receiver never drained
// and unexpected messages nobody matched. Single-threaded — callers hold
// the post-join happens-before edge.
func (w *World) reclaim() {
	for _, r := range w.ranks {
		for m := r.q.Pop(); m != nil; m = r.q.Pop() {
			release(m)
		}
		for m := r.unexp.ghead; m != nil; {
			next := m.gnext
			release(m)
			m = next
		}
		r.unexp = unexpQ{exact: make(map[uint64]*msgBucket)}
		r.posted = postQ{exact: make(map[uint64]*postBucket)}
		r.unexpN.Store(0)
		r.postedN.Store(0)
	}
}

// foldStats adds every rank's message counters into the World's stats and
// zeroes them, so each message is counted once however the run ended.
// Single-threaded, like reclaim.
func (w *World) foldStats() {
	for _, r := range w.ranks {
		w.EagerMsgs.Add(r.eagerMsgs)
		w.FastboxMsgs.Add(r.fastboxMsgs)
		w.NetMsgs.Add(r.netMsgs)
		w.RndvMsgs.Add(r.rndvMsgs)
		w.BytesMoved.Add(r.bytesMoved)
		r.eagerMsgs, r.fastboxMsgs, r.netMsgs, r.rndvMsgs, r.bytesMoved = 0, 0, 0, 0, 0
	}
}

// EnvelopeAudit counts every envelope ever minted against every envelope
// sitting in a free pool. Call after Run/RunCtx returns: a quiesced world
// — completed or cancelled — has minted == pooled, the "no leaked pooled
// state" shutdown-hygiene invariant.
func (w *World) EnvelopeAudit() (minted, pooled int) {
	for _, r := range w.ranks {
		minted += r.minted
		var held []*message
		for m := r.freeq.Pop(); m != nil; m = r.freeq.Pop() {
			held = append(held, m)
		}
		pooled += len(held)
		for _, m := range held {
			r.freeq.Push(m)
		}
	}
	return minted, pooled
}

// Park reasons (Rank.parkReason): why a rank's goroutine last went to
// sleep, for watchdog state dumps. Reads are racy by design — the dump is
// a diagnostic snapshot of a possibly-live world.
const (
	parkNone int32 = iota // running (or never parked)
	parkSendWait
	parkRecvWait
	parkRndvWait
)

func parkReasonName(r int32) string {
	switch r {
	case parkNone:
		return "running"
	case parkSendWait:
		return "parked (send wait)"
	case parkRecvWait:
		return "parked (recv wait)"
	case parkRndvWait:
		return "parked (rendezvous wait)"
	default:
		return fmt.Sprintf("parked (reason %d)", r)
	}
}

// StateDump renders a human-readable per-rank snapshot — posted and
// unexpected queue depths, park reasons — safe to call from any goroutine
// while the world runs (it reads only atomics).
func (w *World) StateDump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "rt world: %d ranks, cancelled=%v\n", len(w.ranks), w.cancelled.Load())
	for _, r := range w.ranks {
		fmt.Fprintf(&b, "  rank %d: posted=%d unexpected=%d %s\n",
			r.rank, r.postedN.Load(), r.unexpN.Load(), parkReasonName(r.parkReason.Load()))
	}
	return strings.TrimRight(b.String(), "\n")
}

// Rank returns rank r's handle (for use by that rank's goroutine only).
func (w *World) Rank(r int) *Rank { return w.ranks[r] }
