package rt

import (
	"context"
	"fmt"
	"time"

	"knemesis/internal/comm"
	"knemesis/internal/perturb"
)

// The "rt" engine: the real goroutine runtime exposed through the
// engine-neutral comm interface. Buffers are ordinary byte slices, time is
// the wall clock, and the collectives are the generic comm algorithms —
// the engine-specific parallel implementations this package used to carry
// were deleted in favour of them.

func init() {
	comm.Engines.Register(comm.Engine{
		Name:  "rt",
		Help:  "real goroutine runtime (wall-clock time, native single-copy rendezvous)",
		Order: 2,
		NewJob: func(spec comm.JobSpec) (comm.Job, error) {
			mode, err := ParseMode(spec.RTMode)
			if err != nil {
				return nil, err
			}
			cfg := Config{Large: mode, RndvThreshold: int(spec.EagerMax)}
			pl, err := spec.Place(spec.Ranks)
			if err != nil {
				return nil, err
			}
			if pl != nil {
				cfg.NodeOf = pl.NodeOf
			}
			var plan *perturb.RTPlan
			if len(spec.Perturbations) > 0 {
				plan, err = perturb.NewRTPlan(spec.Perturbations, spec.Seed, spec.Ranks)
				if err != nil {
					return nil, err
				}
				cfg.RecvDelay = plan.RecvDelayHook()
				cfg.CrossDelay = plan.CrossDelayHook()
			}
			j := &rtJob{w: NewWorld(spec.Ranks, cfg), plan: plan}
			j.hier = pl != nil && pl.MultiNode() && !spec.FlatCollectives
			return j, nil
		},
	})
}

// ModeNames lists the large-message strategies in the CLIs' -rtmode order,
// two copies before one before offloaded (not the constants' order, which
// puts the SingleCopy default first).
func ModeNames() []string { return []string{"eager", "single-copy", "offload"} }

// ParseMode resolves a strategy name ("" selects SingleCopy, the zero
// LargeMode).
func ParseMode(name string) (LargeMode, error) {
	switch name {
	case "", SingleCopy.String():
		return SingleCopy, nil
	case Eager.String():
		return Eager, nil
	case Offload.String():
		return Offload, nil
	default:
		return 0, fmt.Errorf("rt: unknown mode %q (have eager|single-copy|offload)", name)
	}
}

// rtJob adapts a World to the engine-neutral Job interface.
type rtJob struct {
	w    *World
	hier bool            // wrap peers with the hierarchical collectives
	plan *perturb.RTPlan // wall-clock injection plan (nil unperturbed)
}

// NewJob wraps a world as an engine-neutral job. Like the world's own Run,
// its Run returns once every goroutine the run started has exited.
func NewJob(w *World) comm.Job { return &rtJob{w: w} }

// World exposes the underlying runtime world (the hook tests and
// experiments use to read the path statistics after Run).
func (j *rtJob) World() *World { return j.w }

func (j *rtJob) Size() int     { return j.w.Size() }
func (j *rtJob) Label() string { return j.w.cfg.Large.String() }

func (j *rtJob) Run(app func(p comm.Peer)) error {
	return j.RunCtx(context.Background(), app)
}

// RunCtx runs the job under a context: the perturbation injectors (if
// any) run for exactly the span of the ranks, and cancellation cuts the
// world (see World.RunCtx).
func (j *rtJob) RunCtx(ctx context.Context, app func(p comm.Peer)) error {
	if j.plan != nil {
		stop := j.plan.Start()
		defer stop()
	}
	return j.w.RunCtx(ctx, func(r *Rank) {
		var p comm.Peer = r.peer()
		if j.hier {
			p = comm.WrapHier(p)
		}
		app(p)
	})
}

// Usage reports wall-clock elapsed time only: the real runtime has no
// hardware model to attribute bus or per-core figures to.
func (j *rtJob) Usage() comm.Usage { return comm.Usage{Elapsed: j.w.elapsed()} }

func (j *rtJob) MissLines() int64 { return 0 }

// elapsed returns wall time since the world was created. Measurement
// windows difference two readings, so the base is immaterial.
func (w *World) elapsed() comm.Time { return comm.FromDuration(time.Since(w.start)) }

// byteBuf is the rt buffer handle: a plain slice.
type byteBuf []byte

func (b byteBuf) Len() int64    { return int64(len(b)) }
func (b byteBuf) Bytes() []byte { return b }

// rtBytes unwraps a Range to the slice the runtime moves (nil for a zero
// Range).
func rtBytes(r comm.Range) []byte {
	if r.Buf == nil {
		return nil
	}
	b, ok := r.Buf.(byteBuf)
	if !ok {
		panic(fmt.Sprintf("rt: buffer of type %T belongs to a different engine", r.Buf))
	}
	return b[r.Off : r.Off+r.Len]
}

// rtPeer adapts one Rank to the engine-neutral Peer.
type rtPeer struct {
	r *Rank
}

// peer returns the rank's engine-neutral handle.
func (r *Rank) peer() *rtPeer { return &rtPeer{r: r} }

func (p *rtPeer) Rank() int                   { return p.r.rank }
func (p *rtPeer) Size() int                   { return p.r.Size() }
func (p *rtPeer) NodeOf(rank int) int         { return p.r.w.NodeOf(rank) }
func (p *rtPeer) Elapsed() comm.Time          { return p.r.w.elapsed() }
func (p *rtPeer) Alloc(n int64) comm.Buf      { return byteBuf(make([]byte, n)) }
func (p *rtPeer) AllocBench(n int64) comm.Buf { return byteBuf(make([]byte, n)) }

// CopyLocal is a plain in-memory copy (no hardware model to charge).
func (p *rtPeer) CopyLocal(dst, src comm.Range) {
	if dst.Len != src.Len {
		panic(fmt.Sprintf("rt: CopyLocal length mismatch %d != %d", dst.Len, src.Len))
	}
	copy(rtBytes(dst), rtBytes(src))
}

func (p *rtPeer) Send(dst, tag int, r comm.Range) { p.r.Send(dst, tag, rtBytes(r)) }

func (p *rtPeer) Recv(src, tag int, r comm.Range) comm.Status {
	return status(p.r.Recv(src, tag, rtBytes(r)))
}

// rtReq wraps a runtime request for the neutral interface. Requests are
// pooled and recycled at Wait, so the wrapper snapshots the generation it
// was issued against: a generation mismatch means the request completed,
// was waited and has since been reused for another operation.
type rtReq struct {
	r   *Request
	gen uint32
	st  Status
}

func (q *rtReq) Done() bool {
	if q.r.gen != q.gen {
		return true // retired by Wait: it completed
	}
	return q.r.Done()
}

func (p *rtPeer) Isend(dst, tag int, r comm.Range) comm.Request {
	q := p.r.Isend(dst, tag, rtBytes(r))
	return &rtReq{r: q, gen: q.gen}
}

func (p *rtPeer) Irecv(src, tag int, r comm.Range) comm.Request {
	q := p.r.Irecv(src, tag, rtBytes(r))
	return &rtReq{r: q, gen: q.gen}
}

func (p *rtPeer) Wait(req comm.Request) comm.Status {
	rr, ok := req.(*rtReq)
	if !ok {
		panic(fmt.Sprintf("rt: waiting on a %T request from a different engine", req))
	}
	if rr.r.gen != rr.gen {
		return status(rr.st) // already waited; report the recorded status
	}
	rr.st = p.r.Wait(rr.r)
	return status(rr.st)
}

func (p *rtPeer) Waitall(reqs ...comm.Request) {
	for _, r := range reqs {
		p.Wait(r)
	}
}

func (p *rtPeer) Sendrecv(dst, sendTag int, s comm.Range, src, recvTag int, rv comm.Range) comm.Status {
	return status(p.r.Sendrecv(dst, sendTag, rtBytes(s), src, recvTag, rtBytes(rv)))
}

func status(st Status) comm.Status {
	return comm.Status{Source: st.Source, Tag: st.Tag, Bytes: int64(st.N)}
}

// Collectives: the generic comm algorithms, sequenced by the rank's tag
// counter.

func (p *rtPeer) Barrier() { comm.GenericBarrier(p, &p.r.collSeq) }

func (p *rtPeer) Bcast(root int, r comm.Range) { comm.GenericBcast(p, &p.r.collSeq, root, r) }

func (p *rtPeer) Allreduce(r comm.Range, op comm.ReduceOp) {
	comm.GenericAllreduce(p, &p.r.collSeq, r, op)
}

func (p *rtPeer) Alltoall(send, recv comm.Buf, block int64) {
	comm.GenericAlltoall(p, &p.r.collSeq, send, recv, block)
}

func (p *rtPeer) Alltoallv(send comm.Buf, sendCounts, sendDispls []int64,
	recv comm.Buf, recvCounts, recvDispls []int64) {
	comm.GenericAlltoallv(p, &p.r.collSeq, send, sendCounts, sendDispls,
		recv, recvCounts, recvDispls)
}

// Compute is a no-op: the proxy kernels' computation is modelled, and the
// real runtime has nothing to model it on.
func (p *rtPeer) Compute(base comm.Time, ws ...comm.Range) {}
