package comm

import "context"

// WithContext lifts a Job's context form into its plain Run: every
// j.Run(app) on the returned job executes as RunCtx(ctx, app), which is
// how context-free drivers (the IMB sweeps, experiment loops) become
// preemptible without changing their signatures.
func WithContext(ctx context.Context, j Job) Job { return ctxJob{Job: j, ctx: ctx} }

type ctxJob struct {
	Job
	ctx context.Context
}

func (c ctxJob) Run(app func(p Peer)) error { return c.Job.RunCtx(c.ctx, app) }
