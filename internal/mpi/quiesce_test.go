package mpi

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"knemesis/internal/comm"
	"knemesis/internal/perturb"
	"knemesis/internal/sim"
)

// Every rank and every perturbation daemon of a sim job is a goroutine of
// its own. However RunCtx leaves — completed, cancelled, cut by a deadline
// or with a rank's panic in flight — it must leave none of them behind: the
// daemon (knemd) runs thousands of jobs in one process.

func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not quiesce: %d now vs %d baseline", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// quiesceJob is a 4-rank sim job with background daemons (a noisy core and
// two bus streams) installed.
func quiesceJob(t *testing.T) comm.Job {
	t.Helper()
	job, err := comm.NewJob("sim", comm.JobSpec{
		Ranks: 4, Seed: 3,
		Perturbations: []perturb.Spec{
			perturb.MustParse("noisy-rank:rank=2,rate=200000"),
			perturb.MustParse("sat-bus:load=0.3,streams=2"),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return job
}

// ring passes a 32 KiB message once round the ranks.
func ring(c comm.Peer) {
	buf, rbuf := c.Alloc(32*1024), c.Alloc(32*1024)
	next, prev := (c.Rank()+1)%c.Size(), (c.Rank()+c.Size()-1)%c.Size()
	c.Sendrecv(next, 1, comm.Whole(buf), prev, 1, comm.Whole(rbuf))
}

// wedge completes a ring, then parks rank 0 in a receive nobody matches
// while the other ranks keep the event loop busy forever.
func wedge(c comm.Peer) {
	ring(c)
	if c.Rank() == 0 {
		c.Recv(1, 9, comm.Whole(c.Alloc(64)))
	}
	for {
		c.Compute(comm.Time(1e9))
	}
}

func TestRunCtxLeavesNoGoroutines(t *testing.T) {
	t.Run("completed", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		if err := quiesceJob(t).RunCtx(context.Background(), ring); err != nil {
			t.Fatal(err)
		}
		waitGoroutines(t, baseline)
	})
	t.Run("cancelled", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		time.AfterFunc(50*time.Millisecond, cancel)
		if err := quiesceJob(t).RunCtx(ctx, wedge); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled run returned %v", err)
		}
		waitGoroutines(t, baseline)
	})
	t.Run("deadline", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		err := quiesceJob(t).RunCtx(ctx, wedge)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("deadline-cut run returned %v", err)
		}
		waitGoroutines(t, baseline)
	})
	t.Run("rank panic", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		var pp *sim.ProcPanic
		func() {
			defer func() { pp, _ = recover().(*sim.ProcPanic) }()
			quiesceJob(t).RunCtx(context.Background(), func(c comm.Peer) {
				ring(c)
				if c.Rank() == 1 {
					panic("rank 1 detonated")
				}
				ring(c) // the others park here, waiting for rank 1
			})
		}()
		if pp == nil || pp.Value != "rank 1 detonated" || pp.Proc != "mpi-rank1" {
			t.Fatalf("RunCtx panicked with %+v, want rank 1's value", pp)
		}
		waitGoroutines(t, baseline)
	})
}
