package comm_test

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"knemesis/internal/comm"
	"knemesis/internal/rt"

	_ "knemesis/internal/mpi"
)

// Cancellable jobs: RunCtx must cut a wedged run on both engines — parked
// rt ranks woken and unwound, the sim stopped at a cut event and its
// processes force-terminated — returning an errors.Is-able context error
// that carries the per-rank state dump.

// cancelDeadline bounds how long a cancelled run may take to unwind. The
// context deadline inside each test is far shorter; the margin is for
// scheduler noise under -race.
const cancelDeadline = 30 * time.Second

// runWithDeadline runs app on the job under a wall-clock deadline: on
// timeout the error satisfies errors.Is(err, context.DeadlineExceeded) and
// carries the engine's per-rank state dump, so a hung case fails fast with
// diagnostics instead of stalling the suite.
func runWithDeadline(job comm.Job, d time.Duration, app func(c comm.Peer)) error {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	return job.RunCtx(ctx, app)
}

// runCancelled runs app under a short ctx deadline and asserts the job
// unwinds within cancelDeadline with a DeadlineExceeded error that carries
// a state dump.
func runCancelled(t *testing.T, job comm.Job, app func(c comm.Peer)) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- runWithDeadline(job, 100*time.Millisecond, app) }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("wedged job returned nil error")
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("error %v is not errors.Is(DeadlineExceeded)", err)
		}
		if !strings.Contains(err.Error(), "rank") {
			t.Errorf("cancellation error carries no per-rank state dump: %v", err)
		}
		return err
	case <-time.After(cancelDeadline):
		t.Fatal("cancelled job did not return within the unwind deadline")
		return nil
	}
}

// An rt rank blocked in a receive nobody will ever match must unwind on
// cancellation, and its dump must show the parked receive.
func TestCancelBlockedRecvRT(t *testing.T) {
	job, err := comm.NewJob("rt", comm.JobSpec{Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	cerr := runCancelled(t, job, func(c comm.Peer) {
		if c.Rank() == 0 {
			buf := c.Alloc(64)
			c.Recv(1, 5, comm.Whole(buf)) // rank 1 never sends
		}
		// Rank 1 returns immediately; rank 0 parks forever until cancelled.
	})
	if !strings.Contains(cerr.Error(), "recv wait") {
		t.Errorf("dump does not name the blocked receive: %v", cerr)
	}
}

// A sim process spinning in a Sleep loop forever must be cut mid-run and
// force-unwound (the engine's event loop is stopped, not starved).
func TestCancelRunawaySim(t *testing.T) {
	job, err := comm.NewJob("sim", comm.JobSpec{Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	runCancelled(t, job, func(c comm.Peer) {
		if c.Rank() == 0 {
			buf := c.Alloc(64)
			c.Recv(1, 5, comm.Whole(buf)) // never sent: simulated deadlock...
		}
		// ...except rank 1 keeps the event loop alive forever.
		for {
			c.Compute(comm.Time(1e9)) // 1ms of modeled time per pass, forever
		}
	})
}

// A run that completes before its deadline must return exactly as Run.
func TestRunCtxCompletesNormally(t *testing.T) {
	for _, engine := range realEngines {
		engine := engine
		t.Run(engine, func(t *testing.T) {
			job, err := comm.NewJob(engine, comm.JobSpec{Ranks: 2})
			if err != nil {
				t.Fatal(err)
			}
			if err := runWithDeadline(job, time.Minute, func(c comm.Peer) {
				buf := c.Alloc(1024)
				switch c.Rank() {
				case 0:
					c.Send(1, 3, comm.Whole(buf))
				case 1:
					c.Recv(0, 3, comm.Whole(buf))
				}
			}); err != nil {
				t.Fatalf("completed run returned %v", err)
			}
		})
	}
}

// An already-cancelled context must fail fast without starting ranks.
func TestRunCtxPreCancelled(t *testing.T) {
	for _, engine := range realEngines {
		engine := engine
		t.Run(engine, func(t *testing.T) {
			job, err := comm.NewJob(engine, comm.JobSpec{Ranks: 2})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			err = job.RunCtx(ctx, func(c comm.Peer) {})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("pre-cancelled run returned %v", err)
			}
		})
	}
}

// Goroutine quiescence: after a cancelled rt run returns, every goroutine
// the job started — ranks, offload copy goroutines, injectors — is gone.
// Counted with retries: the runtime needs a few scheduler passes to retire
// exiting goroutines.
func TestCancelQuiescenceRT(t *testing.T) {
	before := runtime.NumGoroutine()
	job, err := comm.NewJob("rt", comm.JobSpec{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	runCancelled(t, job, func(c comm.Peer) {
		if c.Rank() > 0 {
			return
		}
		buf := c.Alloc(64)
		c.Recv(1, 9, comm.Whole(buf)) // never sent
	})
	waitQuiesced(t, before)
}

// waitQuiesced polls until the goroutine count returns to the baseline
// (retrying: exiting goroutines retire asynchronously).
func waitQuiesced(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.Gosched()
		if runtime.NumGoroutine() <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not quiesce: %d now vs %d baseline",
				runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// The rt mode sweep under cancellation: a wedged job in every large-message
// mode unwinds cleanly.
func TestCancelAllRTModes(t *testing.T) {
	for _, mode := range rt.ModeNames() {
		mode := mode
		t.Run(mode, func(t *testing.T) {
			job, err := comm.NewJob("rt", comm.JobSpec{Ranks: 2, RTMode: mode})
			if err != nil {
				t.Fatal(err)
			}
			runCancelled(t, job, func(c comm.Peer) {
				if c.Rank() == 0 {
					buf := c.Alloc(256 * 1024)
					c.Recv(1, 5, comm.Whole(buf))
				}
			})
		})
	}
}
