package rt

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"
)

// Shutdown hygiene: after a run — completed or cancelled — the world must
// be quiesced: no goroutine it started survives, and every pooled envelope
// ever minted is back in a free pool (EnvelopeAudit).

func auditQuiesced(t *testing.T, w *World) {
	t.Helper()
	minted, pooled := w.EnvelopeAudit()
	if minted != pooled {
		t.Errorf("envelope audit: %d minted, %d pooled (leak of %d)",
			minted, pooled, minted-pooled)
	}
}

func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not quiesce: %d now vs %d baseline",
				runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// A completed run leaves a quiesced world: envelopes pooled, goroutines
// retired. The traffic mix covers the fastbox, the cell path, streamed
// oversized eager messages and rendezvous.
func TestQuiesceAfterCompletedRun(t *testing.T) {
	for _, mode := range []LargeMode{Eager, SingleCopy, Offload} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			w := NewWorld(2, Config{Large: mode, RndvThreshold: 8 * 1024})
			err := w.Run(func(r *Rank) {
				for _, n := range []int{16, 4096, 64 * 1024, 256 * 1024} {
					buf := make([]byte, n)
					switch r.ID() {
					case 0:
						r.Send(1, 1, buf)
					case 1:
						r.Recv(0, 1, buf)
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			auditQuiesced(t, w)
			waitGoroutines(t, baseline)
		})
	}
}

// A cancelled run with a rank parked forever must unwind and still audit
// clean.
func TestQuiesceAfterCancelledRun(t *testing.T) {
	baseline := runtime.NumGoroutine()
	w := NewWorld(2, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	err := w.RunCtx(ctx, func(r *Rank) {
		if r.ID() == 0 {
			r.Recv(1, 7, make([]byte, 64)) // never sent
		}
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cancelled run returned %v", err)
	}
	auditQuiesced(t, w)
	waitGoroutines(t, baseline)
}

// A world owns no goroutine until it runs: NewWorld starts none in any
// mode, so a world that is never run needs no shutdown.
func TestNewWorldStartsNoGoroutines(t *testing.T) {
	for _, mode := range []LargeMode{Eager, SingleCopy, Offload} {
		before := runtime.NumGoroutine()
		NewWorld(2, Config{Large: mode})
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("%v: NewWorld started %d goroutines", mode, after-before)
		}
	}
}

// An Offload stream of multi-MiB messages cut by its deadline, most
// likely while its copy goroutines are copying: the cancelled ranks unwind,
// but RunCtx returns only after the copy goroutines have exited. The
// sender alternates two uniform buffers, so a copy still running, or one
// cut half way, would leave the receive buffer mixed; the race detector
// also flags a copy goroutine write that RunCtx's return does not order.
func TestCancelledOffloadWaitsForCopy(t *testing.T) {
	const n = 4 << 20
	src := [2][]byte{bytes.Repeat([]byte{1}, n), bytes.Repeat([]byte{2}, n)}
	dst := make([]byte, n)
	baseline := runtime.NumGoroutine()
	w := NewWorld(2, Config{Large: Offload})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	err := w.RunCtx(ctx, func(r *Rank) {
		for i := 0; ; i++ {
			if r.ID() == 0 {
				r.Send(1, 1, src[i%2])
			} else {
				r.Recv(0, 1, dst)
			}
		}
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cancelled run returned %v", err)
	}
	for off := 0; off < n; off += 4096 {
		if dst[off] != dst[0] {
			t.Fatalf("receive buffer mixed: byte %d is %d, byte 0 is %d", off, dst[off], dst[0])
		}
	}
	auditQuiesced(t, w)
	waitGoroutines(t, baseline)
}

// A cancelled run with undrained traffic — unexpected messages queued at a
// receiver that never posts, including an oversized stream — must reclaim
// every envelope.
func TestQuiesceReclaimsPendingUnexpected(t *testing.T) {
	baseline := runtime.NumGoroutine()
	w := NewWorld(2, Config{Large: Eager})
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	err := w.RunCtx(ctx, func(r *Rank) {
		switch r.ID() {
		case 0:
			// Small unexpected messages plus an oversized stream nobody
			// receives, then park forever.
			for i := 0; i < 8; i++ {
				r.Send(1, 3, make([]byte, 512))
			}
			r.Send(1, 4, make([]byte, 8*defaultCellBytes)) // streams through 8 cells
			r.Recv(1, 9, make([]byte, 16))                 // never sent: park
		case 1:
			// Sink one message so rank 1 has drained some arrivals into its
			// unexpected queue, then park without posting the rest.
			r.Recv(0, 3, make([]byte, 512))
			r.Recv(0, 9, make([]byte, 16)) // never sent: park
		}
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cancelled run returned %v", err)
	}
	auditQuiesced(t, w)
	waitGoroutines(t, baseline)
}

// StateDump names queue depths while ranks are parked: the watchdog's
// diagnostics must reflect the posted receive that is stuck.
func TestStateDumpShowsParkedState(t *testing.T) {
	w := NewWorld(2, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	err := w.RunCtx(ctx, func(r *Rank) {
		if r.ID() == 0 {
			r.Recv(1, 7, make([]byte, 64))
		}
	})
	if err == nil {
		t.Fatal("wedged run returned nil")
	}
	// The dump embedded in the error was taken while rank 0 was parked.
	msg := err.Error()
	for _, want := range []string{"rank 0", "posted=1", "recv wait"} {
		if !strings.Contains(msg, want) {
			t.Errorf("dump missing %q:\n%s", want, msg)
		}
	}
}
