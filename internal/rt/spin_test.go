package rt

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// The CTS spin: a rendezvous sender above spinMin yields until the
// receiver's clear-to-send instead of parking. The conformance suite's
// rendezvous messages are 64 KiB, far below any host's DMAmin, so these
// worlds set spinMin to 0 and every rendezvous send takes the spin.
func TestLargeSenderSpinsForCTS(t *testing.T) {
	spinWorld := func(n int) *World {
		w := NewWorld(n, Config{})
		w.spinMin = 0
		return w
	}
	run := func(t *testing.T, w *World, app func(r *Rank)) {
		t.Helper()
		if err := w.Run(app); err != nil {
			t.Fatal(err)
		}
		auditQuiesced(t, w)
	}
	chunk := defaultCellBytes * rvChunkCells

	for _, n := range []int{chunk, 4 * chunk, 2*chunk + 4097} {
		t.Run(fmt.Sprintf("pingpong-%dB", n), func(t *testing.T) {
			const rounds = 3
			w := spinWorld(2)
			run(t, w, func(r *Rank) {
				buf := make([]byte, n)
				for i := 0; i < rounds; i++ {
					if r.ID() == 0 {
						r.Send(1, i, pattern(2*i, n))
						r.Recv(1, i, buf)
						if !bytes.Equal(buf, pattern(2*i+1, n)) {
							t.Errorf("round %d: echo corrupted", i)
						}
					} else {
						r.Recv(0, i, buf)
						if !bytes.Equal(buf, pattern(2*i, n)) {
							t.Errorf("round %d: ping corrupted", i)
						}
						r.Send(0, i, pattern(2*i+1, n))
					}
				}
			})
			if got := w.RndvMsgs.Load(); got != 2*rounds {
				t.Errorf("RndvMsgs = %d, want %d", got, 2*rounds)
			}
		})
	}

	// Several sends outstanding at once, received in the reverse order
	// and waited on in yet another: the sender spins on a request whose
	// CTS comes after the others'.
	t.Run("out-of-order-waitall", func(t *testing.T) {
		sizes := []int{chunk, 3*chunk + 1, 4 * chunk, chunk + 100}
		w := spinWorld(2)
		run(t, w, func(r *Rank) {
			reqs := make([]*Request, len(sizes))
			bufs := make([][]byte, len(sizes))
			for i := range sizes {
				if r.ID() == 0 {
					reqs[i] = r.Isend(1, i, pattern(10+i, sizes[i]))
				} else {
					j := len(sizes) - 1 - i
					bufs[j] = make([]byte, sizes[j])
					reqs[j] = r.Irecv(0, j, bufs[j])
				}
			}
			for _, i := range []int{0, 2, 3, 1} {
				r.Wait(reqs[i])
			}
			if r.ID() == 1 {
				for i, b := range bufs {
					if !bytes.Equal(b, pattern(10+i, sizes[i])) {
						t.Errorf("message %d corrupted", i)
					}
				}
			}
		})
	})

	t.Run("any-source", func(t *testing.T) {
		n := 2*chunk + 1
		w := spinWorld(3)
		run(t, w, func(r *Rank) {
			if r.ID() != 0 {
				r.Send(0, 7, pattern(r.ID(), n))
				return
			}
			seen := map[int]bool{}
			for i := 0; i < 2; i++ {
				buf := make([]byte, n)
				st := r.Recv(AnySource, 7, buf)
				if st.N != n || seen[st.Source] {
					t.Errorf("receive %d: status %+v", i, st)
				}
				seen[st.Source] = true
				if !bytes.Equal(buf, pattern(st.Source, n)) {
					t.Errorf("message from rank %d corrupted", st.Source)
				}
			}
		})
	})

	// A spinning sender whose receiver never posts the match: the
	// deadline must unwind it from its spin, with nothing leaked. The
	// dump shows it running, not parked.
	t.Run("cancelled", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		w := spinWorld(2)
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		err := w.RunCtx(ctx, func(r *Rank) {
			if r.ID() == 0 {
				r.Send(1, 1, make([]byte, 2*chunk))
			} else {
				r.Recv(0, 2, make([]byte, 16)) // never sent
			}
		})
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("cancelled run returned %v", err)
		}
		if !strings.Contains(err.Error(), "rank 0: posted=0 unexpected=0 running") {
			t.Errorf("dump does not show the sender spinning:\n%v", err)
		}
		auditQuiesced(t, w)
		waitGoroutines(t, baseline)
	})
}
