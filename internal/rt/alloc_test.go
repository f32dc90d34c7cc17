package rt

import (
	"fmt"
	"testing"
)

// Steady-state eager ping-pong performs zero allocations per operation:
// envelopes are intrusive and pooled with their cells, requests are pooled
// per rank, fastboxes are preallocated, and the matching buckets persist.
// This is the property the PR 5 fast path exists for — the Go allocator is
// no longer on the message path, just as Nemesis keeps malloc out of its.
//
// Sizes cover both small-message paths: ≤ fastboxBytes rides the per-pair
// fastbox, larger eager sizes ride pooled envelopes through the shared
// queue (64 KiB is the largest default-eager payload).
func TestEagerPingPongZeroAlloc(t *testing.T) {
	for _, size := range []int{0, 64, 1024, 4096, 64 * 1024} {
		size := size
		t.Run(fmt.Sprintf("%dB", size), func(t *testing.T) {
			w := NewWorld(2, Config{Large: SingleCopy})
			start := make(chan struct{})
			done := make(chan struct{})
			go func() {
				r := w.Rank(0)
				buf := make([]byte, size)
				for range start {
					r.Send(1, 0, buf)
					r.Recv(1, 0, buf)
					done <- struct{}{}
				}
				r.Send(1, 1, nil) // sentinel: stop the echo rank
			}()
			go func() {
				r := w.Rank(1)
				buf := make([]byte, size)
				for {
					st := r.Recv(0, AnyTag, buf)
					if st.Tag == 1 {
						return
					}
					r.Send(0, 0, buf)
				}
			}()
			round := func() {
				start <- struct{}{}
				<-done
			}
			// Warm the pools: envelopes, cells, requests, match buckets
			// and goroutine stacks all reach steady state.
			for i := 0; i < 500; i++ {
				round()
			}
			avg := testing.AllocsPerRun(200, round)
			if avg != 0 {
				// One more settling pass defends against a stray
				// warmup-tail allocation; steady state must then be clean.
				for i := 0; i < 500; i++ {
					round()
				}
				avg = testing.AllocsPerRun(200, round)
			}
			if avg != 0 {
				t.Errorf("eager ping-pong at %d bytes allocates %.2f allocs/op, want 0", size, avg)
			}
			close(start)
		})
	}
}
