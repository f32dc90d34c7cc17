package rt

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// BenchmarkMsgQueue measures the intrusive envelope queue in its real
// usage pattern: envelopes cycle between each producer's free pool and the
// consumer's receive queue, allocation-free.
func BenchmarkMsgQueue(b *testing.B) {
	for _, producers := range []int{1, 4} {
		b.Run(fmt.Sprintf("producers-%d", producers), func(b *testing.B) {
			const poolPer = 64
			q := &msgQueue{}
			q.init()
			pools := make([]*msgQueue, producers)
			for p := range pools {
				pools[p] = &msgQueue{}
				pools[p].init()
				for i := 0; i < poolPer; i++ {
					pools[p].Push(&message{src: p})
				}
			}
			var wg sync.WaitGroup
			per := b.N / producers
			if per == 0 {
				per = 1
			}
			b.ResetTimer()
			for p := 0; p < producers; p++ {
				p := p
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < per; i++ {
						m := pools[p].Pop()
						for m == nil {
							runtime.Gosched()
							m = pools[p].Pop()
						}
						q.Push(m)
					}
				}()
			}
			popped := 0
			for popped < per*producers {
				if m := q.Pop(); m != nil {
					pools[m.src].Push(m)
					popped++
				} else {
					runtime.Gosched()
				}
			}
			wg.Wait()
		})
	}
}

// BenchmarkRTMsgRate measures small-message rate at fastbox and envelope
// sizes: one op is a full ping-pong round trip (two messages), so the
// message rate is 2e9/(ns/op) msgs/s. The PR 5 fast path's headline: zero
// allocations, fastbox delivery and hashed matching on this path.
func BenchmarkRTMsgRate(b *testing.B) {
	for _, size := range []int{8, 64, 256, 1024, 4096} {
		size := size
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			w := NewWorld(2, Config{})
			buf0 := make([]byte, size)
			buf1 := make([]byte, size)
			var wg sync.WaitGroup
			wg.Add(2)
			b.ResetTimer()
			go func() {
				defer wg.Done()
				r := w.Rank(0)
				for i := 0; i < b.N; i++ {
					r.Send(1, 0, buf0)
					r.Recv(1, 0, buf0)
				}
			}()
			go func() {
				defer wg.Done()
				r := w.Rank(1)
				for i := 0; i < b.N; i++ {
					r.Recv(0, 0, buf1)
					r.Send(0, 0, buf1)
				}
			}()
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(2*float64(b.N)/b.Elapsed().Seconds(), "msgs/s")
		})
	}
}

// BenchmarkRTStreamBW measures large-message bandwidth per mode: a
// unidirectional stream of 4 MiB messages (MB/s is payload moved, once).
// Eager exercises the bounded cell pipeline, single-copy the chunked
// dual-copy rendezvous, offload the per-transfer copy goroutines.
func BenchmarkRTStreamBW(b *testing.B) {
	const size = 4 << 20
	for _, mode := range []LargeMode{Eager, SingleCopy, Offload} {
		mode := mode
		b.Run(mode.String(), func(b *testing.B) {
			w := NewWorld(2, Config{Large: mode})
			buf0 := make([]byte, size)
			buf1 := make([]byte, size)
			var wg sync.WaitGroup
			wg.Add(2)
			b.SetBytes(size)
			b.ResetTimer()
			go func() {
				defer wg.Done()
				r := w.Rank(0)
				for i := 0; i < b.N; i++ {
					r.Send(1, 0, buf0)
				}
				r.Recv(1, 1, nil)
			}()
			go func() {
				defer wg.Done()
				r := w.Rank(1)
				for i := 0; i < b.N; i++ {
					r.Recv(0, 0, buf1)
				}
				r.Send(0, 1, nil)
			}()
			wg.Wait()
		})
	}
}

// BenchmarkRTPingPong measures real goroutine ping-pong round trips per
// strategy at sizes either side of the paper's §3.5 threshold: the
// Go-native analogue of Figures 4/5. On a host whose DMAmin is 1 MiB (2 MiB
// L2 per core) the 256 KiB to 1 MiB rows take the parked-sender path and
// the 2 and 4 MiB rows the CTS spin; the single-copy rows are DESIGN §6's
// per-size table, and offload against single-copy is the crossover the
// simulator's threshold predicts.
func BenchmarkRTPingPong(b *testing.B) {
	sizes := []int{256 << 10, 512 << 10, 1 << 20, 2 << 20, 4 << 20}
	for _, mode := range []LargeMode{Eager, SingleCopy, Offload} {
		for _, size := range sizes {
			mode, size := mode, size
			b.Run(fmt.Sprintf("%s/%d", mode, size), func(b *testing.B) {
				w := NewWorld(2, Config{Large: mode})
				buf0 := make([]byte, size)
				buf1 := make([]byte, size)
				var wg sync.WaitGroup
				wg.Add(2)
				b.SetBytes(int64(size))
				b.ResetTimer()
				go func() {
					defer wg.Done()
					r := w.Rank(0)
					for i := 0; i < b.N; i++ {
						r.Send(1, 0, buf0)
						r.Recv(1, 0, buf0)
					}
				}()
				go func() {
					defer wg.Done()
					r := w.Rank(1)
					for i := 0; i < b.N; i++ {
						r.Recv(0, 0, buf1)
						r.Send(0, 0, buf1)
					}
				}()
				wg.Wait()
			})
		}
	}
}

// BenchmarkRTAlltoall measures the collective under each strategy.
func BenchmarkRTAlltoall(b *testing.B) {
	const n = 4
	const block = 256 * 1024
	for _, mode := range []LargeMode{Eager, SingleCopy, Offload} {
		mode := mode
		b.Run(mode.String(), func(b *testing.B) {
			w := NewWorld(n, Config{Large: mode})
			b.SetBytes(int64(n * (n - 1) * block))
			var wg sync.WaitGroup
			b.ResetTimer()
			for rank := 0; rank < n; rank++ {
				rank := rank
				wg.Add(1)
				go func() {
					defer wg.Done()
					r := w.Rank(rank)
					send := make([]byte, n*block)
					recv := make([]byte, n*block)
					for i := 0; i < b.N; i++ {
						alltoall(r, send, recv, block)
					}
				}()
			}
			wg.Wait()
		})
	}
}
