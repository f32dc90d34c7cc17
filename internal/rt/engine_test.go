package rt

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"testing"

	"knemesis/internal/comm"
)

// NewWorld's derivations at the boundaries: a zero threshold takes the
// 64 KiB default, the cells are max(64 KiB, threshold), an offload copy
// runs max(1, NumCPU/4) goroutines wide and the sender copy is on exactly
// when GOMAXPROCS > 1.
func TestConfigWithDefaults(t *testing.T) {
	const k64 = 64 * 1024
	cases := []struct {
		name       string
		in         Config
		wantThresh int
		wantCells  int
	}{
		{"all-zero", Config{}, k64, k64},
		{"threshold-below-cell", Config{RndvThreshold: 1024}, 1024, k64},
		{"threshold-at-cell", Config{RndvThreshold: k64}, k64, k64},
		{"threshold-above-64KiB-grows-cells", Config{RndvThreshold: 2 * k64}, 2 * k64, 2 * k64},
		{"negative-threshold-keeps-default-cells", Config{RndvThreshold: -1}, -1, k64},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := NewWorld(2, tc.in)
			if w.cfg.RndvThreshold != tc.wantThresh {
				t.Errorf("RndvThreshold = %d, want %d", w.cfg.RndvThreshold, tc.wantThresh)
			}
			if w.cellBytes != tc.wantCells {
				t.Errorf("cellBytes = %d, want %d", w.cellBytes, tc.wantCells)
			}
			if want := max(1, runtime.NumCPU()/4); w.copiers != want {
				t.Errorf("copiers = %d, want %d", w.copiers, want)
			}
			if want := runtime.GOMAXPROCS(0) > 1; w.senderCopy != want {
				t.Errorf("senderCopy = %v at GOMAXPROCS=%d", w.senderCopy, runtime.GOMAXPROCS(0))
			}
			wantSpin := math.MaxInt
			if runtime.GOMAXPROCS(0) > 1 { // each of the two ranks has a P
				wantSpin = hostDMAMin()
			}
			if w.spinMin != wantSpin {
				t.Errorf("spinMin = %d at GOMAXPROCS=%d, want %d", w.spinMin, runtime.GOMAXPROCS(0), wantSpin)
			}
		})
	}
	// The CTS spin needs a P per rank, and the sender copy it feeds: a
	// world with more ranks than Ps, or on one P, parks at every size.
	for _, c := range []struct{ ranks, procs, want int }{
		{2, 2, hostDMAMin()},
		{3, 3, hostDMAMin()},
		{3, 2, math.MaxInt},
		{3, 1, math.MaxInt},
		{1, 1, math.MaxInt},
	} {
		t.Run(fmt.Sprintf("spinMin-%d-ranks-%d-procs", c.ranks, c.procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(c.procs))
			w := NewWorld(c.ranks, Config{})
			if w.spinMin != c.want {
				t.Errorf("spinMin = %d, want %d", w.spinMin, c.want)
			}
		})
	}
}

// On a single P a helping rendezvous sender would only steal the processor
// from the receiver doing the copy, so a world built there leaves it off.
func TestSenderCopyOffOnOneP(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	w := NewWorld(2, Config{})
	if w.senderCopy {
		t.Error("a world built at GOMAXPROCS=1 has the sender copy on")
	}
}

// The threshold actually routes messages: a message of exactly the
// threshold stays eager, one byte more goes rendezvous.
func TestThresholdBoundaryRouting(t *testing.T) {
	const thresh = 4096
	w := NewWorld(2, Config{RndvThreshold: thresh, Large: SingleCopy})
	err := w.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 0, make([]byte, thresh))   // eager
			r.Send(1, 1, make([]byte, thresh+1)) // rendezvous
		} else {
			buf := make([]byte, thresh+1)
			r.Recv(0, 0, buf)
			r.Recv(0, 1, buf)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.EagerMsgs.Load() != 1 || w.RndvMsgs.Load() != 1 {
		t.Fatalf("eager=%d rndv=%d, want 1 and 1", w.EagerMsgs.Load(), w.RndvMsgs.Load())
	}
}

// An above-default JobSpec.EagerMax must actually route above-default
// messages eagerly: the world grows its cells with the threshold.
func TestEngineHonoursLargeEagerMax(t *testing.T) {
	job, err := comm.NewJob("rt", comm.JobSpec{Ranks: 2, RTMode: "single-copy", EagerMax: 256 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	w := job.(*rtJob).w
	err = job.Run(func(p comm.Peer) {
		buf := p.Alloc(128 * 1024)
		if p.Rank() == 0 {
			p.Send(1, 0, comm.Whole(buf))
		} else {
			p.Recv(0, 0, comm.Whole(buf))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.EagerMsgs.Load() != 1 || w.RndvMsgs.Load() != 0 {
		t.Fatalf("128KiB under EagerMax=256KiB: eager=%d rndv=%d, want 1 and 0",
			w.EagerMsgs.Load(), w.RndvMsgs.Load())
	}
}

// Alltoall edge cases through the deprecated wrapper (which exercises the
// generic comm algorithm): 1-rank worlds, zero-byte blocks, non-power-of-
// two rank counts, and undersized buffers.
func TestAlltoallEdgeCases(t *testing.T) {
	t.Run("one-rank-world", func(t *testing.T) {
		w := NewWorld(1, Config{})
		err := w.Run(func(r *Rank) {
			send := pattern(3, 4096)
			recv := make([]byte, 4096)
			alltoall(r, send, recv, 4096)
			if !bytes.Equal(recv, send) {
				t.Error("1-rank alltoall did not copy the local block")
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})

	t.Run("zero-byte-block", func(t *testing.T) {
		for _, n := range []int{1, 2, 5} {
			w := NewWorld(n, Config{})
			err := w.Run(func(r *Rank) {
				alltoall(r, nil, nil, 0) // must neither panic nor deadlock
			})
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
		}
	})

	t.Run("non-power-of-two-worlds", func(t *testing.T) {
		for _, n := range []int{3, 5, 6, 7} {
			for _, block := range []int{512, 96 * 1024} { // eager and rendezvous
				w := NewWorld(n, Config{Large: SingleCopy})
				err := w.Run(func(r *Rank) {
					send := make([]byte, n*block)
					recv := make([]byte, n*block)
					for d := 0; d < n; d++ {
						copy(send[d*block:], pattern(r.ID()*100+d, block))
					}
					alltoall(r, send, recv, block)
					for s := 0; s < n; s++ {
						if !bytes.Equal(recv[s*block:(s+1)*block], pattern(s*100+r.ID(), block)) {
							t.Errorf("n=%d block=%d rank %d: block from %d corrupted", n, block, r.ID(), s)
							return
						}
					}
				})
				if err != nil {
					t.Fatalf("n=%d block=%d: %v", n, block, err)
				}
			}
		}
	})

	t.Run("undersized-buffers-panic", func(t *testing.T) {
		w := NewWorld(2, Config{})
		err := w.Run(func(r *Rank) {
			defer func() {
				if recover() == nil {
					t.Error("undersized alltoall buffers did not panic")
				}
				// The peer rank never participates; nothing to unwind.
			}()
			alltoall(r, make([]byte, 10), make([]byte, 10), 1024)
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// ParseMode round-trips every registered name and rejects garbage.
func TestParseMode(t *testing.T) {
	for _, name := range ModeNames() {
		mode, err := ParseMode(name)
		if err != nil {
			t.Fatalf("ParseMode(%q): %v", name, err)
		}
		if mode.String() != name {
			t.Errorf("ParseMode(%q) = %v", name, mode)
		}
	}
	if mode, err := ParseMode(""); err != nil || mode != LargeMode(0) || mode.String() != "single-copy" {
		t.Errorf("ParseMode(\"\") = %v, %v; want single-copy, the zero LargeMode", mode, err)
	}
	if _, err := ParseMode("dma"); err == nil {
		t.Error("ParseMode of unknown name did not error")
	}
}
