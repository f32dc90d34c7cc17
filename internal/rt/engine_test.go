package rt

import (
	"bytes"
	"runtime"
	"testing"

	"knemesis/internal/comm"
)

// Config.withDefaults boundary behaviour: zero fields take the documented
// defaults, the rendezvous threshold is clamped to the cell size, and
// explicit values survive.
func TestConfigWithDefaults(t *testing.T) {
	const k64 = 64 * 1024
	cases := []struct {
		name              string
		in                Config
		wantThresh        int
		wantCells         int
		wantCopiersAtMin1 bool // Copiers derived from NumCPU (>= 1)
	}{
		{"all-zero", Config{}, k64, k64, true},
		{"threshold-below-cell", Config{RndvThreshold: 1024}, 1024, k64, true},
		{"threshold-at-cell", Config{RndvThreshold: k64}, k64, k64, true},
		{"threshold-above-cell-clamps", Config{RndvThreshold: 2 * k64}, k64, k64, true},
		{"custom-cell-raises-clamp", Config{RndvThreshold: 2 * k64, CellBytes: 4 * k64}, 2 * k64, 4 * k64, true},
		{"tiny-cell-clamps-threshold", Config{RndvThreshold: 512, CellBytes: 256}, 256, 256, true},
		{"explicit-copiers", Config{Copiers: 7}, k64, k64, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.in.withDefaults()
			if got.RndvThreshold != tc.wantThresh {
				t.Errorf("RndvThreshold = %d, want %d", got.RndvThreshold, tc.wantThresh)
			}
			if got.CellBytes != tc.wantCells {
				t.Errorf("CellBytes = %d, want %d", got.CellBytes, tc.wantCells)
			}
			if tc.wantCopiersAtMin1 {
				want := runtime.NumCPU() / 4
				if want < 1 {
					want = 1
				}
				if got.Copiers != want {
					t.Errorf("Copiers = %d, want %d", got.Copiers, want)
				}
			} else if got.Copiers != tc.in.Copiers {
				t.Errorf("Copiers = %d, want explicit %d", got.Copiers, tc.in.Copiers)
			}
		})
	}
}

// The threshold actually routes messages: at the clamped boundary a
// message of exactly the threshold stays eager, one byte more goes
// rendezvous.
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
// messages eagerly (the engine grows the cell size with the threshold;
// without that, withDefaults would silently clamp it back to 64 KiB).
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
