package rt

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"
	"time"
	"unsafe"
)

// A small message should move only the cache lines it fills. The box is a
// whole number of 64-byte lines, so one box's state word never shares a
// line with the previous box's payload and two senders never false-share
// it; the header sits in the flag's line, and the payload is inline (no
// pointer to chase to a second allocation) and starts in that line too.
// Every sender also loads the receiver's sleeping flag, so the flag must
// not share a line with the owner-written fields around it (reqFree and
// the matching queues before it, the rank's counters after it), wherever
// the allocator places the Rank.
func TestFastboxLineAligned(t *testing.T) {
	var fb fastbox
	if size := unsafe.Sizeof(fb); size%64 != 0 {
		t.Errorf("fastbox is %d bytes, not a multiple of the 64-byte cache line", size)
	}
	for name, off := range map[string]uintptr{
		"state": unsafe.Offsetof(fb.state),
		"tag":   unsafe.Offsetof(fb.tag),
		"seq":   unsafe.Offsetof(fb.seq),
		"n":     unsafe.Offsetof(fb.n),
		"data":  unsafe.Offsetof(fb.data),
	} {
		if off >= 64 {
			t.Errorf("fastbox.%s starts at byte %d, outside the flag's cache line", name, off)
		}
	}
	typ := reflect.TypeFor[fastbox]()
	for i := 0; i < typ.NumField(); i++ {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Map, reflect.Chan, reflect.Interface, reflect.String, reflect.Func:
			t.Errorf("fastbox.%s is a %s: the payload must be inline", f.Name, f.Type.Kind())
		}
	}
	// A pointer-free inbox gets no malloc header and every size class
	// above 1 KiB is whole lines, so the inbox starts on a line boundary
	// and the whole-line size keeps every box on lines of its own.
	for n := 1; n <= 8; n++ {
		inbox := make([]fastbox, n)
		if p := uintptr(unsafe.Pointer(&inbox[0])); p%64 != 0 {
			t.Errorf("a %d-box inbox starts at %#x, not on a cache line", n, p)
		}
	}

	typ = reflect.TypeFor[Rank]()
	f, ok := typ.FieldByName("sleeping")
	if !ok {
		t.Fatal("Rank has no sleeping field")
	}
	for i := 0; i < typ.NumField(); i++ {
		g := typ.Field(i)
		if g.Name == "_" || g.Name == "sleeping" {
			continue
		}
		if g.Offset < f.Offset {
			if gap := f.Offset - (g.Offset + g.Type.Size()); gap < 64 {
				t.Errorf("Rank.%s ends %d bytes before sleeping, want >= 64", g.Name, gap)
			}
		} else if gap := g.Offset - (f.Offset + f.Type.Size()); gap < 64 {
			t.Errorf("Rank.%s starts %d bytes after sleeping, want >= 64", g.Name, gap)
		}
	}
}

// A burst of small sends with the receiver away fills the single-slot
// fastbox after one message; the overflow must fall back to the shared
// queue and still be delivered in send order, interleaved correctly with
// the message parked in the fastbox (the sequence-merged drain).
func TestFastboxOverflowFallsBackToQueueInOrder(t *testing.T) {
	const msgs = 64
	w := NewWorld(2, Config{})
	err := w.Run(func(r *Rank) {
		if r.ID() == 0 {
			for i := 0; i < msgs; i++ {
				r.Send(1, 0, pattern(i, 64))
			}
		} else {
			// Give the burst time to overflow the fastbox before draining.
			time.Sleep(20 * time.Millisecond)
			buf := make([]byte, 64)
			for i := 0; i < msgs; i++ {
				r.Recv(0, 0, buf)
				if !bytes.Equal(buf, pattern(i, 64)) {
					t.Errorf("message %d out of order or corrupted", i)
					return
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	fb := w.FastboxMsgs.Load()
	if fb < 1 {
		t.Errorf("no message used the fastbox (FastboxMsgs = %d)", fb)
	}
	if fb >= msgs {
		t.Errorf("all %d burst messages claim the single-slot fastbox (FastboxMsgs = %d)", msgs, fb)
	}
	if w.EagerMsgs.Load() != msgs {
		t.Errorf("EagerMsgs = %d, want %d", w.EagerMsgs.Load(), msgs)
	}
}

// A lock-step ping-pong uses the fastbox for every message: the slot is
// always free when the sender arrives.
func TestFastboxConfigKnob(t *testing.T) {
	w := NewWorld(2, Config{})
	err := w.Run(func(r *Rank) {
		buf := make([]byte, 128)
		for i := 0; i < 10; i++ {
			if r.ID() == 0 {
				r.Send(1, 0, buf)
				r.Recv(1, 0, buf)
			} else {
				r.Recv(0, 0, buf)
				r.Send(0, 0, buf)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := w.FastboxMsgs.Load(); n != 20 {
		t.Errorf("lock-step ping-pong used the fastbox for %d of 20 messages", n)
	}
}

// The envelope pool must only ever hold exactly-cellBytes cells: transient
// oversized buffers (unexpected stream reassembly) are dropped at release,
// never pooled — the fix for the seed's cell-pool pollution, enforced
// structurally and checked here.
func TestEnvelopePoolKeepsOnlyCellSizedBuffers(t *testing.T) {
	const cell = defaultCellBytes
	w := NewWorld(2, Config{Large: Eager})
	err := w.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 0, pattern(1, 10*cell)) // streamed oversized eager
			r.Send(1, 1, pattern(2, 100))     // small eager
		} else {
			// Let both arrive unexpected (the oversized one reassembles
			// into a transient full-size buffer), then receive them.
			time.Sleep(10 * time.Millisecond)
			buf := make([]byte, 10*cell)
			st := r.Recv(0, 0, buf)
			if st.N != 10*cell || !bytes.Equal(buf, pattern(1, 10*cell)) {
				t.Errorf("oversized eager corrupted (status %+v)", st)
			}
			r.Recv(0, 1, buf)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// The world is idle now; inspect every rank's pool directly.
	for _, r := range w.ranks {
		for m := r.freeq.Pop(); m != nil; m = r.freeq.Pop() {
			if m.data != nil {
				t.Errorf("rank %d pooled an envelope with live data (%d bytes)", r.rank, len(m.data))
			}
			if m.cell != nil && cap(m.cell) != cell {
				t.Errorf("rank %d pooled a %d-byte cell, want exactly %d", r.rank, cap(m.cell), cell)
			}
		}
	}
}

// Forced dual-copy (a world built with two Ps, whatever GOMAXPROCS the
// test runs at): the waiting sender claims chunks alongside the receiver;
// the transfer must stay intact for single transfers and concurrent
// same-pair transfers.
func TestDualCopyRendezvousForced(t *testing.T) {
	for _, mode := range []LargeMode{SingleCopy, Offload} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			const n = 3 * 1024 * 1024
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
			w := NewWorld(2, Config{Large: mode})
			if !w.senderCopy {
				t.Error("a world built at GOMAXPROCS=2 has the sender copy off")
			}
			err := w.Run(func(r *Rank) {
				if r.ID() == 0 {
					r.Send(1, 0, pattern(1, n))
					a := r.Isend(1, 1, pattern(2, n))
					b := r.Isend(1, 2, pattern(3, n))
					r.Wait(a)
					r.Wait(b)
				} else {
					buf := make([]byte, n)
					r.Recv(0, 0, buf)
					if !bytes.Equal(buf, pattern(1, n)) {
						t.Error("single transfer corrupted")
					}
					b2, b1 := make([]byte, n), make([]byte, n)
					rb := r.Irecv(0, 2, b2)
					ra := r.Irecv(0, 1, b1)
					r.Wait(ra)
					r.Wait(rb)
					if !bytes.Equal(b1, pattern(2, n)) || !bytes.Equal(b2, pattern(3, n)) {
						t.Error("concurrent same-pair transfers corrupted")
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if w.RndvMsgs.Load() != 3 {
				t.Errorf("RndvMsgs = %d, want 3", w.RndvMsgs.Load())
			}
		})
	}
}

// A zero-byte message on a forced-rendezvous world must still complete:
// the chunk schedule gets one empty chunk so the last-chunk completion
// fires (regression: nchunks == 0 never called complete and deadlocked).
func TestZeroByteRendezvousCompletes(t *testing.T) {
	w := NewWorld(2, Config{RndvThreshold: -1, Large: SingleCopy})
	err := w.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 5, nil)
		} else {
			st := r.Recv(0, 5, nil)
			if st.N != 0 || st.Tag != 5 {
				t.Errorf("zero-byte rendezvous status %+v", st)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.RndvMsgs.Load() != 1 {
		t.Errorf("RndvMsgs = %d, want 1 (threshold -1 forces rendezvous)", w.RndvMsgs.Load())
	}
}

// A recycled request must not leak its previous incarnation's Status:
// waiting on a send that reuses a pooled receive request returns the zero
// Status, as a fresh request always did.
func TestRecycledRequestStatusCleared(t *testing.T) {
	w := NewWorld(2, Config{})
	err := w.Run(func(r *Rank) {
		if r.ID() == 0 {
			buf := make([]byte, 64)
			r.Recv(1, 9, buf) // retires a receive request carrying a Status
			if st := r.Wait(r.Isend(1, 0, buf)); st != (Status{}) {
				t.Errorf("send via recycled request reported status %+v", st)
			}
		} else {
			r.Send(0, 9, pattern(9, 64))
			r.Recv(0, 0, make([]byte, 64))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Oversized eager messages that arrive unexpected reassemble fully and are
// then matchable by exact and wildcard receives in arrival order.
func TestOversizedEagerUnexpectedAndWildcard(t *testing.T) {
	const cell = defaultCellBytes
	const n7, n8 = 25 * cell / 2, 25 * cell / 4 // 12.5 and 6.25 cells
	w := NewWorld(2, Config{Large: Eager})
	err := w.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 7, pattern(7, n7))
			r.Send(1, 8, pattern(8, n8))
			r.Send(1, 9, nil) // handshake: everything above is in flight
		} else {
			r.Recv(0, 9, nil) // drains the streams into the unexpected queue
			buf := make([]byte, n7)
			st := r.Recv(AnySource, AnyTag, buf)
			if st.Tag != 7 || st.N != n7 {
				t.Fatalf("wildcard got %+v, want the first-arrived tag-7 stream", st)
			}
			if !bytes.Equal(buf[:st.N], pattern(7, st.N)) {
				t.Error("tag-7 stream corrupted")
			}
			st = r.Recv(0, 8, buf[:n8])
			if st.N != n8 || !bytes.Equal(buf[:st.N], pattern(8, st.N)) {
				t.Errorf("tag-8 stream corrupted (status %+v)", st)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// A receive posted while an oversized stream is still arriving must take
// over the stream mid-flight: the sender's cell window throttles it after
// streamWindow segments, so the receiver provably matches an open stream.
func TestOversizedEagerMatchedMidStream(t *testing.T) {
	const n = 40 * defaultCellBytes // far beyond streamWindow cells
	w := NewWorld(2, Config{Large: Eager})
	err := w.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 3, pattern(3, n))
		} else {
			// Arrive late: the head is already parked unexpected with the
			// stream open (the sender is throttled on its cell window).
			time.Sleep(20 * time.Millisecond)
			buf := make([]byte, n)
			st := r.Recv(0, 3, buf)
			if st.N != n {
				t.Fatalf("status %+v", st)
			}
			if !bytes.Equal(buf, pattern(3, n)) {
				t.Error("mid-stream takeover corrupted the payload")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
