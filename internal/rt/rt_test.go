package rt

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"knemesis/internal/comm"
)

// Test-side shims over the comm.Peer handle. The collectives live in the
// generic comm algorithms; production callers go through Job.Run and the
// comm API, so the tests drive the same path via r.peer().

func barrier(r *Rank) { r.peer().Barrier() }

func bcast(r *Rank, root int, buf []byte) {
	r.peer().Bcast(root, comm.Whole(byteBuf(buf)))
}

func alltoall(r *Rank, send, recv []byte, block int) {
	r.peer().Alltoall(byteBuf(send), byteBuf(recv), int64(block))
}

func allreduceF64(r *Rank, data []float64, combine func(a, b float64) float64) {
	buf := byteBuf(make([]byte, len(data)*8))
	for i, v := range data {
		binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(v))
	}
	r.peer().Allreduce(comm.Whole(buf), func(dst, src []byte) {
		for i := 0; i+8 <= len(dst); i += 8 {
			a := math.Float64frombits(binary.LittleEndian.Uint64(dst[i:]))
			b := math.Float64frombits(binary.LittleEndian.Uint64(src[i:]))
			binary.LittleEndian.PutUint64(dst[i:], math.Float64bits(combine(a, b)))
		}
	})
	for i := range data {
		data[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[i*8:]))
	}
}

func pattern(seed, n int) []byte {
	b := make([]byte, n)
	x := uint64(seed)*2654435761 + 0x9e3779b9
	for i := range b {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		b[i] = byte(x)
	}
	return b
}

// msgQueue is the MPSC queue every rank's receive queue and envelope pool
// run on. Drained sequentially it is FIFO, and a drained queue is empty
// and reusable (Pop re-pushes the stub to close the tail).
func TestQueueSequential(t *testing.T) {
	q := &msgQueue{}
	q.init()
	if m := q.Pop(); m != nil {
		t.Fatal("empty queue popped an envelope")
	}
	for round := 0; round < 2; round++ {
		msgs := make([]*message, 100)
		for i := range msgs {
			msgs[i] = &message{seq: uint64(i)}
			q.Push(msgs[i])
		}
		for i, want := range msgs {
			if m := q.Pop(); m != want {
				t.Fatalf("round %d pop %d = %v, want seq %d", round, i, m, i)
			}
		}
		if !q.Empty() || q.Pop() != nil {
			t.Fatalf("round %d: queue not empty after draining", round)
		}
	}
}

// Eight producers push concurrently: the single consumer sees every
// envelope exactly once and each producer's envelopes in push order.
func TestQueueConcurrentProducers(t *testing.T) {
	const producers = 8
	const perProducer = 10000
	q := &msgQueue{}
	q.init()
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				q.Push(&message{src: p, seq: uint64(i)})
			}
		}()
	}
	seen := make(map[*message]bool, producers*perProducer)
	next := make([]uint64, producers) // per-producer FIFO check
	for count := 0; count < producers*perProducer; {
		m := q.Pop()
		if m == nil {
			runtime.Gosched() // empty, or a push is mid-flight
			continue
		}
		if seen[m] {
			t.Fatalf("envelope (%d, %d) popped twice", m.src, m.seq)
		}
		seen[m] = true
		if m.seq != next[m.src] {
			t.Fatalf("producer %d out of order: %d, want %d", m.src, m.seq, next[m.src])
		}
		next[m.src]++
		count++
	}
	wg.Wait()
	if m := q.Pop(); m != nil {
		t.Fatalf("extra envelope (%d, %d) after all pushes were popped", m.src, m.seq)
	}
}

func TestSendRecvAllModes(t *testing.T) {
	sizes := []int{0, 1, 100, 64 * 1024, 256 * 1024, 1 << 20}
	for _, mode := range []LargeMode{Eager, SingleCopy, Offload} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			w := NewWorld(2, Config{Large: mode})
			err := w.Run(func(r *Rank) {
				for i, n := range sizes {
					if r.ID() == 0 {
						r.Send(1, i, pattern(i, n))
					} else {
						buf := make([]byte, n)
						st := r.Recv(0, i, buf)
						if st.N != n || st.Source != 0 || st.Tag != i {
							t.Errorf("status %+v for size %d", st, n)
						}
						if !bytes.Equal(buf, pattern(i, n)) {
							t.Errorf("size %d corrupted", n)
						}
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestPerPairOrderingUnderLoad(t *testing.T) {
	const msgs = 2000
	w := NewWorld(2, Config{Large: SingleCopy, RndvThreshold: 512})
	err := w.Run(func(r *Rank) {
		if r.ID() == 0 {
			for i := 0; i < msgs; i++ {
				n := 64 + (i%20)*64 // mixes eager and rendezvous
				b := pattern(i, n)
				r.Send(1, 7, b)
			}
		} else {
			for i := 0; i < msgs; i++ {
				buf := make([]byte, 64+19*64)
				st := r.Recv(0, 7, buf)
				want := pattern(i, st.N)
				if !bytes.Equal(buf[:st.N], want) {
					t.Errorf("message %d out of order or corrupted", i)
					return
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWildcardsAndUnexpected(t *testing.T) {
	w := NewWorld(4, Config{})
	err := w.Run(func(r *Rank) {
		if r.ID() == 0 {
			got := map[int]bool{}
			for i := 0; i < 3; i++ {
				buf := make([]byte, 8)
				st := r.Recv(AnySource, AnyTag, buf)
				got[st.Source] = true
				if int(buf[0]) != st.Source {
					t.Errorf("payload %d from %d", buf[0], st.Source)
				}
			}
			if len(got) != 3 {
				t.Errorf("sources: %v", got)
			}
		} else {
			r.Send(0, 10+r.ID(), []byte{byte(r.ID()), 0, 0, 0, 0, 0, 0, 0})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierCollective(t *testing.T) {
	for _, n := range []int{2, 3, 8} {
		w := NewWorld(n, Config{})
		var phase [64]int32
		err := w.Run(func(r *Rank) {
			for round := 0; round < 10; round++ {
				phase[r.ID()] = int32(round)
				barrier(r)
				for peer := 0; peer < n; peer++ {
					if phase[peer] < int32(round) {
						t.Errorf("n=%d round %d: rank %d saw peer %d behind", n, round, r.ID(), peer)
					}
				}
				barrier(r)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestBcastAllSizesRanks(t *testing.T) {
	for _, n := range []int{2, 5, 8} {
		w := NewWorld(n, Config{Large: SingleCopy})
		err := w.Run(func(r *Rank) {
			buf := make([]byte, 200*1024)
			if r.ID() == 1%n {
				copy(buf, pattern(42, len(buf)))
			}
			bcast(r, 1%n, buf)
			if !bytes.Equal(buf, pattern(42, len(buf))) {
				t.Errorf("n=%d rank %d: bcast corrupted", n, r.ID())
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestAllreduceF64(t *testing.T) {
	for _, n := range []int{2, 3, 4, 7, 8} {
		w := NewWorld(n, Config{})
		err := w.Run(func(r *Rank) {
			data := []float64{float64(r.ID()), 1, float64(r.ID() * r.ID())}
			allreduceF64(r, data, func(a, b float64) float64 { return a + b })
			wantSum := 0.0
			wantSq := 0.0
			for i := 0; i < n; i++ {
				wantSum += float64(i)
				wantSq += float64(i * i)
			}
			if data[0] != wantSum || data[1] != float64(n) || data[2] != wantSq {
				t.Errorf("n=%d rank %d: allreduce = %v", n, r.ID(), data)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestAlltoallModes(t *testing.T) {
	for _, mode := range []LargeMode{Eager, SingleCopy, Offload} {
		for _, n := range []int{4, 8} {
			block := 96 * 1024 // rendezvous territory
			w := NewWorld(n, Config{Large: mode})
			err := w.Run(func(r *Rank) {
				send := make([]byte, n*block)
				recv := make([]byte, n*block)
				for d := 0; d < n; d++ {
					copy(send[d*block:], pattern(r.ID()*100+d, block))
				}
				alltoall(r, send, recv, block)
				for s := 0; s < n; s++ {
					if !bytes.Equal(recv[s*block:(s+1)*block], pattern(s*100+r.ID(), block)) {
						t.Errorf("%v n=%d rank %d: block from %d corrupted", mode, n, r.ID(), s)
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}

// Property: random message schedules between 2 ranks deliver intact in
// order, for every mode.
func TestExchangeProperty(t *testing.T) {
	prop := func(sizesRaw [12]uint16, modeRaw uint8) bool {
		mode := LargeMode(modeRaw % 3)
		w := NewWorld(2, Config{Large: mode, RndvThreshold: 4096})
		ok := true
		err := w.Run(func(r *Rank) {
			if r.ID() == 0 {
				for i, sz := range sizesRaw {
					r.Send(1, i, pattern(i, int(sz)))
				}
				for i, sz := range sizesRaw {
					buf := make([]byte, int(sz))
					r.Recv(1, 100+i, buf)
					if !bytes.Equal(buf, pattern(1000+i, int(sz))) {
						ok = false
					}
				}
			} else {
				for i, sz := range sizesRaw {
					buf := make([]byte, int(sz))
					r.Recv(0, i, buf)
					if !bytes.Equal(buf, pattern(i, int(sz))) {
						ok = false
					}
				}
				for i, sz := range sizesRaw {
					r.Send(0, 100+i, pattern(1000+i, int(sz)))
				}
			}
		})
		return err == nil && ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestRunPropagatesPanic(t *testing.T) {
	w := NewWorld(2, Config{})
	err := w.Run(func(r *Rank) {
		if r.ID() == 1 {
			panic("boom")
		}
	})
	if err == nil {
		t.Fatal("rank panic not reported")
	}
}

func TestStatsCounting(t *testing.T) {
	w := NewWorld(2, Config{Large: SingleCopy, RndvThreshold: 1024})
	err := w.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 0, make([]byte, 100))    // eager
			r.Send(1, 1, make([]byte, 100000)) // rendezvous
		} else {
			buf := make([]byte, 100000)
			r.Recv(0, 0, buf)
			r.Recv(0, 1, buf)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.EagerMsgs.Load() < 1 || w.RndvMsgs.Load() != 1 {
		t.Fatalf("eager=%d rndv=%d", w.EagerMsgs.Load(), w.RndvMsgs.Load())
	}
}

// The message counters are owner-only per rank and folded into the World
// once the ranks join. One run mixes every path: a fastbox hit, two sends
// that find the box full and take the queue, a rendezvous (whose bytes the
// receiver counts) and cross-node sends both ways, one of them above the
// rendezvous threshold (a network pair streams it eagerly). A run cut by
// its deadline still reports exactly the messages sent: counted once, not
// lost with the cancelled ranks and not doubled.
func TestWorldCountsFoldedAtJoin(t *testing.T) {
	const small, rndv, netSmall, netLarge = 64, 128 << 10, 100, 200 << 10
	w := NewWorld(3, Config{NodeOf: []int{0, 0, 1}})
	sent := make(chan struct{})
	err := w.Run(func(r *Rank) {
		switch r.ID() {
		case 0:
			// Rank 1 drains nothing until sent closes, so the first
			// message takes the empty fastbox and the next two the queue.
			for i := 0; i < 3; i++ {
				r.Send(1, i, pattern(i, small))
			}
			close(sent)
			r.Send(1, 3, pattern(3, rndv))
			r.Send(2, 0, pattern(4, netLarge))
			r.Recv(2, 1, make([]byte, netSmall))
		case 1:
			<-sent
			buf := make([]byte, rndv)
			for i := 0; i < 3; i++ {
				if st := r.Recv(0, i, buf); st.N != small || !bytes.Equal(buf[:small], pattern(i, small)) {
					t.Errorf("small message %d corrupted (status %+v)", i, st)
				}
			}
			if r.Recv(0, 3, buf); !bytes.Equal(buf, pattern(3, rndv)) {
				t.Error("rendezvous payload corrupted")
			}
		case 2:
			buf := make([]byte, netLarge)
			if r.Recv(0, 0, buf); !bytes.Equal(buf, pattern(4, netLarge)) {
				t.Error("cross-node payload corrupted")
			}
			r.Send(0, 1, pattern(5, netSmall))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"EagerMsgs", w.EagerMsgs.Load(), 5},
		{"FastboxMsgs", w.FastboxMsgs.Load(), 1},
		{"NetMsgs", w.NetMsgs.Load(), 2},
		{"RndvMsgs", w.RndvMsgs.Load(), 1},
		{"BytesMoved", w.BytesMoved.Load(), 3*small + rndv + netLarge + netSmall},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}

	const k = 5
	w = NewWorld(2, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	err = w.RunCtx(ctx, func(r *Rank) {
		buf := make([]byte, small)
		if r.ID() == 0 {
			for i := 0; i < k; i++ {
				r.Send(1, 0, buf)
			}
			r.Recv(1, 0, buf) // never sent: the deadline cuts the run
		} else {
			r.Recv(0, 1, buf) // never sent either
		}
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("RunCtx returned %v, want the deadline", err)
	}
	if got := w.EagerMsgs.Load(); got != k {
		t.Errorf("cut run: EagerMsgs = %d, want %d", got, k)
	}
	if got := w.BytesMoved.Load(); got != k*small {
		t.Errorf("cut run: BytesMoved = %d, want %d", got, k*small)
	}
}

// A zero Config moves a large message once: one rendezvous, no eager cell
// stream, and the payload counted once.
func TestZeroConfigIsSingleCopy(t *testing.T) {
	const size = 4 << 20
	w := NewWorld(2, Config{})
	err := w.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 0, pattern(7, size))
			return
		}
		buf := make([]byte, size)
		r.Recv(0, 0, buf)
		if !bytes.Equal(buf, pattern(7, size)) {
			t.Error("4 MiB payload corrupted")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if rndv, eager, moved := w.RndvMsgs.Load(), w.EagerMsgs.Load(), w.BytesMoved.Load(); rndv != 1 || eager != 0 || moved != size {
		t.Errorf("rndv=%d eager=%d moved=%d; want 1, 0, %d", rndv, eager, moved, size)
	}
}

func TestManyRanksStress(t *testing.T) {
	const n = 8
	w := NewWorld(n, Config{Large: Offload, RndvThreshold: 8192})
	err := w.Run(func(r *Rank) {
		for round := 0; round < 20; round++ {
			size := 1024 << (round % 5)
			send := make([]byte, n*size)
			recv := make([]byte, n*size)
			for d := 0; d < n; d++ {
				copy(send[d*size:], pattern(round*1000+r.ID()*10+d, size))
			}
			alltoall(r, send, recv, size)
			for s := 0; s < n; s++ {
				if !bytes.Equal(recv[s*size:(s+1)*size], pattern(round*1000+s*10+r.ID(), size)) {
					t.Errorf("round %d rank %d: corrupted block from %d", round, r.ID(), s)
					return
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestModeString(t *testing.T) {
	for m, want := range map[LargeMode]string{Eager: "eager", SingleCopy: "single-copy", Offload: "offload"} {
		if m.String() != want {
			t.Errorf("%d.String() = %q", int(m), m.String())
		}
	}
	if LargeMode(9).String() != "LargeMode(9)" {
		t.Error("unknown mode string wrong")
	}
}
