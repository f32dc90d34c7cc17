package mpi

import (
	"encoding/binary"
	"strings"
	"testing"
	"testing/quick"

	"knemesis/internal/comm"
	"knemesis/internal/core"
	"knemesis/internal/mem"
	"knemesis/internal/nemesis"
	_ "knemesis/internal/rt" // the rt engine, whose handles a sim rank must refuse
	"knemesis/internal/sim"
	"knemesis/internal/topo"
	"knemesis/internal/units"
)

// newJob is a single-node sim job of ranks ranks on the E5345's first cores.
func newJob(t *testing.T, ranks int, opt core.Options) *simJob {
	t.Helper()
	m := topo.XeonE5345()
	cores := m.AllCores()[:ranks]
	return NewSimJob(core.NewStack(m, cores, opt, nemesis.Config{})).(*simJob)
}

// runRanks runs app on every rank of a single-node job and returns the
// simulated time at exit with the run's error.
func runRanks(j *simJob, app func(c *simPeer)) (sim.Time, error) {
	err := j.Run(func(p comm.Peer) { app(p.(*simPeer)) })
	return j.eng().Now(), err
}

// alloc is c.Alloc with the simulated buffer unwrapped.
func alloc(c *simPeer, n int64) *mem.Buffer { return c.Alloc(n).(*mem.Buffer) }

func putU64s(b *mem.Buffer, vals ...uint64) {
	for i, v := range vals {
		binary.LittleEndian.PutUint64(b.Bytes()[i*8:], v)
	}
}

func getU64(b *mem.Buffer, i int) uint64 {
	return binary.LittleEndian.Uint64(b.Bytes()[i*8:])
}

func TestSendRecvAcrossSizes(t *testing.T) {
	j := newJob(t, 2, core.Options{Kind: core.KnemLMT})
	sizes := []int64{1, 1024, 64 * units.KiB, 200 * units.KiB}
	if _, err := runRanks(j, func(c *simPeer) {
		for i, size := range sizes {
			if c.Rank() == 0 {
				b := alloc(c, size)
				b.FillPattern(uint64(i))
				c.SendVec(1, i, mem.VecOf(b))
			} else {
				b := alloc(c, size)
				st := c.RecvVec(0, i, mem.VecOf(b))
				if st.Bytes != size || st.Source != 0 || st.Tag != i {
					t.Errorf("status = %+v for size %d", st, size)
				}
				want := alloc(c, size)
				want.FillPattern(uint64(i))
				if !mem.EqualBytes(b, want) {
					t.Errorf("payload corrupted at size %d", size)
				}
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestAnySourceAnyTag(t *testing.T) {
	j := newJob(t, 3, core.Options{Kind: core.DefaultLMT})
	if _, err := runRanks(j, func(c *simPeer) {
		switch c.Rank() {
		case 0:
			got := map[int]bool{}
			for i := 0; i < 2; i++ {
				b := alloc(c, 8)
				st := c.RecvVec(comm.AnySource, comm.AnyTag, mem.VecOf(b))
				got[st.Source] = true
				if int(getU64(b, 0)) != st.Source {
					t.Errorf("payload %d from source %d", getU64(b, 0), st.Source)
				}
			}
			if !got[1] || !got[2] {
				t.Errorf("sources seen: %v", got)
			}
		default:
			b := alloc(c, 8)
			putU64s(b, uint64(c.Rank()))
			c.SendVec(0, 42+c.Rank(), mem.VecOf(b))
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	j := newJob(t, 8, core.Options{Kind: core.DefaultLMT})
	var after [8]sim.Time
	if _, err := runRanks(j, func(c *simPeer) {
		// Rank r sleeps r*10us, then all must leave the barrier at >= 70us.
		c.p.Sleep(sim.Time(c.Rank()) * 10 * sim.Microsecond)
		c.Barrier()
		after[c.Rank()] = c.Elapsed()
	}); err != nil {
		t.Fatal(err)
	}
	for r, ts := range after {
		if ts < 70*sim.Microsecond {
			t.Errorf("rank %d left barrier at %v, before slowest arrival", r, ts)
		}
	}
}

func TestBcastDeliversToAll(t *testing.T) {
	for _, ranks := range []int{2, 5, 8} {
		j := newJob(t, ranks, core.Options{Kind: core.KnemLMT, IOAT: core.IOATAuto})
		size := int64(128 * units.KiB)
		if _, err := runRanks(j, func(c *simPeer) {
			b := alloc(c, size)
			if c.Rank() == 3%ranks {
				b.FillPattern(99)
			}
			c.Bcast(3%ranks, comm.Whole(b))
			want := alloc(c, size)
			want.FillPattern(99)
			if !mem.EqualBytes(b, want) {
				t.Errorf("ranks=%d rank=%d: bcast payload wrong", ranks, c.Rank())
			}
		}); err != nil {
			t.Fatalf("ranks=%d: %v", ranks, err)
		}
	}
}

func TestAllreduceSum(t *testing.T) {
	for _, ranks := range []int{2, 4, 7, 8} {
		j := newJob(t, ranks, core.Options{Kind: core.DefaultLMT})
		if _, err := runRanks(j, func(c *simPeer) {
			b := alloc(c, 64)
			for i := 0; i < 8; i++ {
				binary.LittleEndian.PutUint64(b.Bytes()[i*8:], uint64(c.Rank()+i))
			}
			c.Allreduce(comm.Whole(b), comm.SumInt64)
			n := int64(c.Size())
			base := n * (n - 1) / 2 // sum of ranks
			for i := 0; i < 8; i++ {
				want := base + n*int64(i)
				if got := int64(getU64(b, i)); got != want {
					t.Errorf("ranks=%d elem %d = %d, want %d", ranks, i, got, want)
				}
			}
		}); err != nil {
			t.Fatalf("ranks=%d: %v", ranks, err)
		}
	}
}

func TestAlltoallCorrectness(t *testing.T) {
	for _, ranks := range []int{4, 8} {
		j := newJob(t, ranks, core.Options{Kind: core.KnemLMT, IOAT: core.IOATAuto})
		block := int64(96 * units.KiB) // above eager threshold: exercises LMT
		if _, err := runRanks(j, func(c *simPeer) {
			n := int64(c.Size())
			send := alloc(c, block*n)
			recv := alloc(c, block*n)
			for r := 0; r < c.Size(); r++ {
				send.Slice(int64(r)*block, block).FillPattern(uint64(c.Rank()*100 + r))
			}
			c.Alltoall(send, recv, block)
			for r := 0; r < c.Size(); r++ {
				want := alloc(c, block)
				want.FillPattern(uint64(r*100 + c.Rank()))
				if !mem.EqualBytes(recv.Slice(int64(r)*block, block), want) {
					t.Errorf("ranks=%d rank %d: block from %d corrupted", ranks, c.Rank(), r)
				}
			}
		}); err != nil {
			t.Fatalf("ranks=%d: %v", ranks, err)
		}
	}
}

func TestAlltoallvIrregular(t *testing.T) {
	j := newJob(t, 4, core.Options{Kind: core.KnemLMT})
	if _, err := runRanks(j, func(c *simPeer) {
		n := c.Size()
		// Rank r sends (r+1)*(dst+1) KiB to each dst.
		sendCounts := make([]int64, n)
		sendDispls := make([]int64, n)
		recvCounts := make([]int64, n)
		recvDispls := make([]int64, n)
		var sTot, rTot int64
		for d := 0; d < n; d++ {
			sendDispls[d] = sTot
			sendCounts[d] = int64(c.Rank()+1) * int64(d+1) * units.KiB
			sTot += sendCounts[d]
			recvDispls[d] = rTot
			recvCounts[d] = int64(d+1) * int64(c.Rank()+1) * units.KiB
			rTot += recvCounts[d]
		}
		send := alloc(c, sTot)
		recv := alloc(c, rTot)
		for d := 0; d < n; d++ {
			send.Slice(sendDispls[d], sendCounts[d]).FillPattern(uint64(c.Rank()*10 + d))
		}
		c.Alltoallv(send, sendCounts, sendDispls, recv, recvCounts, recvDispls)
		for s := 0; s < n; s++ {
			want := alloc(c, recvCounts[s])
			want.FillPattern(uint64(s*10 + c.Rank()))
			if !mem.EqualBytes(recv.Slice(recvDispls[s], recvCounts[s]), want) {
				t.Errorf("rank %d: segment from %d corrupted", c.Rank(), s)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// Every LMT preset moves a strided vector both ways — sent as a vector and
// received contiguously, and sent contiguously and received into a vector
// — at eager and rendezvous sizes, between cores that share a cache and
// cores on different dies. A receive into a vector writes its blocks and
// leaves the gaps between them as they were.
func TestTypeVectorNoncontiguous(t *testing.T) {
	shapes := []struct {
		name          string
		count         int
		block, stride int64
	}{
		{"4x256B", 4, 256, units.KiB}, // eager
		{"16x8KiB", 16, 8 * units.KiB, 16 * units.KiB},
		{"3x100KiB", 3, 100 * units.KiB, 130 * units.KiB},
	}
	m := topo.XeonE5345()
	pairs := []struct {
		name  string
		cores func() (topo.CoreID, topo.CoreID)
	}{{"shared", m.PairSharedCache}, {"cross", m.PairDifferentDies}}
	for _, preset := range core.Presets.All() {
		for _, pair := range pairs {
			for _, dir := range []string{"SendVec-Recv", "Send-RecvVec"} {
				for _, sh := range shapes {
					t.Run(preset.Name+"/"+pair.name+"/"+dir+"/"+sh.name, func(t *testing.T) {
						c0, c1 := pair.cores()
						st := core.NewStack(m, []topo.CoreID{c0, c1}, preset.Options, nemesis.Config{})
						payload := int64(sh.count) * sh.block
						span := int64(sh.count-1)*sh.stride + sh.block
						vecSend := dir == "SendVec-Recv"
						if _, err := runRanks(NewSimJob(st).(*simJob), func(c *simPeer) {
							strided, flat := alloc(c, span), alloc(c, payload)
							strided.FillPattern(1)
							flat.FillPattern(2)
							switch {
							case c.Rank() == 0 && vecSend:
								c.SendVec(1, 5, TypeVector(strided, sh.count, sh.block, sh.stride))
								return
							case c.Rank() == 0:
								c.Send(1, 5, comm.Whole(flat))
								return
							}
							var st comm.Status
							if vecSend {
								st = c.Recv(0, 5, comm.Whole(flat))
							} else {
								st = c.RecvVec(0, 5, TypeVector(strided, sh.count, sh.block, sh.stride))
							}
							if st.Source != 0 || st.Tag != 5 || st.Bytes != payload {
								t.Errorf("status = %+v, want source 0, tag 5, %d bytes", st, payload)
							}
							// Whatever was not received keeps its own pattern.
							wantStrided, wantFlat := alloc(c, span), alloc(c, payload)
							wantStrided.FillPattern(1)
							wantFlat.FillPattern(2)
							for i := int64(0); i < int64(sh.count); i++ {
								got, want := strided.Slice(i*sh.stride, sh.block), wantFlat.Slice(i*sh.block, sh.block)
								if vecSend {
									got, want = flat.Slice(i*sh.block, sh.block), wantStrided.Slice(i*sh.stride, sh.block)
								}
								if !mem.EqualBytes(got, want) {
									t.Errorf("vector block %d corrupted", i)
								}
							}
							if !vecSend {
								for i := int64(0); i+1 < int64(sh.count); i++ {
									off, n := i*sh.stride+sh.block, sh.stride-sh.block
									if !mem.EqualBytes(strided.Slice(off, n), wantStrided.Slice(off, n)) {
										t.Errorf("gap after vector block %d written", i)
									}
								}
							}
						}); err != nil {
							t.Fatal(err)
						}
					})
				}
			}
		}
	}
}

// A sim rank refuses another engine's handles with a message that says
// so: an rt buffer in Send and CopyLocal, an rt request in Wait.
func TestForeignEngineHandlesPanic(t *testing.T) {
	var rtBuf comm.Buf
	var rtReq comm.Request
	rtJob, err := comm.NewJob("rt", comm.JobSpec{Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := rtJob.Run(func(p comm.Peer) {
		b := p.Alloc(64)
		if p.Rank() == 0 {
			rtBuf, rtReq = b, p.Isend(1, 0, comm.Whole(b))
			p.Wait(rtReq)
		} else {
			p.Recv(0, 0, comm.Whole(b))
		}
	}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, want string
		call       func(c *simPeer)
	}{
		{"Send", "belongs to a different engine", func(c *simPeer) { c.Send(1, 0, comm.Whole(rtBuf)) }},
		{"CopyLocal", "belongs to a different engine", func(c *simPeer) {
			c.CopyLocal(comm.Whole(c.Alloc(64)), comm.Whole(rtBuf))
		}},
		{"Wait", "from a different engine", func(c *simPeer) { c.Wait(rtReq) }},
	} {
		var msg string
		func() {
			defer func() {
				if pp, ok := recover().(*sim.ProcPanic); ok {
					msg, _ = pp.Value.(string)
				}
			}()
			runRanks(newJob(t, 2, core.Options{Kind: core.KnemLMT}), func(c *simPeer) {
				if c.Rank() == 0 {
					tc.call(c)
				}
			})
		}()
		if !strings.HasPrefix(msg, "sim: ") || !strings.Contains(msg, tc.want) {
			t.Errorf("%s with an rt handle panicked with %q, want a sim panic saying %q", tc.name, msg, tc.want)
		}
	}
}

// Property: alltoall over random block sizes and backends is always a
// permutation-correct exchange.
func TestAlltoallProperty(t *testing.T) {
	opts := core.StandardOptions()
	prop := func(blockRaw uint32, optRaw uint8) bool {
		block := int64(blockRaw)%(160*units.KiB) + 1
		opt := opts[int(optRaw)%len(opts)]
		j := newJob(t, 4, opt)
		ok := true
		if _, err := runRanks(j, func(c *simPeer) {
			n := int64(c.Size())
			send := alloc(c, block*n)
			recv := alloc(c, block*n)
			for r := 0; r < c.Size(); r++ {
				send.Slice(int64(r)*block, block).FillPattern(uint64(c.Rank())<<16 | uint64(r))
			}
			c.Alltoall(send, recv, block)
			for r := 0; r < c.Size(); r++ {
				want := alloc(c, block)
				want.FillPattern(uint64(r)<<16 | uint64(c.Rank()))
				if !mem.EqualBytes(recv.Slice(int64(r)*block, block), want) {
					ok = false
				}
			}
		}); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// Sendrecv must genuinely overlap its two directions: a bidirectional
// 512 KiB exchange (the building block of the Sendrecv/Exchange contention
// benchmarks) has to finish in well under the time of two sequential
// one-way transfers, and both payloads must arrive intact.
func TestSendrecvOverlapsDirections(t *testing.T) {
	size := 512 * units.KiB
	oneWay := func() sim.Time {
		j := newJob(t, 2, core.Options{Kind: core.KnemLMT})
		elapsed, err := runRanks(j, func(c *simPeer) {
			b := alloc(c, size)
			if c.Rank() == 0 {
				b.FillPattern(7)
				c.SendVec(1, 0, mem.VecOf(b))
			} else {
				c.RecvVec(0, 0, mem.VecOf(b))
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return elapsed
	}()

	j := newJob(t, 2, core.Options{Kind: core.KnemLMT})
	both, err := runRanks(j, func(c *simPeer) {
		send, recv := alloc(c, size), alloc(c, size)
		send.FillPattern(uint64(c.Rank()) + 1)
		peer := 1 - c.Rank()
		st := c.Sendrecv(peer, 3, comm.Whole(send), peer, 3, comm.Whole(recv))
		if st.Source != peer || st.Tag != 3 || st.Bytes != size {
			t.Errorf("rank %d: status = %+v", c.Rank(), st)
		}
		want := alloc(c, size)
		want.FillPattern(uint64(peer) + 1)
		if !mem.EqualBytes(recv, want) {
			t.Errorf("rank %d: payload corrupted", c.Rank())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if both >= 2*oneWay {
		t.Errorf("bidirectional Sendrecv took %v, want < 2x one-way %v (no overlap)", both, oneWay)
	}
}
