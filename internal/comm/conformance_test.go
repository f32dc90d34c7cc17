package comm_test

import (
	"bytes"
	"encoding/binary"
	"slices"
	"strings"
	"testing"
	"time"

	"knemesis/internal/comm"
	"knemesis/internal/core"
	"knemesis/internal/rt"
	"knemesis/internal/topo"

	// Register the sim engine (rt registers via the direct import above).
	_ "knemesis/internal/mpi"
)

// Cross-engine conformance: one table of message-passing semantics, each
// case asserted identically against every registered engine through the
// engine-neutral interface. This is the contract a new engine must meet to
// inherit the workload suite (see DESIGN.md, "How to add an engine").
//
// The rendezvous threshold is lowered to 8 KiB so the 64 KiB payloads
// exercise each engine's large-message path and the 1 KiB payloads its
// eager path.

const (
	confEagerMax  = 8 * 1024
	eagerBytes    = 1024      // below the threshold on every engine
	rendezvousLen = 64 * 1024 // above it on every engine
)

// confCase is one semantic of the message-passing contract.
type confCase struct {
	name  string
	ranks int
	app   func(t *testing.T, c comm.Peer)
}

func conformanceCases() []confCase {
	return []confCase{
		{"zero-byte-message", 2, zeroByteMessage},
		{"tag-selective-matching", 2, tagSelectiveMatching},
		{"fifo-order-per-pair", 2, fifoOrderPerPair},
		{"fifo-order-per-src-tag", 2, fifoOrderPerSrcTag},
		{"wildcard-source-and-tag", 4, wildcardSourceAndTag},
		{"wildcard-priority-over-later-exact", 2, wildcardPriorityOverLaterExact},
		{"unexpected-posted-interleave", 2, unexpectedPostedInterleave},
		{"sendrecv-ring-no-deadlock", 4, sendrecvRingNoDeadlock},
		{"waitall-out-of-order-completion", 2, waitallOutOfOrder},
		{"unexpected-before-post", 2, unexpectedBeforePost},
		{"collectives", 5, collectives},
	}
}

// realEngines are the shipped engines, the whole engine registry.
var realEngines = []string{"sim", "rt"}

// confDeadline is the per-case watchdog: a hung case fails within it,
// carrying the engine's per-rank state dump (posted/unexpected depths,
// park reasons), instead of stalling the whole suite at the test binary's
// global timeout.
const confDeadline = 60 * time.Second

// runWatchdog runs one conformance case under the deadline watchdog.
func runWatchdog(t *testing.T, job comm.Job, app func(c comm.Peer)) {
	t.Helper()
	if err := runWithDeadline(job, confDeadline, app); err != nil {
		t.Fatalf("job failed: %v", err)
	}
}

func TestConformanceAcrossEngines(t *testing.T) {
	// The sim engine runs the suite once; the rt engine runs it under
	// every large-message mode, so the fastbox + hashed-matching data
	// path is held to the contract on each of its transfer strategies.
	type target struct{ engine, rtmode string }
	targets := []target{{engine: "sim"}}
	for _, mode := range rt.ModeNames() {
		targets = append(targets, target{engine: "rt", rtmode: mode})
	}
	for _, tg := range targets {
		tg := tg
		name := tg.engine
		if tg.rtmode != "" {
			name += "/" + tg.rtmode
		}
		t.Run(name, func(t *testing.T) {
			for _, tc := range conformanceCases() {
				tc := tc
				t.Run(tc.name, func(t *testing.T) {
					job, err := comm.NewJob(tg.engine, comm.JobSpec{
						Ranks:    tc.ranks,
						EagerMax: confEagerMax,
						RTMode:   tg.rtmode,
					})
					if err != nil {
						t.Fatal(err)
					}
					runWatchdog(t, job, func(c comm.Peer) { tc.app(t, c) })
				})
			}
		})
	}
}

// The same contract on multi-node clusters: every conformance case runs on
// each registered multi-node preset under spread placement, so the pairs the
// cases exercise straddle node boundaries and the messages travel the
// network path (the sim's modelled links, rt's cross-node cell streaming)
// instead of shared memory — with identical semantics.
func TestConformanceMultiNodeTopologies(t *testing.T) {
	type target struct{ engine, rtmode string }
	targets := []target{{engine: "sim"}}
	for _, mode := range rt.ModeNames() {
		targets = append(targets, target{engine: "rt", rtmode: mode})
	}
	for _, topoName := range []string{"two-node", "four-node", "asym-4"} {
		cl, err := topo.LookupCluster(topoName)
		if err != nil {
			t.Fatal(err)
		}
		for _, tg := range targets {
			tg := tg
			name := topoName + "/" + tg.engine
			if tg.rtmode != "" {
				name += "-" + tg.rtmode
			}
			t.Run(name, func(t *testing.T) {
				for _, tc := range conformanceCases() {
					tc := tc
					t.Run(tc.name, func(t *testing.T) {
						job, err := comm.NewJob(tg.engine, comm.JobSpec{
							Ranks:     tc.ranks,
							EagerMax:  confEagerMax,
							RTMode:    tg.rtmode,
							Topology:  cl,
							Placement: "spread",
						})
						if err != nil {
							t.Fatal(err)
						}
						runWatchdog(t, job, func(c comm.Peer) { tc.app(t, c) })
					})
				}
			})
		}
	}
}

// Traffic must take the modelled path its placement implies: inter-node
// pairs ride the network channel, intra-node pairs stay on the node's
// shared-memory fast paths — on both engines.
func TestMultiNodeTrafficPaths(t *testing.T) {
	cl, err := topo.LookupCluster("two-node")
	if err != nil {
		t.Fatal(err)
	}
	pingpong := func(c comm.Peer) {
		for _, n := range []int64{64, eagerBytes, rendezvousLen} {
			buf := c.Alloc(n)
			switch c.Rank() {
			case 0:
				fill(buf, int(n))
				c.Send(1, 3, comm.Whole(buf))
			case 1:
				c.Recv(0, 3, comm.Whole(buf))
			}
		}
	}
	run := func(t *testing.T, engine, placement string) comm.Job {
		t.Helper()
		job, err := comm.NewJob(engine, comm.JobSpec{
			Ranks: 2, EagerMax: confEagerMax, Topology: cl, Placement: placement,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := job.Run(pingpong); err != nil {
			t.Fatal(err)
		}
		return job
	}

	t.Run("sim", func(t *testing.T) {
		// Spread: ranks 0 and 1 sit on different nodes; every message
		// crosses the cable and none rides a node channel.
		cs := run(t, "sim", "spread").(interface{ Cluster() *core.ClusterStack }).Cluster()
		// Msgs counts packets: two eager plus the rendezvous RTS/CTS/DATA.
		if cs.Net.Msgs != 5 {
			t.Errorf("spread: %d network packets, want 5", cs.Net.Msgs)
		}
		if cs.Net.EagerMsgs != 2 || cs.Net.RndvMsgs != 1 {
			t.Errorf("spread: net eager/rndv = %d/%d, want 2/1", cs.Net.EagerMsgs, cs.Net.RndvMsgs)
		}
		// Block: both ranks land on node 0 and the network stays silent.
		cs = run(t, "sim", "block").(interface{ Cluster() *core.ClusterStack }).Cluster()
		if cs.Net.Msgs != 0 {
			t.Errorf("block: %d network messages, want 0", cs.Net.Msgs)
		}
		if local := cs.Nodes[0].Ch.EagerMsgs + cs.Nodes[0].Ch.RndvMsgs; local != 3 {
			t.Errorf("block: %d node-channel messages, want 3", local)
		}
	})

	t.Run("rt", func(t *testing.T) {
		w := run(t, "rt", "spread").(interface{ World() *rt.World }).World()
		if got := w.NetMsgs.Load(); got != 3 {
			t.Errorf("spread: %d cross-node messages, want 3", got)
		}
		if got := w.FastboxMsgs.Load(); got != 0 {
			t.Errorf("spread: %d fastbox messages, want 0 (no shared memory across nodes)", got)
		}
		if got := w.RndvMsgs.Load(); got != 0 {
			t.Errorf("spread: %d rendezvous messages, want 0 (cross-node forces streaming)", got)
		}
		w = run(t, "rt", "block").(interface{ World() *rt.World }).World()
		if got := w.NetMsgs.Load(); got != 0 {
			t.Errorf("block: %d cross-node messages, want 0", got)
		}
		if got := w.FastboxMsgs.Load(); got == 0 {
			t.Error("block: the 64-byte message should have taken the fastbox")
		}
		if got := w.RndvMsgs.Load(); got != 1 {
			t.Errorf("block: %d rendezvous messages, want 1", got)
		}
	})
}

// pattern fills a deterministic byte stream for content verification.
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

// fill / verify move content through the engine-neutral Buf handle.
func fill(b comm.Buf, seed int) { copy(b.Bytes(), pattern(seed, int(b.Len()))) }

func verify(t *testing.T, b comm.Buf, off, n int64, seed int) {
	t.Helper()
	if !bytes.Equal(b.Bytes()[off:off+n], pattern(seed, int(n))) {
		t.Errorf("payload [%d,%d) does not match pattern %d", off, off+n, seed)
	}
}

// Zero-byte messages match like any other and complete with Bytes == 0,
// for both a zero Range and a zero-length view of a real buffer.
func zeroByteMessage(t *testing.T, c comm.Peer) {
	buf := c.Alloc(16)
	switch c.Rank() {
	case 0:
		c.Send(1, 5, comm.Range{})
		c.Send(1, 6, comm.R(buf, 8, 0))
	case 1:
		st := c.Recv(0, 5, comm.Range{})
		if st.Source != 0 || st.Tag != 5 || st.Bytes != 0 {
			t.Errorf("zero-byte status = %+v", st)
		}
		st = c.Recv(0, 6, comm.R(buf, 0, 0))
		if st.Bytes != 0 || st.Tag != 6 {
			t.Errorf("zero-view status = %+v", st)
		}
	}
}

// Receives match on tags, not arrival order: two messages sent tag 1 then
// tag 2 are received tag 2 first, each landing the payload of its tag.
// (The sends are nonblocking: a blocking rendezvous send may legitimately
// stall until its receive is posted, so receiving out of order against two
// blocking sends would not be deadlock-free MPI.)
func tagSelectiveMatching(t *testing.T, c comm.Peer) {
	for _, n := range []int64{eagerBytes, rendezvousLen} {
		switch c.Rank() {
		case 0:
			a, b := c.Alloc(n), c.Alloc(n)
			fill(a, 1)
			fill(b, 2)
			c.Waitall(c.Isend(1, 1, comm.Whole(a)), c.Isend(1, 2, comm.Whole(b)))
		case 1:
			got2, got1 := c.Alloc(n), c.Alloc(n)
			st := c.Recv(0, 2, comm.Whole(got2))
			if st.Tag != 2 {
				t.Errorf("tag-2 receive completed with tag %d", st.Tag)
			}
			verify(t, got2, 0, n, 2)
			st = c.Recv(0, 1, comm.Whole(got1))
			if st.Tag != 1 {
				t.Errorf("tag-1 receive completed with tag %d", st.Tag)
			}
			verify(t, got1, 0, n, 1)
		}
	}
}

// Same-pair, same-tag messages arrive in send order, across a mix of eager
// and rendezvous sizes.
func fifoOrderPerPair(t *testing.T, c comm.Peer) {
	const msgs = 24
	sizeOf := func(i int) int64 {
		if i%3 == 0 {
			return rendezvousLen
		}
		return eagerBytes
	}
	switch c.Rank() {
	case 0:
		for i := 0; i < msgs; i++ {
			buf := c.Alloc(sizeOf(i))
			fill(buf, i)
			c.Send(1, 7, comm.Whole(buf))
		}
	case 1:
		for i := 0; i < msgs; i++ {
			buf := c.Alloc(rendezvousLen)
			st := c.Recv(0, 7, comm.R(buf, 0, rendezvousLen))
			if st.Bytes != sizeOf(i) {
				t.Errorf("message %d: %d bytes, want %d (out of order?)", i, st.Bytes, sizeOf(i))
				return
			}
			verify(t, buf, 0, st.Bytes, i)
		}
	}
}

// Matching order is FIFO within each (source, tag) pair even when tags
// interleave: receiving one tag's stream out of band must not disturb the
// other's order. (Sends are nonblocking so the out-of-order receive side
// cannot deadlock against rendezvous handshakes.)
func fifoOrderPerSrcTag(t *testing.T, c comm.Peer) {
	const perTag = 6
	sizeOf := func(i int) int64 {
		if i%2 == 0 {
			return rendezvousLen
		}
		return eagerBytes
	}
	switch c.Rank() {
	case 0:
		var reqs []comm.Request
		var bufs []comm.Buf
		for i := 0; i < perTag; i++ {
			for _, tag := range []int{1, 2} {
				buf := c.Alloc(sizeOf(i))
				fill(buf, 100*tag+i)
				bufs = append(bufs, buf)
				reqs = append(reqs, c.Isend(1, tag, comm.Whole(buf)))
			}
		}
		c.Waitall(reqs...)
		_ = bufs
	case 1:
		// Drain tag 2's stream first, then tag 1's: each must still be
		// in its own send order.
		for _, tag := range []int{2, 1} {
			for i := 0; i < perTag; i++ {
				buf := c.Alloc(rendezvousLen)
				st := c.Recv(0, tag, comm.R(buf, 0, rendezvousLen))
				if st.Bytes != sizeOf(i) {
					t.Errorf("tag %d message %d: %d bytes, want %d (out of order?)",
						tag, i, st.Bytes, sizeOf(i))
					return
				}
				verify(t, buf, 0, st.Bytes, 100*tag+i)
			}
		}
	}
}

// MPI matching order: an arriving message goes to the oldest satisfiable
// posted receive. A wildcard receive posted before an exact receive must
// win the first matching message even though the exact one names it.
func wildcardPriorityOverLaterExact(t *testing.T, c comm.Peer) {
	const tag = 7
	switch c.Rank() {
	case 0:
		c.Recv(1, 99, comm.Range{}) // wait until both receives are posted
		a, b := c.Alloc(eagerBytes), c.Alloc(eagerBytes)
		fill(a, 1)
		fill(b, 2)
		c.Waitall(c.Isend(1, tag, comm.Whole(a)), c.Isend(1, tag, comm.Whole(b)))
	case 1:
		wild, exact := c.Alloc(eagerBytes), c.Alloc(eagerBytes)
		wildReq := c.Irecv(comm.AnySource, comm.AnyTag, comm.Whole(wild))
		exactReq := c.Irecv(0, tag, comm.Whole(exact))
		c.Send(0, 99, comm.Range{})
		wildSt := c.Wait(wildReq)
		exactSt := c.Wait(exactReq)
		if wildSt.Source != 0 || wildSt.Tag != tag {
			t.Errorf("wildcard receive completed with %+v", wildSt)
		}
		if exactSt.Tag != tag {
			t.Errorf("exact receive completed with %+v", exactSt)
		}
		verify(t, wild, 0, eagerBytes, 1)  // first message → older wildcard post
		verify(t, exact, 0, eagerBytes, 2) // second message → exact post
	}
}

// Interleaved unexpected/posted races: one phase receives messages that
// are already queued unexpected (posting in a different order than they
// were sent), the next posts receives before the sends exist — per-(src,
// tag) FIFO must hold throughout, at eager and rendezvous sizes.
func unexpectedPostedInterleave(t *testing.T, c comm.Peer) {
	sizes := []int64{eagerBytes, rendezvousLen}
	for _, n := range sizes {
		switch c.Rank() {
		case 0:
			// Phase 1: everything lands unexpected (handshake after).
			var reqs []comm.Request
			for i, tag := range []int{3, 4, 3} {
				buf := c.Alloc(n)
				fill(buf, 10*tag+i)
				reqs = append(reqs, c.Isend(1, tag, comm.Whole(buf)))
			}
			c.Send(1, 99, comm.Range{})
			c.Waitall(reqs...)
			// Phase 2: the receives are already posted (handshake first).
			c.Recv(1, 98, comm.Range{})
			for i, tag := range []int{6, 5} {
				buf := c.Alloc(n)
				fill(buf, 10*tag+i)
				c.Send(1, tag, comm.Whole(buf))
			}
		case 1:
			c.Recv(0, 99, comm.Range{})
			// Tag 4 first although it arrived second; then tag 3's two
			// messages in their own send order.
			for _, want := range []struct{ tag, seed int }{{4, 41}, {3, 30}, {3, 32}} {
				buf := c.Alloc(n)
				st := c.Recv(0, want.tag, comm.Whole(buf))
				if st.Bytes != n {
					t.Errorf("tag %d: %d bytes, want %d", want.tag, st.Bytes, n)
				}
				verify(t, buf, 0, n, want.seed)
			}
			b5, b6 := c.Alloc(n), c.Alloc(n)
			r5 := c.Irecv(0, 5, comm.Whole(b5))
			r6 := c.Irecv(0, 6, comm.Whole(b6))
			c.Send(0, 98, comm.Range{})
			c.Waitall(r5, r6)
			verify(t, b5, 0, n, 51)
			verify(t, b6, 0, n, 60)
		}
	}
}

// AnySource/AnyTag wildcards match every sender, and the status reports the
// actual source and tag.
func wildcardSourceAndTag(t *testing.T, c comm.Peer) {
	if c.Rank() == 0 {
		seen := map[int]bool{}
		for i := 0; i < c.Size()-1; i++ {
			buf := c.Alloc(eagerBytes)
			st := c.Recv(comm.AnySource, comm.AnyTag, comm.Whole(buf))
			if seen[st.Source] {
				t.Errorf("source %d matched twice", st.Source)
			}
			seen[st.Source] = true
			if st.Tag != 10+st.Source {
				t.Errorf("source %d arrived with tag %d", st.Source, st.Tag)
			}
			verify(t, buf, 0, eagerBytes, st.Source)
		}
	} else {
		buf := c.Alloc(eagerBytes)
		fill(buf, c.Rank())
		c.Send(0, 10+c.Rank(), comm.Whole(buf))
	}
}

// Sendrecv is deadlock-free even when every rank "sends first": a full
// ring exchange at rendezvous size completes on every engine.
func sendrecvRingNoDeadlock(t *testing.T, c comm.Peer) {
	n := c.Size()
	right := (c.Rank() + 1) % n
	left := (c.Rank() - 1 + n) % n
	send, recv := c.Alloc(rendezvousLen), c.Alloc(rendezvousLen)
	for round := 0; round < 3; round++ {
		fill(send, 100*round+c.Rank())
		st := c.Sendrecv(right, 20+round, comm.Whole(send), left, 20+round, comm.Whole(recv))
		if st.Source != left || st.Bytes != rendezvousLen {
			t.Errorf("round %d: status %+v", round, st)
		}
		verify(t, recv, 0, rendezvousLen, 100*round+left)
	}
}

// Waitall completes requests regardless of posting or completion order:
// receives posted before the matching sends exist, sends waited first.
func waitallOutOfOrder(t *testing.T, c comm.Peer) {
	const msgs = 4
	other := 1 - c.Rank()
	recvs := make([]comm.Buf, msgs)
	reqs := make([]comm.Request, 0, 2*msgs)
	// Post all receives (reverse tag order), then all sends.
	for i := msgs - 1; i >= 0; i-- {
		recvs[i] = c.Alloc(rendezvousLen)
		reqs = append(reqs, c.Irecv(other, 30+i, comm.Whole(recvs[i])))
	}
	sends := make([]comm.Buf, msgs)
	for i := 0; i < msgs; i++ {
		sends[i] = c.Alloc(rendezvousLen)
		fill(sends[i], 1000*c.Rank()+i)
		reqs = append(reqs, c.Isend(other, 30+i, comm.Whole(sends[i])))
	}
	c.Waitall(reqs...)
	for _, r := range reqs {
		if !r.Done() {
			t.Error("request not done after Waitall")
		}
	}
	for i := 0; i < msgs; i++ {
		verify(t, recvs[i], 0, rendezvousLen, 1000*other+i)
	}
}

// Messages arriving before a receive is posted (the unexpected queue) are
// delivered intact once it is, at eager and rendezvous sizes.
func unexpectedBeforePost(t *testing.T, c comm.Peer) {
	sizes := []int64{eagerBytes, rendezvousLen}
	switch c.Rank() {
	case 0:
		var reqs []comm.Request
		for i, n := range sizes {
			buf := c.Alloc(n)
			fill(buf, 40+i)
			reqs = append(reqs, c.Isend(1, 40+i, comm.Whole(buf)))
		}
		// Handshake once the sends are in flight (nonblocking, so the
		// rendezvous cannot deadlock against the unposted receives).
		c.Send(1, 99, comm.Range{})
		c.Waitall(reqs...)
	case 1:
		// Wait for the handshake first so the payloads are already queued
		// (or at least in flight) as unexpected messages.
		c.Recv(0, 99, comm.Range{})
		for i := len(sizes) - 1; i >= 0; i-- {
			buf := c.Alloc(sizes[i])
			st := c.Recv(0, 40+i, comm.Whole(buf))
			if st.Bytes != sizes[i] {
				t.Errorf("unexpected message %d: %d bytes, want %d", i, st.Bytes, sizes[i])
			}
			verify(t, buf, 0, sizes[i], 40+i)
		}
	}
}

// Every engine runs comm's collective algorithms over its own point-to-point
// and local copy, so their results belong in the contract: at 5 ranks (no
// power of two) a barrier, a bcast from a non-zero root, an Allreduce on the
// reduce + bcast path, a rotation Alltoall at rendezvous size and an
// irregular Alltoallv with empty blocks all deliver the right content.
func collectives(t *testing.T, c comm.Peer) {
	n, me := c.Size(), c.Rank()
	c.Barrier()

	const root = 3
	b := c.Alloc(rendezvousLen)
	if me == root {
		fill(b, 7)
	}
	c.Bcast(root, comm.Whole(b))
	verify(t, b, 0, rendezvousLen, 7)

	const elems = 16
	red := c.Alloc(8 * elems)
	for i := 0; i < elems; i++ {
		binary.LittleEndian.PutUint64(red.Bytes()[8*i:], uint64(me*elems+i))
	}
	c.Allreduce(comm.Whole(red), comm.SumInt64)
	for i := 0; i < elems; i++ {
		want := elems*n*(n-1)/2 + n*i // sum over ranks r of r*elems + i
		if got := int64(binary.LittleEndian.Uint64(red.Bytes()[8*i:])); got != int64(want) {
			t.Errorf("allreduce element %d = %d, want %d", i, got, want)
		}
	}

	block := int64(2 * confEagerMax)
	send, recv := c.Alloc(int64(n)*block), c.Alloc(int64(n)*block)
	for d := 0; d < n; d++ {
		copy(send.Bytes()[int64(d)*block:], pattern(100*me+d, int(block)))
	}
	c.Alltoall(send, recv, block)
	for s := 0; s < n; s++ {
		verify(t, recv, int64(s)*block, block, 100*s+me)
	}

	// Rank s sends count(s, d) bytes to d: 0, 3, 6 or 9 KiB, so some pairs
	// exchange nothing and some cross the rendezvous threshold.
	count := func(s, d int) int64 { return int64((s+2*d)%4) * 3 * 1024 }
	sendCounts, sendDispls := make([]int64, n), make([]int64, n)
	recvCounts, recvDispls := make([]int64, n), make([]int64, n)
	var sTot, rTot int64
	for p := 0; p < n; p++ {
		sendCounts[p], sendDispls[p] = count(me, p), sTot
		recvCounts[p], recvDispls[p] = count(p, me), rTot
		sTot += sendCounts[p]
		rTot += recvCounts[p]
	}
	vs, vr := c.Alloc(sTot), c.Alloc(rTot)
	for d := 0; d < n; d++ {
		copy(vs.Bytes()[sendDispls[d]:], pattern(1000+10*me+d, int(sendCounts[d])))
	}
	c.Alltoallv(vs, sendCounts, sendDispls, vr, recvCounts, recvDispls)
	for s := 0; s < n; s++ {
		verify(t, vr, recvDispls[s], recvCounts[s], 1000+10*s+me)
	}
}

// Concurrent same-pair rendezvous transfers must not interleave through a
// backend's shared per-connection staging (shm copy ring, vmsplice pipe):
// a regression test for the stageGate serialization, content-verified
// against every registered sim backend preset and every rt mode.
func TestConcurrentSamePairTransfersEveryBackend(t *testing.T) {
	type variant struct{ engine, lmt, rtmode string }
	var variants []variant
	for _, name := range core.Presets.Names() {
		variants = append(variants, variant{engine: "sim", lmt: name})
	}
	for _, mode := range rt.ModeNames() {
		variants = append(variants, variant{engine: "rt", rtmode: mode})
	}
	for _, v := range variants {
		v := v
		t.Run(v.engine+"/"+v.lmt+v.rtmode, func(t *testing.T) {
			job, err := comm.NewJob(v.engine, comm.JobSpec{
				Ranks: 2, EagerMax: confEagerMax, LMT: v.lmt, RTMode: v.rtmode,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := job.Run(func(c comm.Peer) { waitallOutOfOrder(t, c) }); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// The registry holds exactly the two shipped engines, in this order, with
// help text.
func TestEngineRegistrySurface(t *testing.T) {
	if names := comm.Engines.Names(); !slices.Equal(names, realEngines) {
		t.Fatalf("Engines.Names() = %v, want %v", names, realEngines)
	}
	for _, want := range realEngines {
		e, err := comm.Engines.Lookup(want)
		if err != nil {
			t.Fatal(err)
		}
		if e.Help == "" {
			t.Errorf("engine %q has no help text", e.Name)
		}
	}
	if _, err := comm.Engines.Lookup("no-such-engine"); err == nil {
		t.Fatal("Engines.Lookup of unknown engine did not error")
	} else {
		for _, want := range realEngines {
			if !bytes.Contains([]byte(err.Error()), []byte(want)) {
				t.Fatalf("lookup error %q does not list engine %q", err, want)
			}
		}
	}
}

// NewJob rejects a rank count below 1 itself, before any engine's factory
// sees the spec: the error is comm's, on every engine.
func TestNewJobRejectsBadRanks(t *testing.T) {
	for _, engine := range realEngines {
		for _, ranks := range []int{0, -1} {
			_, err := comm.NewJob(engine, comm.JobSpec{Ranks: ranks})
			if err == nil || !strings.HasPrefix(err.Error(), "comm: job needs at least 1 rank") {
				t.Errorf("%s: NewJob with %d ranks: %v, want comm's rank check", engine, ranks, err)
			}
		}
	}
}

// Both engines honour JobSpec.EagerMax as the rendezvous threshold and
// reject impossible specs.
func TestJobSpecValidation(t *testing.T) {
	if _, err := comm.NewJob("sim", comm.JobSpec{Ranks: 0}); err == nil {
		t.Error("0-rank sim job accepted")
	}
	if _, err := comm.NewJob("rt", comm.JobSpec{Ranks: -3}); err == nil {
		t.Error("negative-rank rt job accepted")
	}
	if _, err := comm.NewJob("sim", comm.JobSpec{Ranks: 99}); err == nil {
		t.Error("sim job with more ranks than cores accepted")
	}
	if _, err := comm.NewJob("sim", comm.JobSpec{Ranks: 2, LMT: "bogus"}); err == nil {
		t.Error("sim job with unknown LMT accepted")
	}
	if _, err := comm.NewJob("rt", comm.JobSpec{Ranks: 2, RTMode: "bogus"}); err == nil {
		t.Error("rt job with unknown mode accepted")
	}
}
