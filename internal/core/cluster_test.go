package core

import (
	"testing"

	"knemesis/internal/mem"
	"knemesis/internal/nemesis"
	"knemesis/internal/sim"
	"knemesis/internal/topo"
	"knemesis/internal/units"
)

func newTwoNodeCluster(t *testing.T, ranks int) *ClusterStack {
	t.Helper()
	tc := topo.TwoNode(4, sim.Microsecond, 1.25e9)
	pl, err := tc.Place(ranks)
	if err != nil {
		t.Fatal(err)
	}
	return NewClusterStack(sim.NewEngine(), pl, Options{Kind: KnemLMT}, nemesis.Config{})
}

func TestClusterCrossNodeSendRecv(t *testing.T) {
	// 8 ranks block-placed on two 4-core nodes: rank 0 and rank 4 are on
	// different nodes. Both an eager and a rendezvous message must arrive
	// intact, in order, over the modelled network.
	cs := newTwoNodeCluster(t, 8)
	ep0, ep4 := cs.Endpoint(0), cs.Endpoint(4)
	sizes := []int64{4 * units.KiB, 512 * units.KiB, 16 * units.KiB}
	bufs := make([]*mem.Buffer, len(sizes))
	var doneAt sim.Time
	cs.Eng.Spawn("sender", func(p *sim.Proc) {
		for i, n := range sizes {
			b := ep0.Space.Alloc(n)
			b.FillPattern(uint64(i + 7))
			ep0.Send(p, 4, 9, mem.VecOf(b))
		}
	})
	cs.Eng.Spawn("receiver", func(p *sim.Proc) {
		for i, n := range sizes {
			bufs[i] = ep4.Space.Alloc(n)
			req := ep4.Recv(p, 0, 9, mem.VecOf(bufs[i]))
			if req.ActualSize != n {
				t.Errorf("message %d: size %d, want %d (out of order?)", i, req.ActualSize, n)
			}
		}
		doneAt = p.Now()
	})
	if err := cs.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	for i, b := range bufs {
		want := ep4.Space.Alloc(b.Len())
		want.FillPattern(uint64(i + 7))
		if !mem.EqualBytes(b, want) {
			t.Fatalf("message %d corrupted over the network", i)
		}
	}
	if doneAt < sim.Microsecond {
		t.Fatalf("delivery at %v, faster than the 1µs link latency", doneAt)
	}
	if cs.Net.Msgs == 0 || cs.Net.Bytes == 0 {
		t.Fatal("network stats not accounted")
	}
	if cs.Net.EagerMsgs != 2 || cs.Net.RndvMsgs != 1 {
		t.Fatalf("net eager/rndv = %d/%d, want 2/1", cs.Net.EagerMsgs, cs.Net.RndvMsgs)
	}
	// One direct link: every payload byte crosses exactly one cable.
	if cs.Net.ByteHops != cs.Net.Bytes {
		t.Fatalf("ByteHops %d != Bytes %d on a single-hop route", cs.Net.ByteHops, cs.Net.Bytes)
	}
}

func TestClusterIntraNodeStaysLocal(t *testing.T) {
	// Ranks 0 and 1 share a node: their traffic must ride the shared-memory
	// channel and never touch the network.
	cs := newTwoNodeCluster(t, 8)
	ep0, ep1 := cs.Endpoint(0), cs.Endpoint(1)
	n := int64(256 * units.KiB)
	dst := ep1.Space.Alloc(n)
	cs.Eng.Spawn("sender", func(p *sim.Proc) {
		b := ep0.Space.Alloc(n)
		b.FillPattern(3)
		ep0.Send(p, 1, 0, mem.VecOf(b))
	})
	cs.Eng.Spawn("receiver", func(p *sim.Proc) {
		ep1.Recv(p, 0, 0, mem.VecOf(dst))
	})
	if err := cs.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := ep1.Space.Alloc(n)
	want.FillPattern(3)
	if !mem.EqualBytes(dst, want) {
		t.Fatal("intra-node message corrupted")
	}
	if cs.Net.Msgs != 0 {
		t.Fatalf("intra-node traffic crossed the network (%d msgs)", cs.Net.Msgs)
	}
	if cs.Nodes[0].Ch.RndvMsgs != 1 {
		t.Fatalf("node 0 rendezvous count %d, want 1", cs.Nodes[0].Ch.RndvMsgs)
	}
}

func TestClusterUnexpectedCrossNode(t *testing.T) {
	// Late-posted receives on both protocol paths (net eager parks in the
	// unexpected queue, net RTS parks and answers CTS on match).
	cs := newTwoNodeCluster(t, 8)
	ep0, ep4 := cs.Endpoint(0), cs.Endpoint(4)
	sizes := []int64{2 * units.KiB, 1 * units.MiB}
	bufs := make([]*mem.Buffer, len(sizes))
	cs.Eng.Spawn("sender", func(p *sim.Proc) {
		for i, n := range sizes {
			b := ep0.Space.Alloc(n)
			b.FillPattern(uint64(i + 1))
			ep0.Send(p, 4, i, mem.VecOf(b))
		}
	})
	cs.Eng.Spawn("receiver", func(p *sim.Proc) {
		p.Sleep(200 * sim.Microsecond) // both messages already arrived
		for i, n := range sizes {
			bufs[i] = ep4.Space.Alloc(n)
			ep4.Recv(p, 0, i, mem.VecOf(bufs[i]))
		}
	})
	if err := cs.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	for i, b := range bufs {
		want := ep4.Space.Alloc(b.Len())
		want.FillPattern(uint64(i + 1))
		if !mem.EqualBytes(b, want) {
			t.Fatalf("unexpected-path message %d corrupted", i)
		}
	}
}
