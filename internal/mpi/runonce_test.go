package mpi

import (
	"fmt"
	"strings"
	"testing"

	"knemesis/internal/comm"
	"knemesis/internal/core"
	"knemesis/internal/hw"
	"knemesis/internal/mem"
	"knemesis/internal/nemesis"
	"knemesis/internal/sim"
	"knemesis/internal/topo"
	"knemesis/internal/units"
)

// pingPongJob is a 2-rank cross-die sim job under the given LMT.
func pingPongJob(kind core.Kind) *simJob {
	m := topo.XeonE5345()
	c0, c1 := m.PairDifferentDies()
	st := core.NewStack(m, []topo.CoreID{c0, c1}, core.Options{Kind: kind}, nemesis.Config{})
	return NewSimJob(st).(*simJob)
}

// pingPong runs rounds round trips of size bytes between ranks 0 and 1.
func pingPong(size int64, rounds int) func(c comm.Peer) {
	return func(c comm.Peer) {
		buf := c.AllocBench(size)
		r := comm.Range{Buf: buf, Len: size}
		for i := 0; i < rounds; i++ {
			if c.Rank() == 0 {
				c.Send(1, i, r)
				c.Recv(1, i, r)
			} else {
				c.Recv(0, i, r)
				c.Send(0, i, r)
			}
		}
	}
}

// A sim job releases its machines' cache state when its run ends. What it
// reports afterwards — misses, usage, the L2 statistics — reads as it does
// for the same run left unreleased, a cache operation on its machine
// panics, and a second Run returns an error naming the job.
func TestSimJobReleasesAndRunsOnce(t *testing.T) {
	app := pingPong(256*units.KiB, 3)
	ref := pingPongJob(core.DefaultLMT)
	eng := ref.eng()
	for rank := 0; rank < ref.size; rank++ {
		ep := ref.endpoint(rank)
		eng.Spawn(fmt.Sprintf("mpi-rank%d", rank), func(p *sim.Proc) {
			app(&simPeer{j: ref, rank: rank, ep: ep, p: p})
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	eng.Terminate()

	job := pingPongJob(core.DefaultLMT)
	if err := job.Run(app); err != nil {
		t.Fatal(err)
	}
	m, refM := job.nodes()[0].M, ref.nodes()[0].M
	if job.MissLines() != ref.MissLines() || m.TotalL2Stats() != refM.TotalL2Stats() {
		t.Fatalf("after the release: %d miss lines, stats %+v; unreleased: %d, %+v",
			job.MissLines(), m.TotalL2Stats(), ref.MissLines(), refM.TotalL2Stats())
	}
	if got, want := job.Usage(), ref.Usage(); got.Elapsed != want.Elapsed ||
		got.BusBytesServed != want.BusBytesServed || got.TotalCoreBusySec() != want.TotalCoreBusySec() {
		t.Fatalf("usage after the release %+v, unreleased %+v", got, want)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a copy on the finished job's machine did not panic: its caches were not released")
			}
		}()
		buf := m.Mem.NewSharedSpace("late").AllocPhantom(units.KiB)
		r := mem.Region{Buf: buf, Len: buf.Len()}
		m.CopyRange(nil, 0, r, r, hw.CopyOpts{NoTime: true})
	}()

	err := job.Run(app)
	if err == nil || !strings.Contains(err.Error(), `job "default"`) {
		t.Fatalf("a second Run returned %v, want an error naming the job", err)
	}
}
