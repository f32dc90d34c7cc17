package imb

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"knemesis/internal/comm"
	"knemesis/internal/core"
	"knemesis/internal/mpi"
	"knemesis/internal/nemesis"
	"knemesis/internal/sim"
	"knemesis/internal/topo"
	"knemesis/internal/units"
)

// eventStreamPins is the FNV-64a hash of every executed event's (at, seq),
// in execution order, followed by the engine's final Now(), for each case
// of TestEventStreamPinned. The goldens and the benchmark's MiB/s table pin
// what the simulator computes; this pins the order it computes it in, so a
// change to the engine that reorders a single tie fails here by name even
// when no reported number moves.
var eventStreamPins = map[string]uint64{
	"pingpong/default/shared/256KiB":         0x459fc97145893214,
	"pingpong/default/cross/256KiB":          0x8ac4fc4a68d0130e,
	"pingpong/vmsplice/shared/256KiB":        0xdd7644cc5545f938,
	"pingpong/vmsplice/cross/256KiB":         0x3d5d5acd063e61d8,
	"pingpong/vmsplice-writev/shared/256KiB": 0x2363feb302b9e100,
	"pingpong/vmsplice-writev/cross/256KiB":  0x23e71028d9f2d9cf,
	"pingpong/knem/shared/256KiB":            0x7c3c3b1036666a8c,
	"pingpong/knem/cross/256KiB":             0x2a05d23c3822d62,
	"pingpong/knem-ioat/shared/256KiB":       0x98301639630b8e85,
	"pingpong/knem-ioat/cross/256KiB":        0x35693cb6a0b0145c,
	"pingpong/cma/shared/256KiB":             0x9539a6d4fe40d36a,
	"pingpong/cma/cross/256KiB":              0x450992941fafa5ac,
	"alltoall8/knem-ioat/32KiB":              0x33871376d4cbde0f,
	"multipair4/default/cross/1MiB":          0x5429c482fe5dc13e,
}

type streamCase struct {
	name  string
	cores []topo.CoreID
	opt   core.Options
	cfg   nemesis.Config
	run   func(j comm.Job) error
}

func streamCases(t *testing.T) []streamCase {
	m := topo.XeonE5345()
	pingpong := func(j comm.Job) error {
		_, err := RunPingPong(j, []int64{256 * units.KiB})
		return err
	}
	var out []streamCase
	for _, b := range []struct {
		name string
		opt  core.Options
	}{
		{"default", core.Options{Kind: core.DefaultLMT}},
		{"vmsplice", core.Options{Kind: core.VmspliceLMT}},
		{"vmsplice-writev", core.Options{Kind: core.VmspliceWritevLMT}},
		{"knem", core.Options{Kind: core.KnemLMT, IOAT: core.IOATOff}},
		{"knem-ioat", core.Options{Kind: core.KnemLMT, IOAT: core.IOATAlways}},
		{"cma", core.Options{Kind: core.CMALMT}},
	} {
		s0, s1 := m.PairSharedCache()
		x0, x1 := m.PairDifferentDies()
		out = append(out,
			streamCase{name: "pingpong/" + b.name + "/shared/256KiB", cores: []topo.CoreID{s0, s1}, opt: b.opt, run: pingpong},
			streamCase{name: "pingpong/" + b.name + "/cross/256KiB", cores: []topo.CoreID{x0, x1}, opt: b.opt, run: pingpong})
	}
	out = append(out, streamCase{
		name: "alltoall8/knem-ioat/32KiB", cores: m.AllCores(),
		opt: core.Options{Kind: core.KnemLMT, IOAT: core.IOATAlways},
		cfg: nemesis.Config{EagerMax: 4 * units.KiB},
		run: func(j comm.Job) error {
			_, err := RunAlltoall(j, []int64{32 * units.KiB})
			return err
		},
	})
	pairs, err := m.CrossDiePairs(4)
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, streamCase{
		name: "multipair4/default/cross/1MiB", cores: topo.PairCores(pairs),
		opt: core.Options{Kind: core.DefaultLMT},
		run: func(j comm.Job) error {
			_, err := RunMultiPingPong(j, []int64{1 * units.MiB})
			return err
		},
	})
	return out
}

// TestEventStreamPinned runs a fixed set of benchmark cases with an event
// trace installed and compares each case's stream hash with its pin.
func TestEventStreamPinned(t *testing.T) {
	cases := streamCases(t)
	if len(cases) != len(eventStreamPins) {
		t.Fatalf("%d cases, %d pins", len(cases), len(eventStreamPins))
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			st := core.NewStack(topo.XeonE5345(), c.cores, c.opt, c.cfg)
			h := fnv.New64a()
			var buf [16]byte
			events := 0
			st.M.Eng.SetTrace(func(at sim.Time, seq uint64, _ sim.Domain) {
				binary.LittleEndian.PutUint64(buf[:8], uint64(at))
				binary.LittleEndian.PutUint64(buf[8:], seq)
				h.Write(buf[:])
				events++
			})
			if err := c.run(mpi.NewSimJob(st)); err != nil {
				t.Fatal(err)
			}
			binary.LittleEndian.PutUint64(buf[:8], uint64(st.M.Eng.Now()))
			h.Write(buf[:8])
			want, ok := eventStreamPins[c.name]
			if !ok {
				t.Fatalf("no pin for %s", c.name)
			}
			if got := h.Sum64(); got != want {
				t.Errorf("event stream hash %#x over %d events, pinned %#x: the engine executed events in a different (at, seq) order",
					got, events, want)
			}
		})
	}
}
