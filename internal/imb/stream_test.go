package imb

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"knemesis/internal/comm"
	"knemesis/internal/core"
	"knemesis/internal/hw"
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
	"pingpong/knem-ioat/shared/256KiB":       0x19102cc1d173ee1b,
	"pingpong/knem-ioat/cross/256KiB":        0x8278b0fe2729059f,
	"pingpong/cma/shared/256KiB":             0x9539a6d4fe40d36a,
	"pingpong/cma/cross/256KiB":              0x450992941fafa5ac,
	"alltoall8/knem-ioat/32KiB":              0x22d1a4308b046a3b,
	"multipair4/default/cross/1MiB":          0x5429c482fe5dc13e,
}

// resultPin is what a case computed: the engine's final Now() and the
// FNV-64a hash of the bits of Bus.Served followed by every core's
// CPU.Served. The stream pins may move with a change that runs fewer events
// for the same result; these must not.
type resultPin struct {
	now    sim.Time
	served uint64
}

var resultPins = map[string]resultPin{
	"pingpong/default/shared/256KiB":         {626189869, 0xa0fd9d71dd2c4735},
	"pingpong/default/cross/256KiB":          {2487783237, 0x48df1284b75a7aad},
	"pingpong/vmsplice/shared/256KiB":        {903559291, 0x27745cec354346d1},
	"pingpong/vmsplice/cross/256KiB":         {909323358, 0x40cb88338b0a8252},
	"pingpong/vmsplice-writev/shared/256KiB": {1333177582, 0x2307b132e1940c57},
	"pingpong/vmsplice-writev/cross/256KiB":  {3219797540, 0xee54f6521a736b8f},
	"pingpong/knem/shared/256KiB":            {678583267, 0xcc050313b94640bf},
	"pingpong/knem/cross/256KiB":             {682243310, 0x8b8a970f92bc518e},
	"pingpong/knem-ioat/shared/256KiB":       {1637242559, 0x7f94e396bbd1347f},
	"pingpong/knem-ioat/cross/256KiB":        {1640902602, 0x8ab6be0182b7568a},
	"pingpong/cma/shared/256KiB":             {673783231, 0x5957af5a1f960742},
	"pingpong/cma/cross/256KiB":              {677531274, 0x9ea522ee62c7e3f3},
	"alltoall8/knem-ioat/32KiB":              {6840959604, 0xba2c320579a80d4a},
	"multipair4/default/cross/1MiB":          {15398631434, 0x7d3d78dd1a7a268c},
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

// servedHash is the FNV-64a hash of the bits of m's bus and per-core
// served totals, bus first.
func servedHash(m *hw.Machine) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	put(m.Bus.Served())
	for _, c := range m.Cores {
		put(c.CPU.Served())
	}
	return h.Sum64()
}

// TestEventStreamPinned runs a fixed set of benchmark cases with an event
// trace installed and compares each case's stream hash with its pin.
func TestEventStreamPinned(t *testing.T) {
	cases := streamCases(t)
	if len(cases) != len(eventStreamPins) {
		t.Fatalf("%d cases, %d pins", len(cases), len(eventStreamPins))
	}
	if len(cases) != len(resultPins) {
		t.Fatalf("%d cases, %d result pins", len(cases), len(resultPins))
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
			got := resultPin{now: st.M.Eng.Now(), served: servedHash(st.M)}
			if got != resultPins[c.name] {
				t.Errorf("result {now %d, served %#x}, pinned {now %d, served %#x}: the simulator computed a different result",
					got.now, got.served, resultPins[c.name].now, resultPins[c.name].served)
			}
		})
	}
}
