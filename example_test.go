package knemesis_test

import (
	"context"
	"fmt"
	"os"
	"strings"

	"knemesis"
	"knemesis/internal/mem"
	"knemesis/internal/mpi"
	"knemesis/internal/nas"
	"knemesis/internal/topo"
	"knemesis/internal/units"
)

// One workload, two engines. The IMB PingPong driver is written once
// against the engine-neutral Peer/Job interface, so the very same sweep
// runs on the deterministic simulator (reproducing the paper's Figure 5
// shape: kernel-assisted single-copy transfers beat the double-buffered
// default when the cores do not share a cache) and on the real goroutine
// runtime. Wall-clock speed varies run to run, so the rt half prints the
// exact message counts; `go test -run '^$' -bench RTPingPong ./internal/rt`
// measures its speed.
func Example_quickstart() {
	sizes := []int64{256 * units.KiB, 1 * units.MiB}
	machine := knemesis.XeonE5345()
	c0, c1 := machine.PairDifferentDies()

	fmt.Printf("IMB PingPong, one driver source, every engine (%s)\n\n", units.FormatSize(sizes[len(sizes)-1]))

	fmt.Printf("engine sim: %s, cores %d and %d (no shared cache), simulated time\n", machine.Name, c0, c1)
	// Every registered -lmt preset, straight from the backend registry: a
	// newly registered backend appears here with no example change.
	for _, spec := range knemesis.LMTSpecs.All() {
		job, err := knemesis.NewJob("sim", knemesis.JobSpec{
			Ranks:   2,
			Machine: machine,
			Cores:   []knemesis.CoreID{c0, c1},
			LMT:     spec.Name,
		})
		if err != nil {
			panic(err)
		}
		res, err := knemesis.RunPingPong(job, sizes)
		if err != nil {
			panic(err)
		}
		fmt.Printf("  %-14s", res.Label)
		for _, pt := range res.Points {
			fmt.Printf("  %s: %7.0f MiB/s", units.FormatSize(pt.Size), pt.Throughput)
		}
		fmt.Println()
	}

	fmt.Printf("\nengine rt: 2 rank goroutines, messages counted by the runtime\n")
	for _, mode := range knemesis.RTModeNames() {
		job, err := knemesis.NewJob("rt", knemesis.JobSpec{Ranks: 2, RTMode: mode})
		if err != nil {
			panic(err)
		}
		res, err := knemesis.RunPingPong(job, sizes)
		if err != nil {
			panic(err)
		}
		w := rtWorld(job)
		fmt.Printf("  %-14s  eager %2d  rendezvous %2d  bytes moved %d\n", res.Label,
			w.EagerMsgs.Load(), w.RndvMsgs.Load(), w.BytesMoved.Load())
	}

	fmt.Println("\nExpected shape (paper, Fig. 5): knem > vmsplice > default on the")
	fmt.Println("simulator. On the real runtime only eager sends large messages as")
	fmt.Println("cell copies; the other modes hand them to the single-copy rendezvous.")

	// Output:
	// IMB PingPong, one driver source, every engine (1MiB)
	//
	// engine sim: Xeon E5345 (2x4 cores, 4MiB L2 per pair), cores 0 and 2 (no shared cache), simulated time
	//   default         256KiB:    1228 MiB/s  1MiB:    1254 MiB/s
	//   vmsplice        256KiB:    3685 MiB/s  1MiB:    3621 MiB/s
	//   vmsplice-writev  256KiB:     962 MiB/s  1MiB:     958 MiB/s
	//   knem            256KiB:    5110 MiB/s  1MiB:    5183 MiB/s
	//   knem+ioat       256KiB:    1829 MiB/s  1MiB:    2445 MiB/s
	//   knem+ioat-auto  256KiB:    5110 MiB/s  1MiB:    5183 MiB/s
	//   knem/async-kthread  256KiB:    2648 MiB/s  1MiB:    2729 MiB/s
	//   cma             256KiB:    5151 MiB/s  1MiB:    5193 MiB/s
	//
	// engine rt: 2 rank goroutines, messages counted by the runtime
	//   eager           eager 28  rendezvous  0  bytes moved 11534336
	//   single-copy     eager  8  rendezvous 20  bytes moved 11534336
	//   offload         eager  8  rendezvous 20  bytes moved 11534336
	//
	// Expected shape (paper, Fig. 5): knem > vmsplice > default on the
	// simulator. On the real runtime only eager sends large messages as
	// cell copies; the other modes hand them to the single-copy rendezvous.
}

// rtWorld returns the runtime world behind an "rt" job, whose message
// counters are folded in when the job's Run returns.
func rtWorld(job knemesis.Job) *knemesis.RTWorld {
	return job.(interface{ World() *knemesis.RTWorld }).World()
}

// The paper's design in real Go concurrency, driven through the
// engine-neutral interface. Two rank goroutines exchange messages through
// Nemesis-style lock-free queues; large messages either go eagerly (two
// copies, the double-buffering analogue), by single-copy rendezvous (what
// KNEM needs a kernel module for, free here because goroutines share an
// address space), or offloaded to copy goroutines started per transfer
// (the kernel-thread analogue). Each cell is one PingPong sweep at one size
// and counts its rendezvous messages among all the messages it sent (the
// barriers around the sweep are small eager messages).
func Example_rtPingPong() {
	sizes := []int64{4 * units.KiB, 64 * units.KiB, 1 * units.MiB, 4 * units.MiB}
	modes := knemesis.RTModeNames()

	fmt.Printf("%-12s", "size")
	for _, mode := range modes {
		fmt.Printf(" %14s", mode)
	}
	fmt.Println("   (rendezvous / all messages)")
	for _, size := range sizes {
		fmt.Printf("%-12s", units.FormatSize(size))
		for _, mode := range modes {
			job, err := knemesis.NewJob("rt", knemesis.JobSpec{Ranks: 2, RTMode: mode})
			if err != nil {
				panic(err)
			}
			if _, err := knemesis.RunPingPong(job, []int64{size}); err != nil {
				panic(err)
			}
			w := rtWorld(job)
			rndv := w.RndvMsgs.Load()
			fmt.Printf(" %14s", fmt.Sprintf("%d / %d", rndv, rndv+w.EagerMsgs.Load()))
		}
		fmt.Println()
	}

	fmt.Println("\nAbove the 64 KiB rendezvous threshold every ping-pong message moves")
	fmt.Println("once, out of the sender's buffer, unless the mode is eager. Speed:")
	fmt.Println("go test -run '^$' -bench RTPingPong ./internal/rt")

	// Output:
	// size                  eager    single-copy        offload   (rendezvous / all messages)
	// 4KiB                 0 / 22         0 / 22         0 / 22
	// 64KiB                0 / 22         0 / 22         0 / 22
	// 1MiB                 0 / 12         8 / 12         8 / 12
	// 4MiB                 0 / 12         8 / 12         8 / 12
	//
	// Above the 64 KiB rendezvous threshold every ping-pong message moves
	// once, out of the sender's buffer, unless the mode is eager. Speed:
	// go test -run '^$' -bench RTPingPong ./internal/rt
}

// An 8-rank Alltoall (the paper's Figure 7 workload) at a few block sizes
// under each LMT, in aggregated throughput: the pattern where
// kernel-assisted transfers help most, because every core is busy and
// cache pollution compounds across ranks.
func Example_collectives() {
	machine := knemesis.XeonE5345()
	sizes := []int64{32 * units.KiB, 256 * units.KiB, 1 * units.MiB}

	fmt.Printf("IMB Alltoall, 8 ranks on %s\n", machine.Name)
	fmt.Printf("%-10s", "size")
	opts := knemesis.StandardLMTOptions()
	for _, opt := range opts {
		fmt.Printf(" %16s", opt.Label())
	}
	fmt.Println("   (aggregated MiB/s)")

	results := make([][]float64, len(sizes))
	for oi, opt := range opts {
		// The kernel-assisted backends profit from a lower rendezvous
		// threshold in collectives (§4.4) — 4 KiB instead of 64 KiB.
		cfg := knemesis.ChannelConfig{}
		if opt.Kind != knemesis.DefaultLMT {
			cfg.EagerMax = 4 * units.KiB
		}
		st := knemesis.NewStack(machine, machine.AllCores(), opt, cfg)
		res, err := knemesis.RunAlltoall(knemesis.NewSimJob(st), sizes)
		if err != nil {
			panic(err)
		}
		for si, pt := range res.Points {
			if results[si] == nil {
				results[si] = make([]float64, len(opts))
			}
			results[si][oi] = pt.Throughput
		}
	}
	for si, size := range sizes {
		fmt.Printf("%-10s", units.FormatSize(size))
		for _, v := range results[si] {
			fmt.Printf(" %16.0f", v)
		}
		fmt.Println()
	}
	fmt.Println("\nExpected shape (paper, Fig. 7): KNEM several times the default at")
	fmt.Println("medium sizes; I/OAT offload takes over as blocks grow.")

	// Output:
	// IMB Alltoall, 8 ranks on Xeon E5345 (2x4 cores, 4MiB L2 per pair)
	// size                default         vmsplice             knem   knem+ioat-auto   (aggregated MiB/s)
	// 32KiB                  3382            12312            15176            15176
	// 256KiB                 1425             2290             2281             2281
	// 1MiB                   1468             2223             2213             3528
	//
	// Expected shape (paper, Fig. 7): KNEM several times the default at
	// medium sizes; I/OAT offload takes over as blocks grow.
}

// The paper's headline application benchmark: the integer sort, whose
// alltoallv moves ~2 MiB per rank pair per iteration at class B, under the
// four LMT configurations, printed as the Table 1 row with its speedup
// column. The key volume is cut to 1/32 of class B (64 KiB per rank pair)
// so the example stays fast under the race detector; `knemsim -experiment
// table1` runs the full class B suite.
func Example_nasIS() {
	machine := knemesis.XeonE5345()
	kernel := nas.ISSized(1<<20, 5, 8) // 1M keys, 5 iterations

	fmt.Printf("NAS IS proxy (%d ranks, reduced size) on %s\n", kernel.Procs, machine.Name)
	fmt.Println("The sort really runs: keys are generated, redistributed by bucket")
	fmt.Println("through Alltoallv, counting-sorted and globally verified.")
	fmt.Println()

	res, err := knemesis.RunExperiment(context.Background(), "table1", knemesis.ExperimentEnv{Machine: machine, Kernels: []nas.Kernel{kernel}})
	if err != nil {
		panic(err)
	}
	res.Render(os.Stdout)

	fmt.Println("\nPaper (full class B): default 2.34 s -> KNEM+I/OAT 1.86 s, +25.8%.")
	fmt.Println("The simulated default column is calibrated; the other columns are")
	fmt.Println("model predictions (see EXPERIMENTS.md).")

	// Output:
	// NAS IS proxy (8 ranks, reduced size) on Xeon E5345 (2x4 cores, 4MiB L2 per pair)
	// The sort really runs: keys are generated, redistributed by bucket
	// through Alltoallv, counting-sorted and globally verified.
	//
	// # table1: Execution time of some NAS Parallel Benchmarks
	// NAS Kernel  default LMT  vmsplice LMT  KNEM kernel copy  KNEM I/OAT  Speedup
	// is.scaled   0.04 s       0.03 s        0.03 s            0.03 s      +16.6%
	//
	// Paper (full class B): default 2.34 s -> KNEM+I/OAT 1.86 s, +25.8%.
	// The simulated default column is calibrated; the other columns are
	// model predictions (see EXPERIMENTS.md).
}

// Noncontiguous datatypes: KNEM supports "vectorial buffers" — strided,
// scatter/gather transfers without an intermediate packing copy — which
// the paper lists as an advantage over LIMIC2 (§5). This example sends the
// interior column of a simulated 2-D grid (an MPI_Type_vector) between two
// ranks, comparing the KNEM single-copy path against the default LMT, and
// verifies the strided payload lands correctly.
func Example_noncontig() {
	const (
		rows     = 256
		rowBytes = 8 * units.KiB // 2 MiB grid; the column block is 2 KiB wide
		colBytes = 2 * units.KiB
	)
	machine := knemesis.XeonE5345()
	c0, c1 := machine.PairDifferentDies()
	fmt.Printf("sending a strided column (%d blocks x %s every %s = %s payload)\n\n",
		rows, units.FormatSize(colBytes), units.FormatSize(rowBytes),
		units.FormatSize(rows*colBytes))

	for _, opt := range []knemesis.LMTOptions{
		{Kind: knemesis.DefaultLMT},
		{Kind: knemesis.KnemLMT, IOAT: knemesis.IOATOff},
	} {
		st := knemesis.NewStack(machine, []knemesis.CoreID{c0, c1}, opt, knemesis.ChannelConfig{})
		var elapsed float64
		err := knemesis.NewSimJob(st).Run(func(p knemesis.Peer) {
			grid := p.Alloc(rows * rowBytes).(*mem.Buffer)
			if p.Rank() == 0 {
				grid.FillPattern(5)
				col := mpi.TypeVector(grid, rows, colBytes, rowBytes)
				v := p.(interface {
					knemesis.Peer
					SendVec(dst, tag int, v mem.IOVec)
				})
				v.SendVec(1, 0, col) // warm-up
				t0 := p.Elapsed()
				v.SendVec(1, 0, col)
				elapsed = (p.Elapsed() - t0).Seconds()
			} else {
				// Receive the column contiguously (gather semantics).
				flat := p.Alloc(rows * colBytes).(*mem.Buffer)
				p.Recv(0, 0, knemesis.WholeBuf(flat))
				p.Recv(0, 0, knemesis.WholeBuf(flat))
				// Verify a strided sample against the source pattern.
				ref := p.Alloc(rows * rowBytes).(*mem.Buffer)
				ref.FillPattern(5)
				for r := 0; r < rows; r += 37 {
					want := ref.Slice(int64(r)*rowBytes, colBytes)
					got := flat.Slice(int64(r)*colBytes, colBytes)
					if !mem.EqualBytes(want, got) {
						panic(fmt.Sprintf("row %d corrupted", r))
					}
				}
			}
		})
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-10s %8.0f MiB/s\n", opt.Label(), units.MiBps(rows*colBytes, elapsed))
	}
	fmt.Println("\nKNEM moves the strided vector in one kernel pass (no pack/unpack);")
	fmt.Println("the default LMT pumps it through 32 KiB shared-memory slots.")

	// Output:
	// sending a strided column (256 blocks x 2KiB every 8KiB = 512KiB payload)
	//
	// default        1246 MiB/s
	// knem           4447 MiB/s
	//
	// KNEM moves the strided vector in one kernel pass (no pack/unpack);
	// the default LMT pumps it through 32 KiB shared-memory slots.
}

// The paper's §3.5 policy study: the DMAmin formula's values for several
// machines and placements, then the measured copy-vs-I/OAT crossover on the
// simulator, which the formula predicts.
func Example_threshold() {
	fmt.Println("DMAmin = CacheSize / (2 x processes sharing the cache)   (paper §3.5)")
	fmt.Println()
	for _, m := range []*knemesis.Machine{knemesis.XeonE5345(), knemesis.XeonX5460(), knemesis.NehalemStyle()} {
		fmt.Printf("%s\n", m.Name)
		fmt.Printf("  shared-cache pair : DMAmin = %s\n", units.FormatSize(m.DMAMin(2)))
		fmt.Printf("  unshared pair     : DMAmin = %s\n", units.FormatSize(m.DMAMin(1)))
		fmt.Printf("  one rank per core : DMAmin = %s (architecture-only formula)\n",
			units.FormatSize(m.DMAMin(len(m.L2Domains[m.L2Of(0)]))))
		fmt.Println()
	}

	fmt.Println("Measured crossover (first size where I/OAT beats the kernel copy):")
	res, err := knemesis.RunExperiment(context.Background(), "thresholds", knemesis.ExperimentEnv{})
	if err != nil {
		panic(err)
	}
	res.Render(os.Stdout)
	fmt.Println()
	fmt.Println("Paper calibration points: 1MiB shared / 2MiB unshared on the 4MiB-L2")
	fmt.Println("host; the 6MiB-L2 host raises thresholds by 50%.")

	// Output:
	// DMAmin = CacheSize / (2 x processes sharing the cache)   (paper §3.5)
	//
	// Xeon E5345 (2x4 cores, 4MiB L2 per pair)
	//   shared-cache pair : DMAmin = 1MiB
	//   unshared pair     : DMAmin = 2MiB
	//   one rank per core : DMAmin = 1MiB (architecture-only formula)
	//
	// Xeon X5460 (4 cores, 6MiB L2 per pair)
	//   shared-cache pair : DMAmin = 1.5MiB
	//   unshared pair     : DMAmin = 3MiB
	//   one rank per core : DMAmin = 1.5MiB (architecture-only formula)
	//
	// Nehalem-style (8 cores, one shared 8MiB LLC)
	//   shared-cache pair : DMAmin = 2MiB
	//   unshared pair     : DMAmin = 4MiB
	//   one rank per core : DMAmin = 512KiB (architecture-only formula)
	//
	// Measured crossover (first size where I/OAT beats the kernel copy):
	// # thresholds: DMAmin formula vs measured I/OAT crossover (section 3.5)
	// Xeon E5345 (2x4 cores, 4MiB L2 per pair)      shared cache    formula=1MiB     measured=1.5MiB
	// Xeon E5345 (2x4 cores, 4MiB L2 per pair)      different dies  formula=2MiB     measured=3MiB
	// Xeon X5460 (4 cores, 6MiB L2 per pair)        shared cache    formula=1.5MiB   measured=2MiB
	// Xeon X5460 (4 cores, 6MiB L2 per pair)        different dies  formula=3MiB     measured=4MiB
	//
	// Paper calibration points: 1MiB shared / 2MiB unshared on the 4MiB-L2
	// host; the 6MiB-L2 host raises thresholds by 50%.
}

// The committed DOT cluster descriptions, which `imb -topo` and knemd's
// "topology" spec value take: each parses into a cluster of hosts (nodes
// with cores) and switches (nodes without), and its capacity is the rank
// count it can place.
func Example_topologies() {
	for _, file := range []string{"two-node.dot", "tree-4.dot"} {
		src, err := os.ReadFile("examples/topologies/" + file)
		if err != nil {
			panic(err)
		}
		cl, err := topo.ParseDOT(string(src))
		if err != nil {
			panic(err)
		}
		var hosts []string
		for _, h := range cl.Hosts() {
			hosts = append(hosts, cl.Nodes[h].Name)
		}
		fmt.Printf("%s: cluster %s, hosts %s, capacity %d ranks\n",
			file, cl.Name, strings.Join(hosts, " "), cl.Capacity())
	}

	// Output:
	// two-node.dot: cluster two_node, hosts n0 n1, capacity 16 ranks
	// tree-4.dot: cluster tree_4, hosts h0 h1 h2 h3, capacity 16 ranks
}
