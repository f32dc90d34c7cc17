package experiments

import (
	"context"
	"fmt"

	"knemesis/internal/comm"
	"knemesis/internal/core"
	"knemesis/internal/topo"
	"knemesis/internal/units"
)

// The topology experiment takes the simulator above the single machine the
// paper measured: every registered multi-node cluster preset runs the data
// collectives at full capacity, once with the flat single-level algorithms
// and once with the topology-aware hierarchical ones, and the rows report
// simulated completion time next to the modelled network footprint (packets,
// payload bytes, byte-hops = payload x links travelled, wire bytes). The
// headline (asserted in topology_test.go up to a 1024-rank fat tree): node-
// leader hierarchies strictly shrink inter-node byte-hops versus the flat
// binomial/recursive-doubling algorithms.

func init() {
	Experiments.Register(Experiment{
		ID: "topology", Order: 14,
		Title: "Multi-node clusters: hierarchical vs flat collectives x topology preset",
		Run:   func(ctx context.Context, env Env) (Result, error) { return topology(ctx, env) },
	})
}

// DefaultTopologySizes sweeps one eager and one rendezvous-sized payload
// (the default inter-node eager cutoff is 64 KiB, so 128 KiB rides the
// RTS/CTS/DATA path).
func DefaultTopologySizes() []int64 { return []int64{4 * units.KiB, 128 * units.KiB} }

// TopologyClusterNames lists the presets the registry experiment sweeps.
func TopologyClusterNames() []string { return []string{"two-node", "fat-tree-16", "dragonfly-24"} }

// TopologyOps lists the swept collectives.
func TopologyOps() []string { return []string{"bcast", "allreduce", "alltoall"} }

// TopologyRow is one measured (topology, collectives, op, size) cell — the
// typed JSON artefact behind the rendered table.
type TopologyRow struct {
	Topology  string
	Ranks     int
	Nodes     int // nodes hosting ranks
	Coll      string
	Op        string
	Size      int64
	TimeSec   float64 // simulated seconds for the measured repetitions
	NetPkts   int64
	NetBytes  int64 // payload bytes entering the network
	ByteHops  int64 // payload bytes x links travelled
	LinkBytes int64 // wire bytes incl. per-packet envelopes, summed over links
}

// topologyResult couples the rendered table with its typed rows.
type topologyResult struct {
	Table
	TopoRows []TopologyRow
}

func (r topologyResult) Files() (map[string][]byte, error) {
	return jsonFiles(map[string]any{r.ID: r.TopoRows})
}

// topoReps is the measured repetition count per cell (the simulation is
// deterministic, so one repetition is exact; the constant exists so scaled
// sweeps can amortize a warm-up if the model ever grows state).
const topoReps = 1

// topologyCase is one self-contained cluster simulation of the sweep.
type topologyCase struct {
	cluster string
	ranks   int
	flat    bool
	op      string
	size    int64
}

// runTopologyCase simulates one cell: ranks ranks block-placed on cl run
// topoReps repetitions of op at size bytes, under hierarchical (flat=false)
// or single-level (flat=true) collectives. The row carries the simulated
// time between the enclosing barriers and the run's network footprint.
func runTopologyCase(ctx context.Context, cl *topo.Cluster, ranks int, flat bool, op string, size int64) (TopologyRow, error) {
	job, err := comm.NewJob("sim", comm.JobSpec{
		Ranks:           ranks,
		Topology:        cl,
		FlatCollectives: flat,
	})
	if err != nil {
		return TopologyRow{}, err
	}
	var elapsed comm.Time
	err = comm.WithContext(ctx, job).Run(func(c comm.Peer) {
		n := c.Size()
		buf := c.Alloc(size)
		var send, recv comm.Buf
		if op == "alltoall" {
			send, recv = c.Alloc(size*int64(n)), c.Alloc(size*int64(n))
		}
		c.Barrier()
		t0 := c.Elapsed()
		for rep := 0; rep < topoReps; rep++ {
			switch op {
			case "bcast":
				c.Bcast(0, comm.Whole(buf))
			case "allreduce":
				c.Allreduce(comm.Whole(buf), comm.SumInt64)
			case "alltoall":
				c.Alltoall(send, recv, size)
			default:
				panic(fmt.Sprintf("experiments: unknown topology op %q", op))
			}
		}
		c.Barrier()
		if c.Rank() == 0 {
			elapsed = c.Elapsed() - t0
		}
	})
	if err != nil {
		return TopologyRow{}, err
	}
	cs := job.(interface{ Cluster() *core.ClusterStack }).Cluster()
	coll := "hierarchical"
	if flat {
		coll = "flat"
	}
	var wire int64
	for _, b := range cs.Net.LinkBytes {
		wire += b
	}
	return TopologyRow{
		Topology:  cl.Name,
		Ranks:     ranks,
		Nodes:     len(cs.Nodes),
		Coll:      coll,
		Op:        op,
		Size:      size,
		TimeSec:   elapsed.Seconds(),
		NetPkts:   cs.Net.Msgs,
		NetBytes:  cs.Net.Bytes,
		ByteHops:  cs.Net.ByteHops,
		LinkBytes: wire,
	}, nil
}

// topology runs the sweep: every preset at full rank capacity, hierarchical
// vs flat, every op and size — one self-contained cluster simulation per
// cell, sharded across the worker pool (rows are index-addressed, so output
// is byte-identical at any pool width).
func topology(ctx context.Context, env Env) (topologyResult, error) {
	res := topologyResult{Table: Table{
		ID:     "topology",
		Title:  "Hierarchical vs flat collectives across cluster topologies",
		Header: []string{"Topology", "Ranks", "Nodes", "Coll", "Op", "Size", "Time", "Net pkts", "Net bytes", "Byte-hops", "Wire bytes"},
	}}
	var cases []topologyCase
	for _, name := range TopologyClusterNames() {
		cl, err := topo.LookupCluster(name)
		if err != nil {
			return res, err
		}
		ranks := cl.Capacity()
		for _, flat := range []bool{false, true} {
			for _, op := range TopologyOps() {
				for _, size := range env.TopoSizes {
					cases = append(cases, topologyCase{
						cluster: name, ranks: ranks,
						flat: flat, op: op, size: size,
					})
				}
			}
		}
	}

	rows := make([]TopologyRow, len(cases))
	err := forEach(ctx, env.workers(), len(cases), func(i int) error {
		cs := cases[i]
		// Each case builds its own cluster: presets are cheap to construct
		// and sharing one across concurrent simulations would share nothing
		// but bugs.
		cl, err := topo.LookupCluster(cs.cluster)
		if err != nil {
			return err
		}
		row, err := runTopologyCase(ctx, cl, cs.ranks, cs.flat, cs.op, cs.size)
		if err != nil {
			return fmt.Errorf("%s/%s/%s/%s: %w", cs.cluster, row.Coll, cs.op, units.FormatSize(cs.size), err)
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return res, err
	}

	res.TopoRows = rows
	for _, row := range rows {
		res.Rows = append(res.Rows, []string{
			row.Topology,
			fmt.Sprintf("%d", row.Ranks),
			fmt.Sprintf("%d", row.Nodes),
			row.Coll,
			row.Op,
			units.FormatSize(row.Size),
			fmt.Sprintf("%.2fus", row.TimeSec*1e6),
			fmt.Sprintf("%d", row.NetPkts),
			fmt.Sprintf("%d", row.NetBytes),
			fmt.Sprintf("%d", row.ByteHops),
			fmt.Sprintf("%d", row.LinkBytes),
		})
	}
	return res, nil
}
