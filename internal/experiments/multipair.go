package experiments

import (
	"context"
	"fmt"

	"knemesis/internal/comm"
	"knemesis/internal/core"
	"knemesis/internal/imb"
	"knemesis/internal/mpi"
	"knemesis/internal/nemesis"
	"knemesis/internal/topo"
	"knemesis/internal/units"
)

// The multipair experiment goes beyond the paper's one-pair-at-a-time
// evaluation: N independent PingPong pairs run concurrently inside one
// simulation, so they genuinely contend for the shared FSB and the L2
// fluids. Every registered backend is swept at N = 1, 2, 4 pairs under both
// placements; rows report aggregate throughput, scaling versus the solo
// (N=1) row, bus utilization and CPU busy seconds from hw.Utilization.
//
// The headline result (asserted in multipair_test.go): at 1 MiB the default
// two-copy LMT saturates the bus and collapses below 2x its solo throughput
// at 4 cross-die pairs, while the single-copy backends stay cache-resident
// and scale essentially linearly.

func init() {
	Experiments.Register(Experiment{
		ID: "multipair", Order: 10,
		Title: "Multi-PingPong contention: N concurrent pairs x backend x placement",
		Run:   func(ctx context.Context, env Env) (Result, error) { return multipair(ctx, env) },
	})
}

// DefaultMultiPairSizes spans the three contention regimes: in-cache,
// the collapse knee at the L2 boundary, and past-cache streaming.
func DefaultMultiPairSizes() []int64 {
	return []int64{256 * units.KiB, 1 * units.MiB, 4 * units.MiB}
}

// MultiPairCounts is the swept pair-count axis (machines that cannot host a
// count under a placement skip those rows).
func MultiPairCounts() []int { return []int{1, 2, 4} }

// MultipairRow is one measured (backend, placement, pairs, size) cell — the
// typed JSON artefact behind the rendered table.
type MultipairRow struct {
	Backend     string
	Placement   string
	Pairs       int
	Size        int64
	AggMiBps    float64
	ScaleVsSolo float64 // aggregate over the solo (Pairs=1) aggregate
	BusUtil     float64
	CPUBusySec  float64
	CoreBusySec []float64
}

// multipairResult couples the rendered table with its typed rows.
type multipairResult struct {
	Table
	MultiRows []MultipairRow
}

func (r multipairResult) Files() (map[string][]byte, error) {
	return jsonFiles(map[string]any{r.ID: r.MultiRows})
}

// multipairCase is one sharded stack simulation of the sweep.
type multipairCase struct {
	kind      core.Kind
	placement string
	pairs     int
	cores     []topo.CoreID
}

// multipairPlacements enumerates the (placement, pairs) grid that fits the
// machine, in deterministic order.
func multipairPlacements(m *topo.Machine) []multipairCase {
	var out []multipairCase
	for _, placement := range []string{"shared", "cross"} {
		for _, n := range MultiPairCounts() {
			var pairs [][2]topo.CoreID
			var err error
			if placement == "shared" {
				pairs, err = m.SharedCachePairs(n)
			} else {
				pairs, err = m.CrossDiePairs(n)
			}
			if err != nil {
				continue // machine cannot host this many pairs this way
			}
			out = append(out, multipairCase{placement: placement, pairs: n, cores: topo.PairCores(pairs)})
		}
	}
	return out
}

// multipair runs the sweep: every registered backend x every placement x
// N = 1, 2, 4 pairs, one self-contained stack per case sharded across the
// worker pool (rows are index-addressed, so output is byte-identical at any
// pool width).
func multipair(ctx context.Context, env Env) (multipairResult, error) {
	res := multipairResult{Table: Table{
		ID:     "multipair",
		Title:  "Multi-PingPong aggregate throughput under N-pair contention",
		Header: []string{"Backend", "Placement", "Pairs", "Size", "Agg MiB/s", "x solo", "Bus util", "CPU busy"},
	}}
	var cases []multipairCase
	for _, kind := range core.Names() {
		for _, pc := range multipairPlacements(env.Machine) {
			pc.kind = kind
			cases = append(cases, pc)
		}
	}

	results := make([]imb.MultiResult, len(cases))
	err := forEach(ctx, env.workers(), len(cases), func(i int) error {
		cs := cases[i]
		st := core.NewStack(env.Machine, cs.cores, core.Options{Kind: cs.kind}, nemesis.Config{})
		r, err := imb.RunMultiPingPong(comm.WithContext(ctx, mpi.NewSimJob(st)), env.MultiSizes)
		if err != nil {
			return fmt.Errorf("%s/%s/%d pairs: %w", cs.kind, cs.placement, cs.pairs, err)
		}
		results[i] = r
		return nil
	})
	if err != nil {
		return res, err
	}

	// Solo (pairs=1) aggregates keyed by backend/placement/size, for the
	// scaling column.
	solo := map[string]float64{}
	key := func(kind core.Kind, placement string, size int64) string {
		return fmt.Sprintf("%s/%s/%d", kind, placement, size)
	}
	for i, cs := range cases {
		if cs.pairs != 1 {
			continue
		}
		for _, pt := range results[i].Points {
			solo[key(cs.kind, cs.placement, pt.Size)] = pt.Throughput
		}
	}

	for i, cs := range cases {
		for _, pt := range results[i].Points {
			row := MultipairRow{
				Backend:     string(cs.kind),
				Placement:   cs.placement,
				Pairs:       cs.pairs,
				Size:        pt.Size,
				AggMiBps:    pt.Throughput,
				BusUtil:     pt.BusUtil,
				CPUBusySec:  pt.CPUBusySec,
				CoreBusySec: pt.CoreBusySec,
			}
			if s := solo[key(cs.kind, cs.placement, pt.Size)]; s > 0 {
				row.ScaleVsSolo = pt.Throughput / s
			}
			res.MultiRows = append(res.MultiRows, row)
			res.Rows = append(res.Rows, []string{
				row.Backend,
				row.Placement,
				fmt.Sprintf("%d", row.Pairs),
				units.FormatSize(row.Size),
				fmt.Sprintf("%.0f", row.AggMiBps),
				fmt.Sprintf("%.2f", row.ScaleVsSolo),
				fmt.Sprintf("%.2f", row.BusUtil),
				fmt.Sprintf("%.4fs", row.CPUBusySec),
			})
		}
	}
	return res, nil
}
