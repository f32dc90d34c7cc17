package experiments

import (
	"context"
	"fmt"

	"knemesis/internal/comm"
	"knemesis/internal/imb"
	"knemesis/internal/rt"
	"knemesis/internal/units"
)

// The rt experiment runs the same IMB drivers the simulator figures use —
// unchanged, through the engine-neutral comm interface — on the real
// goroutine runtime, so wall-clock rows flow through the same typed-JSON /
// rendering pipeline as every paper artefact. PingPong measures the
// eager-vs-single-copy trade-off between two rank goroutines; Sendrecv
// measures the periodic-chain pattern across four.
//
// Unlike the simulator experiments these rows are wall-clock measurements:
// values vary run to run (tests assert their shape, not their numbers),
// and the sweep runs serially regardless of Env.Workers so concurrent
// stacks do not distort the timings.

func init() {
	Experiments.Register(Experiment{
		ID: "rt", Order: 13,
		Title: "Real-runtime IMB rows (wall clock): PingPong + Sendrecv per large-message mode",
		Run:   func(ctx context.Context, env Env) (Result, error) { return rtBench(ctx, env) },
	})
}

// DefaultRTSizes spans the rt sweep: eager territory, the 64 KiB
// threshold, and deep rendezvous territory.
func DefaultRTSizes() []int64 {
	return []int64{4 * units.KiB, 64 * units.KiB, 1 * units.MiB, 4 * units.MiB}
}

// RTRow is one measured (bench, mode, size) cell — the typed JSON artefact
// behind the rendered table.
type RTRow struct {
	Bench  string // "PingPong" or "Sendrecv"
	Mode   string // eager | single-copy | offload
	Ranks  int
	Size   int64
	TimeUS float64 // wall-clock per operation (one-way for PingPong)
	MiBps  float64 // aggregate throughput, IMB accounting
}

// rtResult couples the rendered table with its typed rows.
type rtResult struct {
	Table
	RTRows []RTRow
}

func (r rtResult) Files() (map[string][]byte, error) {
	return jsonFiles(map[string]any{r.ID: r.RTRows})
}

func rtBench(ctx context.Context, env Env) (rtResult, error) {
	res := rtResult{Table: Table{
		ID:     "rt",
		Title:  "Real-runtime IMB benchmarks (wall clock, goroutine ranks)",
		Header: []string{"Bench", "Mode", "Ranks", "Size", "time(us)", "MiB/s"},
	}}
	benches := []struct {
		name  string
		ranks int
		run   func(j comm.Job, sizes []int64) ([]RTRow, error)
	}{
		{"PingPong", 2, func(j comm.Job, sizes []int64) ([]RTRow, error) {
			r, err := imb.RunPingPong(j, sizes)
			if err != nil {
				return nil, err
			}
			rows := make([]RTRow, 0, len(r.Points))
			for _, pt := range r.Points {
				rows = append(rows, RTRow{Size: pt.Size,
					TimeUS: pt.Time.Microseconds(), MiBps: pt.Throughput})
			}
			return rows, nil
		}},
		{"Sendrecv", 4, func(j comm.Job, sizes []int64) ([]RTRow, error) {
			r, err := imb.RunSendrecv(j, sizes)
			if err != nil {
				return nil, err
			}
			rows := make([]RTRow, 0, len(r.Points))
			for _, pt := range r.Points {
				rows = append(rows, RTRow{Size: pt.Size,
					TimeUS: pt.Time.Microseconds(), MiBps: pt.Throughput})
			}
			return rows, nil
		}},
	}

	done := 0
	for _, b := range benches {
		for _, mode := range rt.ModeNames() {
			if err := ctx.Err(); err != nil {
				return res, fmt.Errorf("experiments: cut after %d/%d cases: %w",
					done, len(benches)*len(rt.ModeNames()), err)
			}
			job, err := comm.NewJob("rt", comm.JobSpec{Ranks: b.ranks, RTMode: mode})
			if err != nil {
				return res, err
			}
			rows, err := b.run(comm.WithContext(ctx, job), env.RTSizes)
			if err != nil {
				return res, fmt.Errorf("rt %s/%s: %w", b.name, mode, err)
			}
			for _, row := range rows {
				row.Bench = b.name
				row.Mode = mode
				row.Ranks = b.ranks
				res.RTRows = append(res.RTRows, row)
				res.Rows = append(res.Rows, []string{
					row.Bench,
					row.Mode,
					fmt.Sprintf("%d", row.Ranks),
					units.FormatSize(row.Size),
					fmt.Sprintf("%.2f", row.TimeUS),
					fmt.Sprintf("%.0f", row.MiBps),
				})
			}
			done++
		}
	}
	return res, nil
}
