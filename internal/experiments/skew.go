package experiments

import (
	"context"
	"fmt"

	"knemesis/internal/comm"
	"knemesis/internal/imb"
	"knemesis/internal/perturb"
	"knemesis/internal/rt"
	"knemesis/internal/topo"
	"knemesis/internal/units"
)

// The skew experiment takes the reproduction beyond the paper's quiet
// testbed: the same PingPong driver runs under the seeded perturbation
// layer — a slowed core, a saturated bus, MMPP noise bursts, delayed
// receivers — once with the channel forced all-eager and once forced
// all-rendezvous, so the table shows how skew moves the eager/rendezvous
// trade-off. The simulated rows are fully deterministic (every perturbation
// draw is a pure function of the pinned seed) and golden-pinned in
// skew_test.go. A second, JSON-only artefact runs the real runtime under
// the same specs and reports how injected receiver skew shifts the fastbox
// hit rate (wall-clock behaviour: shape-tested, never golden-pinned).

func init() {
	Experiments.Register(Experiment{
		ID: "skew", Order: 15,
		Title: "Robustness under skew: perturbed PingPong, eager vs rendezvous",
		Run:   func(ctx context.Context, env Env) (Result, error) { return skew(ctx, env) },
	})
}

// skewSeed pins every perturbed run of the experiment: same specs, same
// seed, same simulated table — byte for byte.
const skewSeed = 7

// DefaultSkewSizes spans eager territory up to the largest size the channel
// can still carry eagerly (EagerMax clamps at the cell size, 64 KiB), so
// both forced arms are meaningful at every point.
func DefaultSkewSizes() []int64 {
	return []int64{1 * units.KiB, 4 * units.KiB, 16 * units.KiB, 64 * units.KiB}
}

// SkewArm is one perturbation arm of the sweep: a display name and the
// perturbation list it installs (empty = the clean baseline).
type SkewArm struct {
	Name string
	Spec string // perturb.ParseList format
}

// SkewArms lists the swept arms. The parameters are pinned: the golden
// table depends on them.
func SkewArms() []SkewArm {
	return []SkewArm{
		{"none", ""},
		{"slow-core", "slow-core:rank=1,factor=0.5"},
		{"sat-bus", "sat-bus:load=0.95,streams=4"},
		{"noisy-rank", "noisy-rank:rank=1,rate=500000"},
		{"delayed-recv", "delayed-recv:mean=2e-6,dist=exp"},
	}
}

// SkewRow is one simulated (arm, size) cell. EagerX/RndvX are the slowdown
// factors versus the clean arm at the same size — the robustness measure.
type SkewRow struct {
	Arm     string
	Size    int64
	EagerUS float64 // forced all-eager PingPong, us one-way
	RndvUS  float64 // forced all-rendezvous PingPong, us one-way
	Best    string  // which forced protocol wins this cell
	EagerX  float64 // eager slowdown vs the "none" arm
	RndvX   float64 // rendezvous slowdown vs the "none" arm
}

// SkewRTRow is one real-runtime fastbox cell of the JSON artefact: under a
// bursty small-message stream, injected receiver skew keeps the per-pair
// fastbox occupied longer and pushes traffic onto the shared queue.
type SkewRTRow struct {
	Arm     string
	Size    int64
	Msgs    int64   // eager messages moved
	Fastbox int64   // of which took the fastbox
	HitRate float64 // Fastbox / Msgs
}

// skewResult couples the golden-pinned simulated table with the wall-clock
// rt rows (JSON artefact only — never rendered, never golden).
type skewResult struct {
	Table
	SkewRows []SkewRow
	RTRows   []SkewRTRow
}

func (r skewResult) Files() (map[string][]byte, error) {
	return jsonFiles(map[string]any{r.ID: r.SkewRows, "skew_rt": r.RTRows})
}

// skewPingPong measures one forced-protocol PingPong under one arm's
// perturbations: a fresh two-rank simulated job per call, so concurrent
// cells share nothing. The ranks sit on different dies — the paper's
// "Different Dies" placement — so the traffic crosses the front-side bus
// and contends with the injected background load (a shared-cache pair
// would hide sat-bus entirely).
func skewPingPong(ctx context.Context, arm SkewArm, eagerMax, size int64) (float64, error) {
	specs, err := perturb.ParseList(arm.Spec)
	if err != nil {
		return 0, err
	}
	m := topo.XeonE5345()
	a, b := m.PairDifferentDies()
	job, err := comm.NewJob("sim", comm.JobSpec{
		Ranks:         2,
		Machine:       m,
		Cores:         []topo.CoreID{a, b},
		EagerMax:      eagerMax,
		Perturbations: specs,
		Seed:          skewSeed,
	})
	if err != nil {
		return 0, err
	}
	res, err := imb.RunPingPong(comm.WithContext(ctx, job), []int64{size})
	if err != nil {
		return 0, err
	}
	return res.Points[0].Time.Microseconds(), nil
}

// skewRTArms lists the real-runtime arms. The receiver delay is three
// orders larger than the simulated arm's: wall-clock sleeps below the
// scheduler quantum would vanish into noise.
func skewRTArms() []SkewArm {
	return []SkewArm{
		{"none", ""},
		{"delayed-recv", "delayed-recv:mean=2e-4,dist=exp"},
	}
}

// skewFastbox streams bursts of fastbox-sized messages through a real rt
// job under one arm and reports the fastbox hit rate. Burst traffic keeps
// the single-slot fastbox contended, so a skewed receiver visibly shifts
// the split between fastbox and shared-queue delivery.
func skewFastbox(ctx context.Context, arm SkewArm) (SkewRTRow, error) {
	specs, err := perturb.ParseList(arm.Spec)
	if err != nil {
		return SkewRTRow{}, err
	}
	job, err := comm.NewJob("rt", comm.JobSpec{
		Ranks:         2,
		Perturbations: specs,
		Seed:          skewSeed,
	})
	if err != nil {
		return SkewRTRow{}, err
	}
	const (
		size   = 256 // under the default 1 KiB fastbox cap
		burst  = 4
		rounds = 400
	)
	err = comm.WithContext(ctx, job).Run(func(c comm.Peer) {
		buf := c.Alloc(size)
		ack := c.Alloc(1)
		switch c.Rank() {
		case 0:
			for i := 0; i < rounds; i++ {
				for b := 0; b < burst; b++ {
					c.Send(1, 0, comm.Whole(buf))
				}
				c.Recv(1, 1, comm.Whole(ack))
			}
		case 1:
			for i := 0; i < rounds; i++ {
				for b := 0; b < burst; b++ {
					c.Recv(0, 0, comm.Whole(buf))
				}
				c.Send(0, 1, comm.Whole(ack))
			}
		}
	})
	if err != nil {
		return SkewRTRow{}, err
	}
	w := job.(interface{ World() *rt.World }).World()
	msgs := w.EagerMsgs.Load()
	fb := w.FastboxMsgs.Load()
	row := SkewRTRow{Arm: arm.Name, Size: size, Msgs: msgs, Fastbox: fb}
	if msgs > 0 {
		row.HitRate = float64(fb) / float64(msgs)
	}
	return row, nil
}

// skew runs the simulated cells, then the rt fastbox rows. The rt rows run
// serially: they are wall-clock measurements and concurrent stacks would
// distort them.
func skew(ctx context.Context, env Env) (skewResult, error) {
	res, err := skewCells(ctx, env)
	if err != nil {
		return res, err
	}
	for i, arm := range skewRTArms() {
		if err := ctx.Err(); err != nil {
			return res, fmt.Errorf("experiments: cut after %d/%d rt arms: %w",
				i, len(skewRTArms()), err)
		}
		row, err := skewFastbox(ctx, arm)
		if err != nil {
			return res, fmt.Errorf("skew rt %s: %w", arm.Name, err)
		}
		res.RTRows = append(res.RTRows, row)
	}
	return res, nil
}

// skewCells runs the simulated table: every (arm, size) cell simulates two
// fresh jobs — forced eager and forced rendezvous — sharded across the
// worker pool (cells are index-addressed, so the table is byte-identical
// at any width).
func skewCells(ctx context.Context, env Env) (skewResult, error) {
	res := skewResult{Table: Table{
		ID:     "skew",
		Title:  "Robustness under skew: perturbed PingPong, forced eager vs forced rendezvous",
		Header: []string{"Perturbation", "Size", "Eager us", "Rndv us", "Best", "Eager x", "Rndv x"},
	}}
	sizes, arms := env.SkewSizes, SkewArms()

	type cell struct{ eagerUS, rndvUS float64 }
	cells := make([]cell, len(arms)*len(sizes))
	err := forEach(ctx, env.workers(), len(cells), func(i int) error {
		arm, size := arms[i/len(sizes)], sizes[i%len(sizes)]
		// EagerMax at the cell size keeps every swept size eager; at one
		// byte, every swept size takes the rendezvous path.
		eager, err := skewPingPong(ctx, arm, 64*units.KiB, size)
		if err != nil {
			return fmt.Errorf("skew %s/eager/%s: %w", arm.Name, units.FormatSize(size), err)
		}
		rndv, err := skewPingPong(ctx, arm, 1, size)
		if err != nil {
			return fmt.Errorf("skew %s/rndv/%s: %w", arm.Name, units.FormatSize(size), err)
		}
		cells[i] = cell{eager, rndv}
		return nil
	})
	if err != nil {
		return res, err
	}

	for ai, arm := range arms {
		for si, size := range sizes {
			c, clean := cells[ai*len(sizes)+si], cells[si]
			best := "eager"
			if c.rndvUS < c.eagerUS {
				best = "rndv"
			}
			row := SkewRow{
				Arm: arm.Name, Size: size,
				EagerUS: c.eagerUS, RndvUS: c.rndvUS, Best: best,
				EagerX: c.eagerUS / clean.eagerUS,
				RndvX:  c.rndvUS / clean.rndvUS,
			}
			res.SkewRows = append(res.SkewRows, row)
			res.Rows = append(res.Rows, []string{
				row.Arm,
				units.FormatSize(row.Size),
				fmt.Sprintf("%.2f", row.EagerUS),
				fmt.Sprintf("%.2f", row.RndvUS),
				row.Best,
				fmt.Sprintf("%.2fx", row.EagerX),
				fmt.Sprintf("%.2fx", row.RndvX),
			})
		}
	}
	return res, nil
}
