// Package nas provides class-B proxies of the NAS Parallel Benchmarks used
// in the paper's Table 1 (bt, cg, ep, ft, is, lu, mg, sp).
//
// IS — the benchmark the paper headlines with a 25% speedup — is a real
// distributed bucket sort whose keys actually move and whose result is
// verified. The other kernels are communication skeletons: their
// per-iteration message patterns and volumes follow the NPB communication
// structure, while per-iteration compute is a calibrated constant plus a
// cache-modelled pass over the rank's working set. Calibration (see Run)
// fixes each kernel's default-LMT time to the paper's default column, so
// the other LMT columns are model predictions to compare against Table 1.
//
// Every kernel is written against the engine-neutral comm.Peer interface,
// so the same source drives the simulator (Table 1) and any other
// registered engine; only the Table 1 calibration runner (run.go) is
// sim-specific, because it calibrates against the paper's wall times.
package nas

import (
	"fmt"

	"knemesis/internal/comm"
	"knemesis/internal/units"
)

// Kernel describes one NAS proxy.
type Kernel struct {
	Name            string
	Procs           int
	Iters           int
	PaperDefaultSec float64 // Table 1 "default LMT" column (calibration target)
	WSBytes         int64   // per-rank working set streamed each iteration

	// Comm issues one iteration's communication. State buffers are
	// prepared by Prepare (bench payloads: content does not matter).
	Prepare func(c comm.Peer) *RankState
	Comm    func(c comm.Peer, s *RankState, iter int)

	// Custom, when set, replaces the generic skeleton loop entirely
	// (IS uses this to run the real sort).
	Custom func(c comm.Peer, computePerIter comm.Time) error
}

// RankState holds a rank's preallocated communication buffers.
type RankState struct {
	WS   comm.Buf // working set (content-free bench buffer)
	Bufs []comm.Buf
}

// buf allocates (lazily growing the list) a bench buffer of n bytes.
func (s *RankState) buf(c comm.Peer, n int64) comm.Buf {
	b := c.AllocBench(n)
	s.Bufs = append(s.Bufs, b)
	return b
}

// exchange does a sendrecv of n bytes with a partner using preallocated
// bench buffers indexed by slot.
func exchange(c comm.Peer, s *RankState, slot int, partner int, n int64, tag int) {
	if partner == c.Rank() || partner < 0 || partner >= c.Size() {
		return
	}
	for len(s.Bufs) < 2*(slot+1) {
		s.buf(c, n)
	}
	sb, rb := s.Bufs[2*slot], s.Bufs[2*slot+1]
	if sb.Len() < n || rb.Len() < n {
		panic(fmt.Sprintf("nas: slot %d buffers too small (%d < %d)", slot, sb.Len(), n))
	}
	c.Sendrecv(partner, tag, comm.R(sb, 0, n), partner, tag, comm.R(rb, 0, n))
}

// prepareSlots preallocates exchange slots of the given byte sizes.
func prepareSlots(c comm.Peer, ws int64, sizes ...int64) *RankState {
	s := &RankState{}
	if ws > 0 {
		s.WS = c.AllocBench(ws)
	}
	for _, n := range sizes {
		s.Bufs = append(s.Bufs, c.AllocBench(n), c.AllocBench(n))
	}
	return s
}

// Kernels returns the Table 1 suite in the paper's row order.
func Kernels() []Kernel {
	return []Kernel{BT(), CG(), EP(), FT(), IS(), LU(), MG(), SP()}
}

// BT is bt.B.4: block-tridiagonal solver, 4 ranks, 200 ADI iterations,
// each exchanging ~240 KiB faces with both neighbours in 3 dimensions.
func BT() Kernel {
	const face = 240 * units.KiB
	return Kernel{
		Name: "bt.B.4", Procs: 4, Iters: 200, PaperDefaultSec: 454.3,
		WSBytes: 3 * units.MiB,
		Prepare: func(c comm.Peer) *RankState {
			return prepareSlots(c, 3*units.MiB, face, face, face)
		},
		Comm: func(c comm.Peer, s *RankState, iter int) {
			for dim := 0; dim < 3; dim++ {
				partner := c.Rank() ^ (1 + dim%2)
				exchange(c, s, dim, partner%c.Size(), face, 100+dim)
			}
		},
	}
}

// CG is cg.B.8: conjugate gradient, 8 ranks, 75 outer iterations; each
// bundles the transpose exchanges (~150 KiB) and dot-product allreduces of
// the 25 inner CG steps.
func CG() Kernel {
	const row = 150 * units.KiB
	return Kernel{
		Name: "cg.B.8", Procs: 8, Iters: 75, PaperDefaultSec: 60.26,
		WSBytes: 4 * units.MiB,
		Prepare: func(c comm.Peer) *RankState {
			s := prepareSlots(c, 4*units.MiB, row, row, row, row)
			s.Bufs = append(s.Bufs, c.Alloc(16)) // allreduce scratch (real)
			return s
		},
		Comm: func(c comm.Peer, s *RankState, iter int) {
			for inner := 0; inner < 4; inner++ {
				exchange(c, s, inner, c.Rank()^(1<<(inner%3)), row, 200+inner)
			}
			red := s.Bufs[len(s.Bufs)-1]
			c.Allreduce(comm.Whole(red), comm.SumFloat64)
			c.Allreduce(comm.Whole(red), comm.SumFloat64)
		},
	}
}

// EP is ep.B.4: embarrassingly parallel — essentially no communication.
func EP() Kernel {
	return Kernel{
		Name: "ep.B.4", Procs: 4, Iters: 10, PaperDefaultSec: 30.45,
		WSBytes: 256 * units.KiB,
		Prepare: func(c comm.Peer) *RankState {
			s := prepareSlots(c, 256*units.KiB)
			s.Bufs = append(s.Bufs, c.Alloc(24))
			return s
		},
		Comm: func(c comm.Peer, s *RankState, iter int) {
			if iter == 9 { // final statistics reduction only
				c.Allreduce(comm.Whole(s.Bufs[len(s.Bufs)-1]), comm.SumFloat64)
			}
		},
	}
}

// FT is ft.B.8: 3-D FFT, 8 ranks, 20 iterations; the transpose is a global
// alltoall moving the rank's full 64 MiB slab (8 MiB per partner) — the
// second-largest winner in Table 1.
func FT() Kernel {
	const block = 8 * units.MiB
	return Kernel{
		Name: "ft.B.8", Procs: 8, Iters: 20, PaperDefaultSec: 39.25,
		WSBytes: 4 * units.MiB,
		Prepare: func(c comm.Peer) *RankState {
			s := &RankState{}
			s.WS = c.AllocBench(4 * units.MiB)
			s.Bufs = append(s.Bufs,
				c.AllocBench(block*int64(c.Size())),
				c.AllocBench(block*int64(c.Size())))
			return s
		},
		Comm: func(c comm.Peer, s *RankState, iter int) {
			c.Alltoall(s.Bufs[0], s.Bufs[1], block)
		},
	}
}

// LU is lu.B.8: SSOR solver, 8 ranks, 250 time steps; pipelined wavefront
// sweeps exchange many small (~5 KiB) messages plus two ~200 KiB exchanges.
func LU() Kernel {
	const small, big = 5 * units.KiB, 200 * units.KiB
	return Kernel{
		Name: "lu.B.8", Procs: 8, Iters: 250, PaperDefaultSec: 85.83,
		WSBytes: 2 * units.MiB,
		Prepare: func(c comm.Peer) *RankState {
			return prepareSlots(c, 2*units.MiB, small, small, big)
		},
		Comm: func(c comm.Peer, s *RankState, iter int) {
			for k := 0; k < 8; k++ {
				exchange(c, s, k%2, c.Rank()^(1<<(k%3)), small, 400+k)
			}
			exchange(c, s, 2, c.Rank()^1, big, 410)
		},
	}
}

// MG is mg.B.8: multigrid V-cycles, 8 ranks, 20 iterations; messages span
// the level hierarchy from 256 B up to 256 KiB.
func MG() Kernel {
	sizes := []int64{256, 1 * units.KiB, 4 * units.KiB, 16 * units.KiB,
		64 * units.KiB, 256 * units.KiB}
	return Kernel{
		Name: "mg.B.8", Procs: 8, Iters: 20, PaperDefaultSec: 7.81,
		WSBytes: 3 * units.MiB,
		Prepare: func(c comm.Peer) *RankState {
			return prepareSlots(c, 3*units.MiB, sizes...)
		},
		Comm: func(c comm.Peer, s *RankState, iter int) {
			// Down and up the V-cycle: one exchange per level each way.
			for lvl := len(sizes) - 1; lvl >= 0; lvl-- {
				exchange(c, s, lvl, c.Rank()^(1<<(lvl%3)), sizes[lvl], 500+lvl)
			}
			for lvl := 0; lvl < len(sizes); lvl++ {
				exchange(c, s, lvl, c.Rank()^(1<<(lvl%3)), sizes[lvl], 520+lvl)
			}
		},
	}
}

// SP is sp.B.8 (the paper's label), 400 iterations of ~140 KiB face
// exchanges in three dimensions.
func SP() Kernel {
	const face = 140 * units.KiB
	return Kernel{
		Name: "sp.B.8", Procs: 8, Iters: 400, PaperDefaultSec: 302.0,
		WSBytes: 2 * units.MiB,
		Prepare: func(c comm.Peer) *RankState {
			return prepareSlots(c, 2*units.MiB, face, face, face)
		},
		Comm: func(c comm.Peer, s *RankState, iter int) {
			for dim := 0; dim < 3; dim++ {
				exchange(c, s, dim, c.Rank()^(1<<dim), face, 600+dim)
			}
		},
	}
}
