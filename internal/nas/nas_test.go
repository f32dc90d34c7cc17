package nas

import (
	"math"
	"testing"

	"knemesis/internal/core"
	"knemesis/internal/sim"
	"knemesis/internal/topo"
	"knemesis/internal/units"
)

func TestKernelCatalog(t *testing.T) {
	ks := Kernels()
	if len(ks) != 8 {
		t.Fatalf("catalog has %d kernels, want 8", len(ks))
	}
	wantProcs := map[string]int{
		"bt.B.4": 4, "cg.B.8": 8, "ep.B.4": 4, "ft.B.8": 8,
		"is.B.8": 8, "lu.B.8": 8, "mg.B.8": 8, "sp.B.8": 8,
	}
	for _, k := range ks {
		if wantProcs[k.Name] != k.Procs {
			t.Errorf("%s: procs = %d, want %d", k.Name, k.Procs, wantProcs[k.Name])
		}
		if k.PaperDefaultSec <= 0 || k.Iters <= 0 {
			t.Errorf("%s: missing calibration target or iterations", k.Name)
		}
	}
}

func TestISKeyVolumeMatchesPaperScale(t *testing.T) {
	// The paper calls IS "large message intensive": at class B on 8 ranks
	// every pair exchanges ~2 MiB per iteration.
	if got := ISKeyVolumeCheck(8); got != 2*units.MiB {
		t.Fatalf("per-pair volume = %s, want 2MiB", units.FormatSize(got))
	}
}

func TestISSortsCorrectlyAllLMTs(t *testing.T) {
	for _, opt := range core.StandardOptions() {
		k := ISSized(1<<18, 3, 4)
		if _, err := RunKernel(k, topo.XeonE5345(), opt, sim.Microsecond); err != nil {
			t.Errorf("%s: %v", opt.Label(), err)
		}
	}
}

func TestISDetectsOutOfRangeKeys(t *testing.T) {
	// rankKeyRange/destRank consistency over many rank counts.
	for n := 1; n <= 16; n++ {
		var prevHi uint32
		for r := 0; r < n; r++ {
			lo, hi := rankKeyRange(r, n)
			if lo != prevHi {
				t.Fatalf("n=%d rank %d: range gap [%d,%d) after %d", n, r, lo, hi, prevHi)
			}
			prevHi = hi
		}
		if prevHi != isMaxKey {
			t.Fatalf("n=%d: ranges end at %d, want %d", n, prevHi, isMaxKey)
		}
	}
}

func TestCalibrationHitsPaperDefault(t *testing.T) {
	k := MG().Scaled(4) // 5 iterations: fast
	m := topo.XeonE5345()
	compute, err := Calibrate(k, m)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunKernel(k, m, core.Options{Kind: core.DefaultLMT}, compute)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Seconds-k.PaperDefaultSec)/k.PaperDefaultSec > 0.05 {
		t.Fatalf("calibrated default run = %.3fs, target %.3fs", res.Seconds, k.PaperDefaultSec)
	}
}

func TestSkeletonsRunUnderAllLMTs(t *testing.T) {
	m := topo.XeonE5345()
	for _, k := range []Kernel{LU().Scaled(50), SP().Scaled(100), BT().Scaled(50), CG().Scaled(25), EP().Scaled(2), MG().Scaled(10)} {
		compute, err := Calibrate(k, m)
		if err != nil {
			t.Fatalf("%s: calibrate: %v", k.Name, err)
		}
		for _, opt := range core.StandardOptions() {
			res, err := RunKernel(k, m, opt, compute)
			if err != nil {
				t.Fatalf("%s (%s): %v", k.Name, opt.Label(), err)
			}
			if res.Seconds <= 0 {
				t.Fatalf("%s (%s): non-positive time", k.Name, opt.Label())
			}
		}
	}
}

func TestFTAllLMTOrdering(t *testing.T) {
	// FT moves 8 MiB blocks: the KNEM+I/OAT configuration must beat the
	// default LMT (the +10.6% row of Table 1).
	k := FT().Scaled(10) // 2 iterations
	m := topo.XeonE5345()
	compute, err := Calibrate(k, m)
	if err != nil {
		t.Fatal(err)
	}
	def, err := RunKernel(k, m, core.Options{Kind: core.DefaultLMT}, compute)
	if err != nil {
		t.Fatal(err)
	}
	ioat, err := RunKernel(k, m, core.Options{Kind: core.KnemLMT, IOAT: core.IOATAuto}, compute)
	if err != nil {
		t.Fatal(err)
	}
	if ioat.Seconds >= def.Seconds {
		t.Fatalf("ft: knem+ioat (%.3fs) should beat default (%.3fs)", ioat.Seconds, def.Seconds)
	}
}

func TestTable1RowShape(t *testing.T) {
	row, err := Table1Row(MG().Scaled(4), topo.XeonE5345())
	if err != nil {
		t.Fatal(err)
	}
	if len(row.Seconds) != 4 || len(row.Labels) != 4 {
		t.Fatalf("row has %d columns, want 4", len(row.Seconds))
	}
	for i, s := range row.Seconds {
		if s <= 0 {
			t.Fatalf("column %s non-positive", row.Labels[i])
		}
	}
}
