package experiments

import (
	"context"
	"testing"

	"knemesis/internal/topo"
	"knemesis/internal/units"
)

// The paper ran its experiments "on other hosts, such as a single-socket
// quad-core XEON X5460 ... and observed similar behavior" (§4). Verify the
// headline orderings hold on that preset too.
func TestX5460SimilarBehaviour(t *testing.T) {
	if testing.Short() {
		t.Skip("secondary-host sweep skipped in -short mode")
	}
	m := topo.XeonX5460()
	sizes := []int64{256 * units.KiB, 1 * units.MiB}

	f5, err := fig5(context.Background(), Env{Machine: m, PingSizes: sizes})
	if err != nil {
		t.Fatal(err)
	}
	def := seriesByLabel(t, f5, "default LMT").Points[1].Throughput
	vms := seriesByLabel(t, f5, "vmsplice LMT").Points[1].Throughput
	knm := seriesByLabel(t, f5, "KNEM LMT").Points[1].Throughput
	if !(knm > vms && vms > def) {
		t.Errorf("x5460 cross-die ordering broken: knem=%.0f vmsplice=%.0f default=%.0f", knm, vms, def)
	}

	f4, err := fig4(context.Background(), Env{Machine: m, PingSizes: sizes})
	if err != nil {
		t.Fatal(err)
	}
	def4 := seriesByLabel(t, f4, "default LMT").Points[0].Throughput
	knm4 := seriesByLabel(t, f4, "KNEM LMT").Points[0].Throughput
	if def4 < 0.6*knm4 {
		t.Errorf("x5460 shared cache: default %.0f should stay near knem %.0f", def4, knm4)
	}
}

// The Nehalem-style preset (paper's conclusion: all cores share one LLC)
// must behave like one big shared-cache domain: the default LMT stays
// competitive everywhere because every pair shares the cache.
func TestNehalemAllPairsShared(t *testing.T) {
	m := topo.NehalemStyle()
	if len(m.L2Domains) != 1 {
		t.Fatal("nehalem preset should have a single cache domain")
	}
	c0, c1 := m.PairSharedCache()
	if !m.SharedCache(c0, c1) {
		t.Fatal("pair not sharing")
	}
	// DMAmin with 8 processes on one 8MiB LLC: 512KiB.
	if got := m.DMAMin(8); got != 512*units.KiB {
		t.Fatalf("nehalem DMAmin(8) = %s, want 512KiB", units.FormatSize(got))
	}
}
