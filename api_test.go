package knemesis

import (
	"bytes"
	"context"
	"regexp"
	"strings"
	"testing"

	"knemesis/internal/mem"
	"knemesis/internal/units"
)

// The facade must expose a working end-to-end path: simulated transfer,
// experiment entry points, and the real runtime.
func TestFacadeSimulatedTransfer(t *testing.T) {
	m := XeonE5345()
	c0, c1 := m.PairSharedCache()
	st := NewStack(m, []CoreID{c0, c1}, LMTOptions{Kind: KnemLMT, IOAT: IOATAuto}, ChannelConfig{})
	size := int64(256 * units.KiB)
	err := NewSimJob(st).Run(func(p Peer) {
		buf := p.Alloc(size).(*mem.Buffer)
		if p.Rank() == 0 {
			buf.FillPattern(1)
			p.Send(1, 0, WholeBuf(buf))
		} else {
			p.Recv(0, 0, WholeBuf(buf))
			want := p.Alloc(size).(*mem.Buffer)
			want.FillPattern(1)
			if !mem.EqualBytes(buf, want) {
				t.Error("facade transfer corrupted payload")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFacadeStandardOptions(t *testing.T) {
	opts := StandardLMTOptions()
	if len(opts) != 4 {
		t.Fatalf("standard options = %d, want 4", len(opts))
	}
	if opts[0].Kind != DefaultLMT || opts[3].IOAT != IOATAuto {
		t.Fatal("standard options order changed")
	}
}

func TestFacadeExperimentEntryPoints(t *testing.T) {
	ctx := context.Background()
	res, err := RunExperiment(ctx, "fig4", ExperimentEnv{Machine: XeonE5345(), PingSizes: []int64{128 * units.KiB}})
	if err != nil {
		t.Fatal(err)
	}
	// The paper's four curves plus the CMA backend, one column each.
	var buf bytes.Buffer
	res.Render(&buf)
	lines := strings.Split(buf.String(), "\n")
	header := regexp.MustCompile(`\s{2,}`).Split(lines[2], -1)
	want := []string{"size", "default LMT", "vmsplice LMT", "KNEM LMT", "KNEM LMT with I/OAT", "CMA LMT"}
	if strings.Join(header, "|") != strings.Join(want, "|") {
		t.Fatalf("fig4 columns = %q, want %q", header, want)
	}
	if ks := NASKernels(); len(ks) != 8 {
		t.Fatalf("NAS kernels = %d", len(ks))
	}
	if testing.Short() {
		t.Skip("threshold sweep skipped in -short mode")
	}
	if _, err := RunExperiment(ctx, "thresholds", ExperimentEnv{}); err != nil {
		t.Fatal(err)
	}
}

// The facade exposes both registries: backend names/presets and the
// experiment index, all generated rather than hand-maintained.
func TestFacadeRegistries(t *testing.T) {
	names := LMTBackends.Names()
	if len(names) < 5 || names[0] != string(DefaultLMT) {
		t.Fatalf("LMT names = %v", names)
	}
	opt, err := ParseLMT("cma")
	if err != nil {
		t.Fatal(err)
	}
	if opt.Kind != CMALMT {
		t.Fatalf("ParseLMT(cma).Kind = %q", opt.Kind)
	}
	if _, err := LMTBackends.Lookup(string(CMALMT)); err != nil {
		t.Fatal(err)
	}
	ids := Experiments.Names()
	if len(ids) == 0 || ids[0] != "fig3" {
		t.Fatalf("experiment ids = %v", ids)
	}
	env := DefaultExperimentEnv(XeonE5345())
	env.PingSizes = []int64{128 * units.KiB}
	res, err := RunExperiment(context.Background(), "fig4", env)
	if err != nil {
		t.Fatal(err)
	}
	if res == nil {
		t.Fatal("nil experiment result")
	}
}

// The zero RTConfig is the single-copy rendezvous: a 4 MiB message takes
// one rendezvous and no eager cells.
func TestFacadeRTConfigDefaultsToSingleCopy(t *testing.T) {
	const size = 4 << 20
	if (RTConfig{}).Large != RTSingleCopy {
		t.Fatalf("RTConfig{}.Large = %v, want %v", RTConfig{}.Large, RTSingleCopy)
	}
	w := NewRTWorld(2, RTConfig{})
	err := w.Run(func(r *RTRank) {
		if r.ID() == 0 {
			r.Send(1, 0, make([]byte, size))
		} else {
			r.Recv(0, 0, make([]byte, size))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if rndv, eager, moved := w.RndvMsgs.Load(), w.EagerMsgs.Load(), w.BytesMoved.Load(); rndv != 1 || eager != 0 || moved != size {
		t.Errorf("rndv=%d eager=%d moved=%d; want 1, 0, %d", rndv, eager, moved, size)
	}
}

func TestFacadeRealRuntime(t *testing.T) {
	w := NewRTWorld(2, RTConfig{Large: RTSingleCopy})
	payload := make([]byte, 1<<20)
	payload[12345] = 0xCC
	err := w.Run(func(r *RTRank) {
		if r.ID() == 0 {
			r.Send(1, 0, payload)
		} else {
			buf := make([]byte, len(payload))
			r.Recv(0, 0, buf)
			if buf[12345] != 0xCC {
				t.Error("real runtime corrupted payload")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
