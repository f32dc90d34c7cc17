package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"knemesis/internal/serve/api"
	"knemesis/internal/units"
)

// artefactPin is the sha256 over the result.json of versionSpecs, in order,
// and the api.CodeVersion it was taken under. Cached results are keyed by
// CodeVersion, so a change that moves these bytes without a new CodeVersion
// would serve stale artefacts from a warm cache.
var artefactPin = struct{ codeVersion, sum string }{
	codeVersion: "knemesis-2026.10",
	sum:         "47a1ea59bb36bdf5f1c63e7d541ee0229ffb62226ee085552a2f8102367fa0ae",
}

// versionSpecs covers the default LMT, KNEM, I/OAT offload and an
// 8-rank collective under a 4 KiB rendezvous threshold.
func versionSpecs() []api.Spec {
	return []api.Spec{
		{Kind: api.KindComm, Bench: "pingpong", Placement: "cross", Sizes: []int64{1 * units.MiB}},
		{Kind: api.KindComm, Bench: "pingpong", LMT: "knem", Sizes: []int64{1 * units.MiB}},
		{Kind: api.KindComm, Bench: "pingpong", LMT: "knem-ioat", Sizes: []int64{4 * units.MiB}},
		{Kind: api.KindComm, Bench: "alltoall", Ranks: 8, LMT: "knem-ioat", EagerMax: 4096, Sizes: []int64{32 * units.KiB}},
	}
}

// TestCodeVersionFollowsArtefacts fails when the artefacts of a fixed spec
// set move while api.CodeVersion stays: the daemon's result cache would
// then hand out bytes the current code no longer produces.
func TestCodeVersionFollowsArtefacts(t *testing.T) {
	h := sha256.New()
	for _, s := range versionSpecs() {
		canon, err := s.Canonicalize()
		if err != nil {
			t.Fatal(err)
		}
		files, err := Execute(context.Background(), canon, nil)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(files["result.json"])
	}
	sum := hex.EncodeToString(h.Sum(nil))
	switch {
	case sum == artefactPin.sum && api.CodeVersion == artefactPin.codeVersion:
	case api.CodeVersion == artefactPin.codeVersion:
		t.Fatalf("artefacts hash %s, pinned %s under the same CodeVersion %q: bump api.CodeVersion and re-pin",
			sum, artefactPin.sum, api.CodeVersion)
	default:
		t.Fatalf("CodeVersion is %q, pin taken under %q: re-pin artefactPin (hash now %s)",
			api.CodeVersion, artefactPin.codeVersion, sum)
	}
}
