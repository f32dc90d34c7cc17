package comm_test

import (
	"testing"

	"knemesis/internal/comm"
	"knemesis/internal/perturb"
	"knemesis/internal/rt"
	"knemesis/internal/topo"
)

// The conformance-under-chaos wall: every conformance case must deliver
// byte-exact content under every registered perturbation kind, on both
// engines. Perturbations change timing only — slower cores, saturated
// buses, delayed receivers, degraded links — so any content or matching
// divergence under them is an engine bug the unperturbed suite's timing
// happened to hide.

// chaosSeed fixes the perturbation RNG streams for the wall; the value is
// arbitrary but pinned so failures reproduce.
const chaosSeed = 7

// chaosTargets lists the engine configurations the wall runs against.
// -short keeps one rt mode; the full run covers all three.
func chaosTargets(short bool) []struct{ engine, rtmode string } {
	targets := []struct{ engine, rtmode string }{{engine: "sim"}}
	if short {
		return append(targets, struct{ engine, rtmode string }{"rt", "single-copy"})
	}
	for _, mode := range rt.ModeNames() {
		targets = append(targets, struct{ engine, rtmode string }{"rt", mode})
	}
	return targets
}

func TestConformanceUnderChaos(t *testing.T) {
	for _, kind := range perturb.Kinds.All() {
		kind := kind
		spec := perturb.MustParse(kind.Name) // every kind at its defaults
		t.Run(kind.Name, func(t *testing.T) {
			for _, tg := range chaosTargets(testing.Short()) {
				tg := tg
				name := tg.engine
				if tg.rtmode != "" {
					name += "/" + tg.rtmode
				}
				t.Run(name, func(t *testing.T) {
					for _, tc := range conformanceCases() {
						tc := tc
						t.Run(tc.name, func(t *testing.T) {
							job, err := comm.NewJob(tg.engine, comm.JobSpec{
								Ranks:         tc.ranks,
								EagerMax:      confEagerMax,
								RTMode:        tg.rtmode,
								Perturbations: []perturb.Spec{spec},
								Seed:          chaosSeed,
							})
							if err != nil {
								t.Fatal(err)
							}
							runWatchdog(t, job, func(c comm.Peer) { tc.app(t, c) })
						})
					}
				})
			}
		})
	}
}

// The link perturbations are no-ops on a single node; rerun the wall for
// them on a two-node spread placement so the conformance pairs actually
// cross the perturbed links (sim's modeled network, rt's cross-node path).
func TestConformanceUnderLinkChaosMultiNode(t *testing.T) {
	cl, err := topo.LookupCluster("two-node")
	if err != nil {
		t.Fatal(err)
	}
	for _, kindName := range []string{"link-degrade", "link-jitter", "link-flap"} {
		kindName := kindName
		spec := perturb.MustParse(kindName)
		t.Run(kindName, func(t *testing.T) {
			for _, tg := range chaosTargets(testing.Short()) {
				tg := tg
				name := tg.engine
				if tg.rtmode != "" {
					name += "/" + tg.rtmode
				}
				t.Run(name, func(t *testing.T) {
					for _, tc := range conformanceCases() {
						tc := tc
						t.Run(tc.name, func(t *testing.T) {
							job, err := comm.NewJob(tg.engine, comm.JobSpec{
								Ranks:         tc.ranks,
								EagerMax:      confEagerMax,
								RTMode:        tg.rtmode,
								Topology:      cl,
								Placement:     "spread",
								Perturbations: []perturb.Spec{spec},
								Seed:          chaosSeed,
							})
							if err != nil {
								t.Fatal(err)
							}
							runWatchdog(t, job, func(c comm.Peer) { tc.app(t, c) })
						})
					}
				})
			}
		})
	}
}

// A stack of every perturbation kind at once, on both engines: the layered
// composition (chained delay hooks, several daemons and injectors) must
// still deliver content exactly.
func TestConformanceUnderStackedChaos(t *testing.T) {
	var specs []perturb.Spec
	for _, kind := range perturb.Kinds.All() {
		specs = append(specs, perturb.MustParse(kind.Name))
	}
	cl, err := topo.LookupCluster("two-node")
	if err != nil {
		t.Fatal(err)
	}
	for _, tg := range chaosTargets(testing.Short()) {
		tg := tg
		name := tg.engine
		if tg.rtmode != "" {
			name += "/" + tg.rtmode
		}
		t.Run(name, func(t *testing.T) {
			for _, tc := range conformanceCases() {
				tc := tc
				t.Run(tc.name, func(t *testing.T) {
					job, err := comm.NewJob(tg.engine, comm.JobSpec{
						Ranks:         tc.ranks,
						EagerMax:      confEagerMax,
						RTMode:        tg.rtmode,
						Topology:      cl,
						Placement:     "spread",
						Perturbations: specs,
						Seed:          chaosSeed,
					})
					if err != nil {
						t.Fatal(err)
					}
					runWatchdog(t, job, func(c comm.Peer) { tc.app(t, c) })
				})
			}
		})
	}
}
