// Package serve is the knemd experiment service: an always-on daemon
// accepting canonical JobSpec envelopes (serve/api) over HTTP/JSON,
// admitting them through the class-aware scheduler (serve/scheduler),
// answering repeats with the run that owns their artefact and persisting
// typed JSON artefacts with a long-pollable progress ledger (serve/store),
// which is also the result cache.
// See DESIGN.md, "Experiment service".
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"sync/atomic"

	"knemesis/internal/comm"
	"knemesis/internal/experiments"
	"knemesis/internal/imb"
	"knemesis/internal/rt"
	"knemesis/internal/serve/api"
)

// rtProbe is the in-process honesty probe for the rt lane: every rt-class
// execution increments the in-flight count around the actual engine run
// (not scheduler bookkeeping) and records the high-water mark. A watermark
// above 1 means two rt measurements shared the machine.
type rtProbe struct {
	inFlight atomic.Int64
	max      atomic.Int64
	audits   atomic.Int64 // post-run envelope audit failures
}

func (p *rtProbe) enter() {
	n := p.inFlight.Add(1)
	for {
		m := p.max.Load()
		if n <= m || p.max.CompareAndSwap(m, n) {
			return
		}
	}
}

func (p *rtProbe) exit() { p.inFlight.Add(-1) }

// Execute runs one canonical spec to completion and returns its artefact
// files. Both kinds honour ctx mid-run: comm-kind jobs are cut by their
// engines (which embed a per-rank state dump in the error), and
// experiment-kind jobs thread ctx through their sweep loops, so a deadline
// or cancel stops the sweep between cases with a partial-progress note.
//
// Execute is also the daemon's panic boundary: a panic anywhere in an
// engine or driver is converted into a job failure carrying the recovered
// value and stack (*experiments.PanicError), so one hostile spec fails its
// own job instead of killing the always-on process. That covers simulated
// ranks and device daemons, which run on goroutines of their own: the
// simulator re-raises their panics, stack attached, on the goroutine
// running the engine (sim.ProcPanic) — this one. The rt engine recovers
// its rank goroutines itself and reports an error.
func Execute(ctx context.Context, spec api.Spec, probe *rtProbe) (files map[string][]byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			files, err = nil, experiments.Recovered(r)
		}
	}()
	rtClass := spec.Class() == api.ClassRT
	if rtClass && probe != nil {
		probe.enter()
		defer probe.exit()
	}
	switch spec.Kind {
	case api.KindExperiment:
		return executeExperiment(ctx, spec)
	case api.KindComm:
		return executeComm(ctx, spec, probe)
	default:
		return nil, fmt.Errorf("serve: unknown kind %q", spec.Kind)
	}
}

func executeExperiment(ctx context.Context, spec api.Spec) (map[string][]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("serve: experiment %s not started: %w", spec.Experiment, err)
	}
	env, err := experiments.EnvByName(spec.Machine, spec.Quick)
	if err != nil {
		return nil, err
	}
	// One worker: the daemon's own pool provides the parallelism, and
	// experiment artefacts are byte-identical at any width anyway.
	env.Workers = 1
	res, err := experiments.Run(ctx, spec.Experiment, env)
	if err != nil {
		return nil, err
	}
	return res.Files()
}

// commResult is the artefact schema of a comm-kind job: the canonical spec
// it ran, the benchmark table and the engine's resource usage.
type commResult struct {
	Spec   api.Spec    `json:"spec"`
	Engine string      `json:"engine"`
	Bench  string      `json:"bench"`
	Result interface{} `json:"result"`
	Usage  comm.Usage  `json:"usage"`
}

func executeComm(ctx context.Context, spec api.Spec, probe *rtProbe) (map[string][]byte, error) {
	cspec, err := spec.ToComm()
	if err != nil {
		return nil, err
	}
	// The deadline is not part of the cache key, so it must not be part of
	// the artefact either: cached repeats with a different deadline would
	// otherwise diverge byte-wise from a direct run.
	spec.DeadlineSec = 0
	eng, err := comm.Engines.Lookup(spec.Engine)
	if err != nil {
		return nil, err
	}
	bench, err := imb.Benches.Lookup(spec.Bench)
	if err != nil {
		return nil, err
	}
	job, err := eng.NewJob(cspec)
	if err != nil {
		return nil, err
	}
	table, err := bench.Run(comm.WithContext(ctx, job), spec.Sizes)

	// Shutdown hygiene on the real runtime: whether the run completed or
	// was cut, a quiesced world must have returned every envelope it
	// minted to the pools.
	if rj, ok := job.(interface{ World() *rt.World }); ok {
		minted, pooled := rj.World().EnvelopeAudit()
		if minted != pooled {
			if probe != nil {
				probe.audits.Add(1)
			}
			auditErr := fmt.Errorf("serve: rt envelope audit failed: minted %d != pooled %d", minted, pooled)
			if err == nil {
				err = auditErr
			} else {
				err = fmt.Errorf("%w; additionally %v", err, auditErr)
			}
		}
	}
	if err != nil {
		return nil, err
	}

	usage := job.Usage()
	// A finished sim job's cache state goes back for the next job's
	// machines to fill from: a cold job then makes almost none of its own.
	if sj, ok := job.(interface{ Release() }); ok {
		sj.Release()
	}
	buf, err := json.MarshalIndent(commResult{
		Spec:   spec,
		Engine: spec.Engine,
		Bench:  spec.Bench,
		Result: table,
		Usage:  usage,
	}, "", "  ")
	if err != nil {
		return nil, err
	}
	return map[string][]byte{"result.json": append(buf, '\n')}, nil
}
