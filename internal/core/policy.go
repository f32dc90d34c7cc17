// Package core implements the paper's contribution: the Large Message
// Transfer backends for Nemesis —
//
//   - the default shared-memory double-buffering transfer (two copies, both
//     processes active, §2),
//   - the vmsplice single-copy transfer through a kernel pipe (§3.1), with
//     its two-copy writev variant used as a control in Figure 3,
//   - the KNEM kernel-module transfer (§3.2) with synchronous, asynchronous
//     (kernel thread) and I/OAT-offloaded modes (§3.3-3.4),
//   - the CMA single-copy direct transfer (process_vm_readv), the
//     real-world successor of KNEM that needs no module at all,
//
// together with the cache-aware policy of §3.5 that decides when to offload
// copies to the DMA engine (the DMAmin threshold).
//
// Backends live in one registry.Registry (Backends): each entry
// declares its capability requirements (kernel substrate, KNEM module, DMA
// hardware) which the factory checks centrally, and the option presets the
// CLIs expose. Adding a backend is one file with an init() — no switch
// statements to edit.
package core

import (
	"knemesis/internal/knem"
	"knemesis/internal/nemesis"
	"knemesis/internal/sim"
	"knemesis/internal/topo"
)

// Kind names an LMT backend: the registry key.
type Kind string

// Built-in backends, named as in the paper's tables.
const (
	DefaultLMT        Kind = "default"         // shared-memory double-buffering
	VmspliceLMT       Kind = "vmsplice"        // single-copy through a kernel pipe
	VmspliceWritevLMT Kind = "vmsplice-writev" // vmsplice backend forced to use writev (Fig. 3)
	KnemLMT           Kind = "knem"            // KNEM kernel module
	CMALMT            Kind = "cma"             // process_vm_readv single-copy
)

// String names the backend as in the paper's tables.
func (k Kind) String() string {
	if k == "" {
		return string(DefaultLMT)
	}
	return string(k)
}

// IOATPolicy controls DMA offload for the KNEM backend.
type IOATPolicy int

// Offload policies.
const (
	// IOATOff never offloads ("KNEM kernel copy" in Table 1).
	IOATOff IOATPolicy = iota
	// IOATAlways offloads every transfer (the "KNEM LMT with I/OAT"
	// curves in Figs. 4, 5, 7).
	IOATAlways
	// IOATAuto applies the paper's §3.5 dynamic threshold: offload when
	// the message size reaches DMAmin = cache/(2 x processes using it).
	IOATAuto
)

// BusyPollQuantum is the CPU slice consumed per completion poll of an
// asynchronous KNEM receive. The polling models Nemesis' spinning progress
// engine and is what makes the kernel-thread asynchronous mode compete with
// the user process (§4.3).
const BusyPollQuantum = 2 * sim.Microsecond

// Options configures the LMT factory.
type Options struct {
	Kind Kind

	// IOAT selects the offload policy for KnemLMT.
	IOAT IOATPolicy

	// ForceKnemMode pins a specific KNEM receive mode, overriding IOAT —
	// how Figure 6 compares synchronous vs asynchronous modes.
	ForceKnemMode *knem.Mode

	// CollectiveAware enables the paper's §6 future-work policy: when the
	// upper layer announces that multiple large transfers run in parallel
	// (a collective), the IOATAuto threshold divides by the number of
	// concurrent transfers pressuring the cache — which is why the paper
	// measured I/OAT paying off from ~200 KiB in the 8-process Alltoall
	// instead of the predicted 1 MiB (§4.4).
	CollectiveAware bool
}

func (o Options) withDefaults() Options {
	if o.Kind == "" {
		o.Kind = DefaultLMT
	}
	return o
}

// Label renders the configuration for experiment tables, delegating to the
// backend's registered label function.
func (o Options) Label() string {
	o = o.withDefaults()
	if b, err := Backends.Lookup(string(o.Kind)); err == nil {
		return b.label(o)
	}
	return o.Kind.String()
}

// FactoryFor resolves opt against the registry and returns a channel LMT
// constructor; pass it in nemesis.Config.LMT. The constructor checks the
// backend's capability requirements against the channel centrally and panics
// with the check's error if the channel lacks them (a wiring bug).
func FactoryFor(opt Options) (func(*nemesis.Channel) nemesis.LMT, error) {
	opt = opt.withDefaults()
	b, err := Backends.Lookup(string(opt.Kind))
	if err != nil {
		return nil, err
	}
	return func(ch *nemesis.Channel) nemesis.LMT {
		if err := b.CheckCaps(ch, opt); err != nil {
			panic(err)
		}
		return b.New(ch, opt)
	}, nil
}

// Factory is FactoryFor for callers wired to valid registry entries; it
// panics on an unknown backend name.
func Factory(opt Options) func(*nemesis.Channel) nemesis.LMT {
	f, err := FactoryFor(opt)
	if err != nil {
		panic(err)
	}
	return f
}

// DMAMinFor computes the §3.5 threshold for a transfer into recvCore, given
// the actual placement of the channel's ranks: the processes competing for
// the receiver's cache are the ranks whose cores share its L2.
func DMAMinFor(m *topo.Machine, cores []topo.CoreID, recvCore topo.CoreID) int64 {
	procs := 0
	for _, c := range cores {
		if m.SharedCache(c, recvCore) {
			procs++
		}
	}
	return m.DMAMin(procs)
}

// dmaMinFor evaluates the threshold for a channel's receive core, counting
// the channel ranks actually placed on its L2, with the §6 collective-aware
// divisor. Shared by every backend with an IOATAuto-style policy.
func dmaMinFor(ch *nemesis.Channel, opt Options, recvCore topo.CoreID) int64 {
	cores := make([]topo.CoreID, 0, len(ch.Endpoints))
	for _, ep := range ch.Endpoints {
		cores = append(cores, ep.Core)
	}
	min := DMAMinFor(ch.M.Topo, cores, recvCore)
	if opt.CollectiveAware {
		if hint := ch.CollectiveHint(); hint > 1 {
			min /= int64(hint)
		}
	}
	return min
}
