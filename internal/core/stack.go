package core

import (
	"knemesis/internal/hw"
	"knemesis/internal/ioat"
	"knemesis/internal/kernel"
	"knemesis/internal/knem"
	"knemesis/internal/nemesis"
	"knemesis/internal/sim"
	"knemesis/internal/topo"
)

// Stack is a fully wired simulated node: hardware, OS, DMA engine, KNEM
// module and a Nemesis channel with the configured LMT backend. It is the
// entry point used by the MPI layer, benchmarks and tests.
type Stack struct {
	M    *hw.Machine
	OS   *kernel.OS
	DMA  *ioat.Engine
	KNEM *knem.Module
	Ch   *nemesis.Channel
	Opt  Options
}

// NewStack builds a stack on machine t with one rank per entry of cores.
// The LMT backend is resolved by name through the registry; unknown names
// panic (use FactoryFor to validate names with an error instead).
func NewStack(t *topo.Machine, cores []topo.CoreID, opt Options, chCfg nemesis.Config) *Stack {
	return newStackOn(hw.New(t), cores, nil, opt, chCfg)
}

// newStackOn wires one node's stack on an already built machine; ranks gives
// the global rank of each core's endpoint (nil = identity, the single-node
// layout).
func newStackOn(m *hw.Machine, cores []topo.CoreID, ranks []int, opt Options, chCfg nemesis.Config) *Stack {
	opt = opt.withDefaults()
	os := kernel.New(m)
	dma := ioat.NewEngine(m)
	km := knem.Load(os, dma)
	chCfg.LMT = Factory(opt)
	ch := nemesis.NewChannelRanks(m, os, dma, km, cores, ranks, chCfg)
	return &Stack{M: m, OS: os, DMA: dma, KNEM: km, Ch: ch, Opt: opt}
}

// ClusterStack is a fully wired multi-node job: one Stack per used host of
// the placement (every node its own machine, OS, DMA, KNEM and channel — all
// on one shared event engine) plus the modelled inter-node network linking
// them. Intra-node traffic rides each node's Nemesis channel exactly as on a
// single-node Stack; inter-node traffic crosses Net.
type ClusterStack struct {
	Topo   *topo.Cluster
	Place  *topo.Placement
	Eng    *sim.Engine
	Nodes  []*Stack // one per used host, in Placement.UsedHosts order
	Net    *nemesis.Net
	Link   *nemesis.Cluster
	Opt    Options
	NodeMs []*topo.Machine // the per-node machine shapes, parallel to Nodes
}

// NewClusterStack builds the per-node stacks for a placement on one shared
// engine and links them with the modelled network. Every rank keeps its
// global number: rank r lives on node pl.NodeOf[r], core pl.CoreOf[r].
func NewClusterStack(eng *sim.Engine, pl *topo.Placement, opt Options, chCfg nemesis.Config) *ClusterStack {
	cs := &ClusterStack{
		Topo:  pl.Cluster,
		Place: pl,
		Eng:   eng,
		Net:   nemesis.NewNet(eng, pl.Cluster),
		Opt:   opt.withDefaults(),
	}
	var chans []*nemesis.Channel
	for _, node := range pl.UsedHosts() {
		ranks := pl.NodeRanks[node]
		mt := topo.NodeMachine(pl.Cluster.Nodes[node].Cores)
		m := hw.NewOn(eng, mt)
		cores := make([]topo.CoreID, len(ranks))
		for i, r := range ranks {
			cores[i] = pl.CoreOf[r]
		}
		s := newStackOn(m, cores, ranks, opt, chCfg)
		cs.Nodes = append(cs.Nodes, s)
		cs.NodeMs = append(cs.NodeMs, mt)
		chans = append(chans, s.Ch)
	}
	cs.Link = nemesis.LinkCluster(pl.Cluster, pl, chans, cs.Net)
	return cs
}

// Size returns the global rank count.
func (cs *ClusterStack) Size() int { return len(cs.Place.NodeOf) }

// Endpoint returns the endpoint of a global rank.
func (cs *ClusterStack) Endpoint(rank int) *nemesis.Endpoint { return cs.Link.Endpoint(rank) }

// StandardOptions returns the four LMT configurations of the paper's tables
// (default, vmsplice, KNEM kernel copy, KNEM with auto I/OAT), in order.
// The CMA backend postdates the paper and is therefore not part of the
// standard table set; figure sweeps add it as an extra curve.
func StandardOptions() []Options {
	return []Options{
		{Kind: DefaultLMT},
		{Kind: VmspliceLMT},
		{Kind: KnemLMT, IOAT: IOATOff},
		{Kind: KnemLMT, IOAT: IOATAuto},
	}
}
