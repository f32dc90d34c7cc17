package imb

import (
	"knemesis/internal/comm"
	"knemesis/internal/registry"
)

// Bench is one benchmark driver chosen by name: a comm spec's "bench" and
// imb's -bench value.
type Bench struct {
	Name  string
	Order int
	// Run sweeps sizes on j; the table is a Result or a MultiResult.
	Run func(j comm.Job, sizes []int64) (any, error)
}

// Benches is the benchmark driver registry, in help order.
var Benches = registry.New("imb", "bench", func(b Bench) (string, int) { return b.Name, b.Order })

func init() {
	for i, b := range []Bench{
		bench("pingpong", RunPingPong),
		bench("multi-pingpong", RunMultiPingPong),
		bench("sendrecv", RunSendrecv),
		bench("exchange", RunExchange),
		bench("alltoall", RunAlltoall),
		bench("bcast", RunBcast),
		bench("allreduce", RunAllreduce),
	} {
		b.Order = i
		Benches.Register(b)
	}
}

// bench adapts a typed driver to Bench.Run.
func bench[R any](name string, run func(comm.Job, []int64) (R, error)) Bench {
	return Bench{Name: name, Run: func(j comm.Job, sizes []int64) (any, error) { return run(j, sizes) }}
}
