package sim

import (
	"math"
	"runtime"
	"testing"
	"testing/quick"
)

// approx reports whether a is within rel of b.
func approx(a, b, rel float64) bool {
	if b == 0 {
		return math.Abs(a) < rel
	}
	return math.Abs(a-b)/math.Abs(b) < rel
}

func TestFluidSingleFlow(t *testing.T) {
	e := NewEngine()
	f := NewFluid(e, "bus", 1e9) // 1 GB/s
	var end Time
	e.Spawn("xfer", func(p *Proc) {
		f.Consume(p, 1e6) // 1 MB
		end = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !approx(end.Seconds(), 1e-3, 1e-6) {
		t.Fatalf("1MB at 1GB/s took %v, want ~1ms", end)
	}
}

func TestFluidFairSharing(t *testing.T) {
	// Two equal flows started together each get half the capacity and
	// finish together in twice the solo time.
	e := NewEngine()
	f := NewFluid(e, "bus", 1e9)
	var ends [2]Time
	for i := 0; i < 2; i++ {
		i := i
		e.Spawn("xfer", func(p *Proc) {
			f.Consume(p, 1e6)
			ends[i] = p.Now()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, end := range ends {
		if !approx(end.Seconds(), 2e-3, 1e-6) {
			t.Fatalf("flow %d finished at %v, want ~2ms", i, end)
		}
	}
}

func TestFluidLateArrival(t *testing.T) {
	// Flow A (2 MB) runs alone for 1 ms (finishing 1 MB), then B (1 MB)
	// joins. They share: A's second MB and B's MB take 2 ms each of
	// half-rate service, so both finish at t=3ms.
	e := NewEngine()
	f := NewFluid(e, "bus", 1e9)
	var endA, endB Time
	e.Spawn("a", func(p *Proc) {
		f.Consume(p, 2e6)
		endA = p.Now()
	})
	e.Spawn("b", func(p *Proc) {
		p.Sleep(Millisecond)
		f.Consume(p, 1e6)
		endB = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !approx(endA.Seconds(), 3e-3, 1e-5) {
		t.Fatalf("A finished at %v, want ~3ms", endA)
	}
	if !approx(endB.Seconds(), 3e-3, 1e-5) {
		t.Fatalf("B finished at %v, want ~3ms", endB)
	}
}

func TestFluidZeroAmount(t *testing.T) {
	e := NewEngine()
	f := NewFluid(e, "bus", 1e9)
	done := false
	e.Spawn("p", func(p *Proc) {
		f.Consume(p, 0)
		done = true
		if p.Now() != 0 {
			t.Errorf("zero-amount flow advanced time to %v", p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("zero flow never completed")
	}
}

// Property: total service time for N equal concurrent flows equals
// N*amount/capacity (work conservation), regardless of N and amount.
func TestFluidWorkConservationProperty(t *testing.T) {
	prop := func(nRaw uint8, amtRaw uint32) bool {
		n := int(nRaw%8) + 1
		amount := float64(amtRaw%1_000_000) + 1000
		e := NewEngine()
		f := NewFluid(e, "bus", 8e9)
		var last Time
		for i := 0; i < n; i++ {
			e.Spawn("p", func(p *Proc) {
				f.Consume(p, amount)
				if p.Now() > last {
					last = p.Now()
				}
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		want := float64(n) * amount / 8e9
		return approx(last.Seconds(), want, 1e-4)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: staggered arrivals never violate conservation: the makespan of
// any set of flows is at least total/capacity and at most
// latestArrival + total/capacity.
func TestFluidMakespanBoundsProperty(t *testing.T) {
	prop := func(arrivalsRaw [4]uint16, amountsRaw [4]uint16) bool {
		e := NewEngine()
		f := NewFluid(e, "bus", 1e9)
		var last Time
		var total float64
		var latest Time
		for i := 0; i < 4; i++ {
			arrive := Time(arrivalsRaw[i]) * Microsecond
			amount := float64(amountsRaw[i]) + 1
			total += amount
			if arrive > latest {
				latest = arrive
			}
			e.Spawn("p", func(p *Proc) {
				p.Sleep(arrive)
				f.Consume(p, amount)
				if p.Now() > last {
					last = p.Now()
				}
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		lower := total / 1e9
		upper := latest.Seconds() + total/1e9
		got := last.Seconds()
		return got >= lower*(1-1e-6) && got <= upper*(1+1e-6)+1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestFluidServedAccounting(t *testing.T) {
	e := NewEngine()
	f := NewFluid(e, "bus", 1e9)
	for i := 0; i < 3; i++ {
		e.Spawn("p", func(p *Proc) { f.Consume(p, 1000) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !approx(f.Served(), 3000, 1e-9) {
		t.Fatalf("Served = %v, want 3000", f.Served())
	}
}

// Consume is the simulator's hottest path (every modelled copy charges a
// CPU and a bus through it). In steady state it reuses its Flow and the
// fluid its completion events — superseded ones included, which two
// processes sharing one fluid at different paces produce all the time.
func TestConsumeSteadyStateDoesNotAllocate(t *testing.T) {
	e := NewEngine()
	f := NewFluid(e, "cpu", 1e9)
	const warm, timed = 100, 2000
	var before, after runtime.MemStats
	e.Spawn("fast", func(p *Proc) {
		for i := 0; i < warm+timed; i++ {
			f.Consume(p, 300)
		}
	})
	e.Spawn("slow", func(p *Proc) {
		for i := 0; i < warm; i++ {
			f.Consume(p, 1000)
		}
		runtime.ReadMemStats(&before)
		for i := 0; i < timed; i++ {
			f.Consume(p, 1000)
		}
		runtime.ReadMemStats(&after)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// More than 2·timed Consumes ran between the two readings; a Flow or a
	// closure apiece would be thousands of objects.
	if n := after.Mallocs - before.Mallocs; n > 100 {
		t.Fatalf("%d heap objects allocated across %d steady-state Consumes", n, 2*timed)
	}
}

// A flow held across other work (hw starts the bus flow, consumes CPU, then
// waits) goes back to its fluid through Release, and only a finished flow
// of that fluid, once.
func TestReleaseRecyclesHeldFlow(t *testing.T) {
	e := NewEngine()
	bus, cpu := NewFluid(e, "bus", 1e9), NewFluid(e, "cpu", 1)
	mustPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("Release of %s did not panic", what)
			}
		}()
		fn()
	}
	var allocs float64
	e.Spawn("p", func(p *Proc) {
		running := bus.Start(1000)
		mustPanic("a running flow", func() { bus.Release(running) })
		running.Wait(p)
		mustPanic("another fluid's flow", func() { cpu.Release(running) })
		bus.Release(running)
		mustPanic("a released flow", func() { bus.Release(running) })

		allocs = testing.AllocsPerRun(200, func() {
			fl := bus.Start(1000)
			cpu.Consume(p, 1e-6)
			fl.Wait(p)
			bus.Release(fl)
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("a held-and-released flow allocates %.1f objects per round", allocs)
	}
}
