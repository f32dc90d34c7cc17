package sim_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"knemesis/internal/sim"
)

// The engine's contract around a parking process that runs the event loop
// itself: the events it runs, the order it runs them in and every way a run
// ends must be exactly those of an executor that runs every event.

// A lone process sleeping in a loop always finds its own wake-up next, so
// it never switches back to the executor: one switch starts it, and that
// is all.
func TestSleepLoopMakesNoSwitches(t *testing.T) {
	e := sim.NewEngine()
	e.Spawn("sleeper", func(p *sim.Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(sim.Nanosecond)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 100*sim.Nanosecond || e.Switches() != 1 {
		t.Fatalf("now %v after %d switches, want 100ns after 1", e.Now(), e.Switches())
	}
}

// Callbacks due before a parked process's wake-up run on its goroutine —
// but not one past RunUntil's limit: the run ends with the clock at the
// limit and the later callback still pending.
func TestInlineLoopHonoursRunUntilLimit(t *testing.T) {
	e := sim.NewEngine()
	var ran []string
	e.Spawn("p", func(p *sim.Proc) {
		e.Schedule(sim.Microsecond, func() { ran = append(ran, "before") })
		e.Schedule(3*sim.Microsecond, func() { ran = append(ran, "after") })
		p.Sleep(10 * sim.Microsecond)
		ran = append(ran, "woke")
	})
	if err := e.RunUntil(2 * sim.Microsecond); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 2*sim.Microsecond || fmt.Sprint(ran) != "[before]" || e.Switches() != 1 {
		t.Fatalf("now %v, ran %v after %d switches; want 2us, [before] after 1", e.Now(), ran, e.Switches())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(ran) != "[before after woke]" {
		t.Fatalf("ran %v after the rest of the run", ran)
	}
}

// Stop called by a callback that a parked process runs ends the run after
// that callback, as it does when the executor runs it.
func TestStopAndFailFromInlineCallbackEndRun(t *testing.T) {
	for _, tc := range []struct {
		name string
		end  func(e *sim.Engine)
	}{
		{"stop", func(e *sim.Engine) { e.Stop() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := sim.NewEngine()
			later := false
			e.Spawn("p", func(p *sim.Proc) {
				e.Schedule(sim.Microsecond, func() { tc.end(e) })
				e.Schedule(2*sim.Microsecond, func() { later = true })
				p.Sleep(10 * sim.Microsecond)
			})
			if err := e.Run(); err != nil {
				t.Fatalf("Run = %v, want nil", err)
			}
			if later || e.Now() != sim.Microsecond || e.Switches() != 1 {
				t.Fatalf("later ran %v, now %v, %d switches; want false, 1us, 1", later, e.Now(), e.Switches())
			}
			e.Terminate()
		})
	}
}

// A callback's panic surfaces from Run as its own value, with the process
// that was running it still parked (its cleanup runs only on Terminate). A
// process's panic surfaces as a *ProcPanic naming it.
func TestPanicsSurfaceFromRun(t *testing.T) {
	run := func(e *sim.Engine) (r any) {
		defer func() { r = recover() }()
		e.Run()
		return nil
	}
	t.Run("callback", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		e := sim.NewEngine()
		cleaned := false
		e.Spawn("host", func(p *sim.Proc) {
			defer func() { cleaned = true }()
			e.Schedule(sim.Microsecond, func() { panic("callback boom") })
			p.Sleep(sim.Second)
		})
		if r := run(e); r != "callback boom" {
			t.Fatalf("Run panicked with %#v, want the raw callback value", r)
		}
		if cleaned || e.LiveProcs() != 1 || !strings.Contains(e.StateDump(), `host: blocked on "sleep"`) {
			t.Fatalf("cleaned %v, live %d, dump:\n%s\nwant the host parked in its Sleep", cleaned, e.LiveProcs(), e.StateDump())
		}
		e.Terminate()
		if !cleaned {
			t.Fatal("Terminate did not unwind the host")
		}
		sim.WaitGoroutines(t, baseline)
	})
	t.Run("process", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		e := sim.NewEngine()
		e.Spawn("bomb", func(p *sim.Proc) {
			p.Sleep(sim.Microsecond)
			panic("process boom")
		})
		pp, ok := run(e).(*sim.ProcPanic)
		if !ok || pp.Proc != "bomb" || pp.Value != "process boom" {
			t.Fatalf("Run panicked with %#v, want a *ProcPanic from bomb", pp)
		}
		e.Terminate()
		sim.WaitGoroutines(t, baseline)
	})
}

// A heap event due now runs before a zero-delay event scheduled at now:
// the heap's was scheduled earlier, so it has the smaller seq.
func TestHeapEventDueNowBeforeZeroDelayEvent(t *testing.T) {
	e := sim.NewEngine()
	var order []string
	var seqs []uint64
	e.SetTrace(func(_ sim.Time, seq uint64, _ sim.Domain) { seqs = append(seqs, seq) })
	e.Schedule(sim.Second, func() {
		order = append(order, "a")
		e.After(0, func() { order = append(order, "c") })
	})
	e.Schedule(sim.Second, func() { order = append(order, "b") })
	e.Spawn("p", func(p *sim.Proc) {
		p.Sleep(sim.Second)
		order = append(order, "p")
		e.After(0, func() { order = append(order, "d") })
		p.Sleep(0)
		order = append(order, "p2")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(order); got != "[a b p c d p2]" {
		t.Fatalf("order %s, want [a b p c d p2]", got)
	}
	// p's start (seq 3) runs at 0; at 1s the heap's a, b and p's wake-up
	// (1, 2, 4), then the FIFO's c, d and p's Sleep(0) (5, 6, 7).
	if got := fmt.Sprint(seqs); got != "[3 1 2 4 5 6 7]" {
		t.Fatalf("traced seqs %s, want [3 1 2 4 5 6 7]", got)
	}
}

// Cleanup that blocks while Terminate unwinds its process runs no event,
// not even one that was due before its wake-up.
func TestTerminateCleanupRunsNoEvents(t *testing.T) {
	baseline := runtime.NumGoroutine()
	e := sim.NewEngine()
	never := sim.NewCond(e, "never")
	traced, callback, resumed := 0, false, false
	e.Spawn("p", func(p *sim.Proc) {
		defer func() {
			p.Sleep(sim.Second)
			resumed = true
		}()
		e.Schedule(sim.Microsecond, e.Stop)
		e.Schedule(2*sim.Microsecond, func() { callback = true })
		never.Wait(p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.SetTrace(func(sim.Time, uint64, sim.Domain) { traced++ })
	e.Terminate()
	if traced != 0 || callback || resumed {
		t.Fatalf("Terminate ran %d events (callback %v, cleanup resumed %v)", traced, callback, resumed)
	}
	sim.WaitGoroutines(t, baseline)
}

// A finished process's goroutine serves the next process to start, and a
// run that ends in terminal state leaves no goroutine behind without
// Terminate.
func TestTerminalRunStopsIdleWorkers(t *testing.T) {
	baseline := runtime.NumGoroutine()
	e := sim.NewEngine()
	var during []int
	var spawn func(n int)
	spawn = func(n int) {
		e.Spawn(fmt.Sprint("gen", n), func(p *sim.Proc) {
			p.Sleep(sim.Nanosecond)
			during = append(during, runtime.NumGoroutine()-baseline)
			if n < 3 {
				spawn(n + 1)
			}
		})
	}
	spawn(0)
	e.Spawn("side", func(p *sim.Proc) {})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(during) != "[2 2 2 2]" {
		t.Fatalf("goroutines above baseline during each generation %v, want [2 2 2 2]: one worker per concurrent process", during)
	}
	sim.WaitGoroutines(t, baseline)
}
