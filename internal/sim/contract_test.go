package sim_test

import (
	"cmp"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

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

// ring spawns three processes passing a token p → q → r → p for laps laps.
// Taking the token, a process logs it, schedules a callback due when its
// sleep ends (a tie the callback's smaller seq wins), sleeps, then puts
// the token into the next one's mailbox, schedules a zero-delay callback
// and waits for its own: so it parks with the next process's wake-up due
// next, and resumes that process itself, except when the next is an
// ancestor on the chain (r's token wakes p, which resumed q, which resumed
// r). onToken, if not nil, is called as process i takes the token. ring
// returns the log, which the callbacks also write to, and the processes.
func ring(e *sim.Engine, laps int, onToken func(i int)) (*[]string, []*sim.Proc) {
	var log []string
	names := []string{"p", "q", "r"}
	var boxes [3]*sim.Mailbox[int]
	for i := range boxes {
		boxes[i] = sim.NewMailbox[int](e, names[i])
	}
	procs := make([]*sim.Proc, len(names))
	for i, name := range names {
		procs[i] = e.Spawn(name, func(p *sim.Proc) {
			for lap := 0; lap < laps; lap++ {
				if i > 0 || lap > 0 {
					boxes[i].Get(p)
				}
				if onToken != nil {
					onToken(i)
				}
				log = append(log, fmt.Sprintf("%s%d@%v", name, lap, p.Now()))
				e.After(sim.Time(i+1), func() { log = append(log, fmt.Sprintf("cb-%s%d@%v", name, lap, e.Now())) })
				p.Sleep(sim.Time(i + 1))
				boxes[(i+1)%3].Put(lap)
				e.After(0, func() { log = append(log, fmt.Sprintf("put-%s%d@%v", name, lap, e.Now())) })
			}
			if i == 0 {
				boxes[i].Get(p) // r's last token
			}
		})
	}
	return &log, procs
}

// A ring of three processes, each waking the next and the last the first,
// runs each process nested under the ones that resumed it, and executes
// the events, in the order, that it did when only the executor switched
// to a process.
func TestNestedRingKeepsEventOrder(t *testing.T) {
	e := sim.NewEngine()
	var trace []string
	e.SetTrace(func(at sim.Time, seq uint64, _ sim.Domain) { trace = append(trace, fmt.Sprintf("%d@%d", seq, at)) })
	var procs []*sim.Proc
	var chains []string // per token taken: the processes dispatching then
	log, procs := ring(e, 3, func(int) {
		chain := ""
		for i, name := range "pqr" {
			if procs[i].Dispatching() {
				chain += string(name)
			}
		}
		chains = append(chains, cmp.Or(chain, "-"))
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// p takes the token from r after the chain unwound to it; q runs
	// under p and r under q under p, but for the last lap, where q has
	// finished and p resumes r.
	if got := strings.Join(chains, " "); got != "- p pq - p pq - p p" {
		t.Errorf("dispatching as each token was taken: %s, want - p pq - p pq - p p", got)
	}
	// Both pins were read off the engine before parking processes resumed
	// one another: only the executor switched to a process then.
	const wantLog = "p0@0ps cb-p0@1ps q0@1ps put-p0@1ps cb-q0@3ps r0@3ps put-q0@3ps " +
		"cb-r0@6ps p1@6ps put-r0@6ps cb-p1@7ps q1@7ps put-p1@7ps cb-q1@9ps r1@9ps put-q1@9ps " +
		"cb-r1@12ps p2@12ps put-r1@12ps cb-p2@13ps q2@13ps put-p2@13ps cb-q2@15ps r2@15ps put-q2@15ps " +
		"cb-r2@18ps put-r2@18ps"
	const wantTrace = "1@0 2@0 3@0 4@1 5@1 6@1 7@1 8@3 9@3 10@3 11@3 12@6 13@6 14@6 15@6 " +
		"16@7 17@7 18@7 19@7 20@9 21@9 22@9 23@9 24@12 25@12 26@12 27@12 28@13 29@13 30@13 31@13 " +
		"32@15 33@15 34@15 35@15 36@18 37@18 38@18 39@18"
	if got := strings.Join(*log, " "); got != wantLog {
		t.Errorf("log\n%s\nwant\n%s", got, wantLog)
	}
	if got := strings.Join(trace, " "); got != wantTrace {
		t.Errorf("traced (seq@at)\n%s\nwant\n%s", got, wantTrace)
	}
}

// relay spawns a, b and c: at 1us a wakes b and waits, b wakes c and
// waits, so c runs nested under b under a, and then c does what it is
// given.
func relay(e *sim.Engine, c func(p *sim.Proc)) {
	boxB, boxC, never := sim.NewMailbox[int](e, "b"), sim.NewMailbox[int](e, "c"), sim.NewMailbox[int](e, "never")
	e.Spawn("a", func(p *sim.Proc) {
		p.Sleep(sim.Microsecond)
		boxB.Put(1)
		never.Get(p)
	})
	e.Spawn("b", func(p *sim.Proc) {
		boxB.Get(p)
		boxC.Put(1)
		never.Get(p)
	})
	e.Spawn("c", func(p *sim.Proc) {
		boxC.Get(p)
		c(p)
	})
}

// A panic at the end of a chain of processes resuming one another
// surfaces from Run as it does from a process the executor resumed: a
// process's as a *ProcPanic naming it, a callback's raw with the process
// that ran it still parked. The processes on the chain stay parked, and
// Terminate leaves no goroutine.
func TestNestedPanicsSurfaceFromRun(t *testing.T) {
	run := func(e *sim.Engine) (r any) {
		defer func() { r = recover() }()
		e.Run()
		return nil
	}
	t.Run("process", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		e := sim.NewEngine()
		relay(e, func(*sim.Proc) { panic("nested boom") })
		pp, ok := run(e).(*sim.ProcPanic)
		if !ok || pp.Proc != "c" || pp.Value != "nested boom" {
			t.Fatalf("Run panicked with %#v, want a *ProcPanic from c", pp)
		}
		if e.LiveProcs() != 2 {
			t.Fatalf("live %d after the panic, want 2 (a and b)", e.LiveProcs())
		}
		e.Terminate()
		sim.WaitGoroutines(t, baseline)
	})
	t.Run("callback", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		e := sim.NewEngine()
		relay(e, func(p *sim.Proc) {
			e.After(sim.Nanosecond, func() { panic("callback boom") })
			p.Sleep(sim.Second)
		})
		if r := run(e); r != "callback boom" {
			t.Fatalf("Run panicked with %#v, want the raw callback value", r)
		}
		if e.LiveProcs() != 3 || !strings.Contains(e.StateDump(), `c: blocked on "sleep"`) {
			t.Fatalf("live %d, dump:\n%s\nwant all three parked, c in its Sleep", e.LiveProcs(), e.StateDump())
		}
		e.Terminate()
		sim.WaitGoroutines(t, baseline)
	})
}

// Stop from another goroutine ends a run whose processes resume one
// another without ever returning to the executor.
func TestStopFromAnotherGoroutineEndsNestedRun(t *testing.T) {
	baseline := runtime.NumGoroutine()
	e := sim.NewEngine()
	started, closed := make(chan struct{}), false
	ring(e, 1<<30, func(i int) {
		if i == 2 && !closed { // the chain is p, q, r now
			close(started)
			closed = true
		}
	})
	returned := make(chan error)
	go func() { returned <- e.RunUntil(sim.Second) }()
	<-started
	for {
		e.Stop() // RunUntil clears the flag on entry: repeat until it returns
		select {
		case err := <-returned:
			if err != nil {
				t.Fatal(err)
			}
			if e.Now() >= sim.Second {
				t.Fatalf("stopped at %v, the limit", e.Now())
			}
			e.Terminate()
			sim.WaitGoroutines(t, baseline)
			return
		case <-time.After(time.Millisecond):
		}
	}
}
