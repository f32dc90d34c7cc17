package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// waitGoroutines fails unless the goroutine count returns to baseline:
// every process is a goroutine of its own, and Terminate must leave none.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not quiesce: %d now vs %d baseline", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// A panic inside a process resurfaces from Run on the goroutine that
// called it — where a recover can see it — carrying the process's value and
// stack; Terminate then reaps the processes that survived.
func TestProcPanicSurfacesFromRun(t *testing.T) {
	// The engine runs its processes one at a time; "serial" names that one
	// mode, kept from when the engine also had parallel and lane-worker modes.
	t.Run("serial", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		e := NewEngine()
		body := func(then func()) func(*Proc) {
			return func(p *Proc) {
				p.Sleep(Microsecond)
				then()
				p.Sleep(Second)
			}
		}
		e.Spawn("bomb", body(func() { panic("boom") }))
		e.Spawn("survivor", body(func() {}))

		var r any
		func() {
			defer func() { r = recover() }()
			e.Run()
		}()
		pp, ok := r.(*ProcPanic)
		if !ok {
			t.Fatalf("Run panicked with %#v, want *ProcPanic", r)
		}
		if pp.Value != "boom" || pp.Proc != "bomb" {
			t.Fatalf("ProcPanic = {%q %v}, want {bomb boom}", pp.Proc, pp.Value)
		}
		if !strings.Contains(string(pp.Stack), "TestProcPanicSurfacesFromRun") {
			t.Fatalf("stack does not reach the panicking process:\n%s", pp.Stack)
		}
		if e.LiveProcs() != 1 {
			t.Fatalf("live = %d after the panic, want 1 (the survivor)", e.LiveProcs())
		}
		e.Terminate()
		if e.LiveProcs() != 0 {
			t.Fatalf("live = %d after Terminate", e.LiveProcs())
		}
		waitGoroutines(t, baseline)
	})
}

// A process whose start event has not fired when the engine is terminated
// never runs, and is still accounted for — whether the run stopped short of
// its start time or never happened at all.
func TestTerminateBeforeStartEvent(t *testing.T) {
	for _, run := range []bool{true, false} {
		baseline := runtime.NumGoroutine()
		e := NewEngine()
		ran := false
		e.SpawnAt(Second, "late", func(p *Proc) { ran = true })
		if run {
			e.Spawn("early", func(p *Proc) { p.Sleep(Microsecond) })
			if err := e.RunUntil(Millisecond); err != nil {
				t.Fatal(err)
			}
		} else {
			e.SpawnDaemon("unstarted-daemon", func(p *Proc) { ran = true })
		}
		if e.LiveProcs() != 1 {
			t.Fatalf("run=%v: live = %d before Terminate, want 1 (late)", run, e.LiveProcs())
		}
		e.Terminate()
		if ran {
			t.Fatalf("run=%v: an unstarted process ran during Terminate", run)
		}
		if e.LiveProcs() != 0 {
			t.Fatalf("run=%v: live = %d after Terminate", run, e.LiveProcs())
		}
		waitGoroutines(t, baseline)
	}
}

// Deferred cleanup that blocks again while Terminate unwinds its process is
// cut short at the blocking call — every time — instead of parking a
// process nobody will wake.
func TestTerminateCleanupThatBlocks(t *testing.T) {
	baseline := runtime.NumGoroutine()
	e := NewEngine()
	never := NewCond(e, "never")
	bus := NewFluid(e, "bus", 1)
	var entered, resumed int
	for _, block := range []func(p *Proc){
		func(p *Proc) { p.Sleep(Microsecond) },
		func(p *Proc) { never.Wait(p) },
		func(p *Proc) { bus.Consume(p, 1) },
	} {
		block := block
		e.Spawn("cleanup-blocks", func(p *Proc) {
			defer func() {
				entered++
				block(p)
				resumed++
			}()
			defer func() {
				entered++
				block(p)
				resumed++
			}()
			never.Wait(p)
		})
	}
	if err := e.Run(); err == nil {
		t.Fatal("three processes parked for good, and Run reported no deadlock")
	}
	e.Terminate()
	if entered != 6 || resumed != 0 {
		t.Fatalf("cleanup entered %d times and got past its blocking call %d times, want 6 and 0", entered, resumed)
	}
	if e.LiveProcs() != 0 {
		t.Fatalf("live = %d after Terminate", e.LiveProcs())
	}
	waitGoroutines(t, baseline)
}

// A daemon parked in the middle of a Sleep when the run ends is reaped,
// and its deferred cleanup runs.
func TestTerminateReapsDaemonMidSleep(t *testing.T) {
	baseline := runtime.NumGoroutine()
	e := NewEngine()
	ticks, cleaned := 0, false
	e.SpawnDaemon("ticker", func(p *Proc) {
		defer func() { cleaned = true }()
		for {
			p.Sleep(Second)
			ticks++
		}
	})
	e.Spawn("app", func(p *Proc) { p.Sleep(Microsecond) })
	if err := e.RunUntil(Millisecond); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e.StateDump(), `ticker daemon: blocked on "sleep"`) {
		t.Fatalf("dump does not show the parked daemon:\n%s", e.StateDump())
	}
	e.Terminate()
	if ticks != 0 || !cleaned {
		t.Fatalf("ticks = %d, cleaned = %v; want the daemon unwound out of its first Sleep", ticks, cleaned)
	}
	waitGoroutines(t, baseline)
}

// BenchmarkProcHandoff times the primitive every blocking step of a
// simulation pays for: a switch to a process and back. One op is one
// ping-pong (two wakeups through a Mailbox's condition variable), one
// Sleep (one wakeup) or, in a ring of three processes that resume one
// another nested, one pass of the token (one wakeup). Run it at -cpu 1,2:
// the hand-off must not get slower when the scheduler has a second thread
// to migrate goroutines to.
func BenchmarkProcHandoff(b *testing.B) {
	b.Run("mailbox-pingpong", func(b *testing.B) {
		b.ReportAllocs()
		e := NewEngine()
		ping, pong := NewMailbox[int](e, "ping"), NewMailbox[int](e, "pong")
		e.Spawn("a", func(p *Proc) {
			for i := 0; i < b.N; i++ {
				ping.Put(i)
				pong.Get(p)
			}
		})
		e.Spawn("b", func(p *Proc) {
			for i := 0; i < b.N; i++ {
				pong.Put(ping.Get(p))
			}
		})
		b.ResetTimer()
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	})
	b.Run("ring-of-three", func(b *testing.B) {
		b.ReportAllocs()
		e := NewEngine()
		var boxes [3]*Mailbox[int]
		for i := range boxes {
			boxes[i] = NewMailbox[int](e, fmt.Sprint("ring", i))
		}
		for i := range boxes {
			e.Spawn(fmt.Sprint("ring", i), func(p *Proc) {
				for {
					n := boxes[i].Get(p)
					if n >= b.N { // pass the end on, so every process sees it
						boxes[(i+1)%3].Put(n)
						return
					}
					boxes[(i+1)%3].Put(n + 1)
				}
			})
		}
		boxes[0].Put(0)
		b.ResetTimer()
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	})
	b.Run("sleep-loop", func(b *testing.B) {
		b.ReportAllocs()
		e := NewEngine()
		e.Spawn("sleeper", func(p *Proc) {
			for i := 0; i < b.N; i++ {
				p.Sleep(Nanosecond)
			}
		})
		b.ResetTimer()
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	})
}
