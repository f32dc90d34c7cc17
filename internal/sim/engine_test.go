package sim

import (
	"fmt"
	"strings"
	"testing"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(10*Nanosecond, func() { got = append(got, 2) })
	e.Schedule(5*Nanosecond, func() { got = append(got, 1) })
	e.Schedule(10*Nanosecond, func() { got = append(got, 3) }) // same time: FIFO
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 10*Nanosecond {
		t.Fatalf("final time = %v, want 10ns", e.Now())
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10*Nanosecond, func() {})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past should panic")
		}
	}()
	e.Schedule(5*Nanosecond, func() {})
}

func TestProcSleep(t *testing.T) {
	e := NewEngine()
	var wake Time
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(3 * Microsecond)
		wake = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if wake != 3*Microsecond {
		t.Fatalf("woke at %v, want 3us", wake)
	}
}

func TestTwoProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		var log []string
		mk := func(name string, step Time) {
			e.Spawn(name, func(p *Proc) {
				for i := 0; i < 3; i++ {
					p.Sleep(step)
					log = append(log, fmt.Sprintf("%s@%v", name, p.Now()))
				}
			})
		}
		mk("a", 2*Nanosecond)
		mk("b", 3*Nanosecond)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	first := run()
	for i := 0; i < 5; i++ {
		again := run()
		if len(again) != len(first) {
			t.Fatalf("nondeterministic length: %d vs %d", len(again), len(first))
		}
		for j := range first {
			if first[j] != again[j] {
				t.Fatalf("nondeterministic at %d: %q vs %q", j, first[j], again[j])
			}
		}
	}
	// At t=6 both wake; b's wake event was scheduled at t=3, a's at t=4,
	// so b fires first (same-time events fire in scheduling order).
	want := []string{"a@2.000ns", "b@3.000ns", "a@4.000ns", "b@6.000ns", "a@6.000ns", "b@9.000ns"}
	for i := range want {
		if first[i] != want[i] {
			t.Fatalf("log[%d] = %q, want %q (full: %v)", i, first[i], want[i], first)
		}
	}
}

// A deadlock report names every blocked process by pid as well as name:
// protocol processes of one kind share a name.
func TestDeadlockDetection(t *testing.T) {
	e := NewEngine()
	c := NewCond(e, "never")
	e.Spawn("stuck", func(p *Proc) { c.Wait(p) })
	e.Spawn("stuck", func(p *Proc) { c.Wait(p) })
	err := e.Run()
	if err == nil {
		t.Fatal("expected deadlock error")
	}
	if !strings.Contains(err.Error(), "proc 0 stuck[cond never], proc 1 stuck[cond never]") {
		t.Fatalf("deadlock report %q does not tell the two processes apart", err)
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.Schedule(1*Second, func() { fired++ })
	e.Schedule(3*Second, func() { fired++ })
	if err := e.RunUntil(2 * Second); err != nil && fired != 1 {
		// A live process count of zero with pending events is fine here.
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if e.Now() != 2*Second {
		t.Fatalf("now = %v, want 2s", e.Now())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
}

// The trace observer sees every executed event, in (at, seq) order; an
// engine that runs dry hands its heap's backing array to heapPool for the
// next engine, while one cut short by RunUntil keeps its pending events.
func TestTraceOrderAndDrainedHeapRelease(t *testing.T) {
	e := NewEngine()
	var seqs []uint64
	e.SetTrace(func(at Time, seq uint64, dom Domain) {
		if dom != DomainMachine || at != e.Now() {
			t.Fatalf("trace (%v, %d, %d) at now %v", at, seq, dom, e.Now())
		}
		seqs = append(seqs, seq)
	})
	e.Schedule(3*Second, func() {})
	e.Schedule(Second, func() { e.After(0, func() {}) })
	if err := e.RunUntil(2 * Second); err != nil {
		t.Fatal(err)
	}
	if len(e.events) != 1 {
		t.Fatalf("%d events pending after RunUntil, want 1", len(e.events))
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []uint64{2, 3, 1}; fmt.Sprint(seqs) != fmt.Sprint(want) {
		t.Fatalf("traced seqs %v, want %v", seqs, want)
	}
	if e.events != nil {
		t.Fatalf("drained engine kept its heap (cap %d)", cap(e.events))
	}
}

func TestCondSignalBroadcast(t *testing.T) {
	e := NewEngine()
	c := NewCond(e, "c")
	var woke []string
	ready := 0
	for _, name := range []string{"w1", "w2", "w3"} {
		name := name
		e.Spawn(name, func(p *Proc) {
			ready++
			c.Wait(p)
			woke = append(woke, name)
		})
	}
	e.Spawn("signaler", func(p *Proc) {
		p.Sleep(1 * Nanosecond)
		c.Signal()
		p.Sleep(1 * Nanosecond)
		c.Broadcast()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(woke) != 3 || woke[0] != "w1" {
		t.Fatalf("woke = %v, want w1 first then all", woke)
	}
}

func TestMailboxFIFO(t *testing.T) {
	e := NewEngine()
	m := NewMailbox[int](e, "m")
	var got []int
	e.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			got = append(got, m.Get(p))
		}
	})
	e.Spawn("producer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(1 * Nanosecond)
			m.Put(i)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got %v, want 0..4 in order", got)
		}
	}
}

// A mailbox round trip between two processes is the simulator's hand-off
// in miniature; in steady state neither the item queues nor the conditions'
// waiter queues may allocate.
func TestMailboxRoundTripDoesNotAllocate(t *testing.T) {
	e := NewEngine()
	ab, ba := NewMailbox[int](e, "ab"), NewMailbox[int](e, "ba")
	const runs = 500
	var allocs float64
	e.Spawn("a", func(p *Proc) {
		allocs = testing.AllocsPerRun(runs, func() {
			ab.Put(1)
			ba.Get(p)
		})
	})
	e.Spawn("b", func(p *Proc) {
		for i := 0; i < runs+1; i++ { // AllocsPerRun adds a warm-up call
			ba.Put(ab.Get(p))
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("a mailbox round trip allocates %.1f objects", allocs)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500 * Picosecond, "500ps"},
		{1500 * Picosecond, "1.500ns"},
		{2 * Microsecond, "2.000us"},
		{3 * Millisecond, "3.000ms"},
		{Second + Millisecond, "1.001s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}
