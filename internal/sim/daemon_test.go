package sim

import "testing"

func TestDaemonDoesNotDeadlock(t *testing.T) {
	// A daemon blocked forever must not trip deadlock detection.
	e := NewEngine()
	m := NewMailbox[int](e, "jobs")
	served := 0
	e.SpawnDaemon("server", func(p *Proc) {
		for {
			m.Get(p)
			served++
		}
	})
	e.Spawn("client", func(p *Proc) {
		m.Put(1)
		m.Put(2)
		p.Sleep(Microsecond)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if served != 2 {
		t.Fatalf("served = %d, want 2", served)
	}
}

func TestNonDaemonStillDeadlocks(t *testing.T) {
	e := NewEngine()
	m := NewMailbox[int](e, "never")
	e.Spawn("stuck", func(p *Proc) { m.Get(p) })
	if err := e.Run(); err == nil {
		t.Fatal("expected deadlock error for blocked non-daemon")
	}
}

func TestSpawnAtFuture(t *testing.T) {
	e := NewEngine()
	var started Time
	e.SpawnAt(5*Microsecond, "late", func(p *Proc) { started = p.Now() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if started != 5*Microsecond {
		t.Fatalf("started at %v, want 5us", started)
	}
}

func TestYieldRunsBehindSameTimeEvents(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Spawn("yielder", func(p *Proc) {
		e.Schedule(e.Now(), func() { order = append(order, "event") })
		p.Sleep(0)
		order = append(order, "proc")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "event" || order[1] != "proc" {
		t.Fatalf("order = %v", order)
	}
}
