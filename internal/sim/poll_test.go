package sim

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// pollScenario is one fluid with busy-pollers, processes that join it with
// flows of their own, capacity steps and Served reads, all at fixed times.
type pollScenario struct {
	capacity float64
	pollers  []pollerSpec
	joiners  []joinerSpec
	steps    []capStep
	reads    []Time
}

type pollerSpec struct {
	at, flip Time
	amount   float64
	// zeroDelay flips done in a zero-delay event queued by the event at
	// flip, instead of in that event itself.
	zeroDelay bool
}

type joinerSpec struct {
	at     Time
	amount float64
}

type capStep struct {
	at       Time
	capacity float64
}

// pollOutcome is everything a scenario computes: when each poller and
// joiner finished, the bits of every Served read and of the final Served,
// and the engine's final clock.
type pollOutcome struct {
	exits, joins []Time
	reads        []uint64
	served       uint64
	now          Time
}

func (o pollOutcome) String() string {
	return fmt.Sprintf("exits %d joins %d reads %x served %x now %d", o.exits, o.joins, o.reads, o.served, o.now)
}

func (o pollOutcome) equal(q pollOutcome) bool { return o.String() == q.String() }

// runPoll runs s with every poller calling Poll (lazy) or the loop Poll
// stands for, and returns the outcome and the number of boundary ties.
func runPoll(t testing.TB, s pollScenario, lazy bool) (pollOutcome, int) {
	e := NewEngine()
	f := NewFluid(e, "cpu", s.capacity)
	out := pollOutcome{
		exits: make([]Time, len(s.pollers)),
		joins: make([]Time, len(s.joiners)),
		reads: make([]uint64, len(s.reads)),
	}
	for i, ps := range s.pollers {
		flipped := false
		c := NewCond(e, fmt.Sprintf("status %d", i))
		flip := func() {
			flipped = true
			c.Broadcast()
		}
		if ps.zeroDelay {
			e.Schedule(ps.flip, func() { e.Schedule(e.Now(), flip) })
		} else {
			e.Schedule(ps.flip, flip)
		}
		e.SpawnAt(ps.at, "poller", func(p *Proc) {
			done := func() bool { return flipped }
			if lazy {
				f.Poll(p, ps.amount, done, c)
			} else {
				for !done() {
					f.Consume(p, ps.amount)
				}
			}
			out.exits[i] = p.Now()
		})
	}
	for i, js := range s.joiners {
		e.SpawnAt(js.at, "joiner", func(p *Proc) {
			f.Consume(p, js.amount)
			out.joins[i] = p.Now()
		})
	}
	for _, st := range s.steps {
		e.Schedule(st.at, func() { f.SetCapacity(st.capacity) })
	}
	for i, at := range s.reads {
		e.Schedule(at, func() { out.reads[i] = math.Float64bits(f.Served()) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	out.served = math.Float64bits(f.Served())
	out.now = e.Now()
	return out, f.ties
}

// bytesSource draws scenario parameters from fuzz input; an exhausted
// input reads as zeros.
type bytesSource []byte

func (b *bytesSource) u16() uint16 {
	var v [2]byte
	n := copy(v[:], *b)
	*b = (*b)[n:]
	return binary.LittleEndian.Uint16(v[:])
}

// decodePollScenario builds a scenario on a microsecond scale: quanta of
// 1 ns to 4 µs of CPU time, flips, joins, steps and reads within ~100 µs.
func decodePollScenario(b bytesSource) pollScenario {
	at := func() Time { return Time(b.u16()) * 1500 }
	amount := func() float64 { return float64(1+b.u16()%4000) * 1e-9 }
	s := pollScenario{capacity: 0.5 + float64(b.u16()%256)/128}
	for range 1 + b.u16()%2 {
		ps := pollerSpec{at: at(), amount: amount()}
		ps.flip = ps.at + at()
		ps.zeroDelay = b.u16()%2 == 1
		s.pollers = append(s.pollers, ps)
	}
	for range b.u16() % 4 {
		s.joiners = append(s.joiners, joinerSpec{at: at(), amount: amount()})
	}
	for range b.u16() % 3 {
		s.steps = append(s.steps, capStep{at: at(), capacity: 0.25 + float64(b.u16()%256)/100})
	}
	for range b.u16() % 3 {
		s.reads = append(s.reads, at())
	}
	return s
}

// checkPollMatchesLoop runs s both ways and compares the outcomes, unless
// a settle fell exactly on a quantum boundary, where the tie rule (not the
// loop's event order) decides.
func checkPollMatchesLoop(t *testing.T, s pollScenario) {
	t.Helper()
	lazy, ties := runPoll(t, s, true)
	if ties > 0 {
		return
	}
	loop, _ := runPoll(t, s, false)
	if !lazy.equal(loop) {
		t.Fatalf("scenario %+v\nPoll: %v\nloop: %v", s, lazy, loop)
	}
}

// Poll is the loop it replaces: on random scenarios the pollers' exits,
// the joiners' completions, every Served read and the final clock are
// equal to the bit.
func TestPollMatchesLoop(t *testing.T) {
	n := 2000
	if testing.Short() {
		n = 300
	}
	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, 64)
	for i := 0; i < n; i++ {
		rng.Read(buf)
		checkPollMatchesLoop(t, decodePollScenario(buf))
	}
}

func FuzzPollMatchesLoop(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 1, 0, 10, 0, 40, 0, 5, 0, 0, 0, 3, 0, 20, 0, 7, 0, 2, 0, 30, 0, 200, 0, 1, 0, 25, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkPollMatchesLoop(t, decodePollScenario(data))
	})
}

// tieScenario is one poller with 2 µs quanta on a one-CPU fluid, from time
// zero: quantum j ends at j·D with D = 2 000 001 ps.
func tieScenario() (pollScenario, Time) {
	s := pollScenario{capacity: 1, pollers: []pollerSpec{{amount: 2e-6}}}
	return s, FromSeconds(2e-6) + 1
}

// A done that flips exactly on a boundary ends the poll there. The loop
// agrees for a flip in a heap event and for a zero-delay flip queued before
// the boundary's tick has woken the poller.
func TestPollTieFlipOnBoundary(t *testing.T) {
	for _, zeroDelay := range []bool{false, true} {
		s, d := tieScenario()
		s.pollers[0].flip, s.pollers[0].zeroDelay = 5*d, zeroDelay
		lazy, ties := runPoll(t, s, true)
		loop, _ := runPoll(t, s, false)
		if lazy.exits[0] != 5*d || !lazy.equal(loop) || ties != 1 {
			t.Errorf("zeroDelay=%v: Poll %v (%d ties), loop %v; want both to exit at %d",
				zeroDelay, lazy, ties, loop, 5*d)
		}
	}
}

// A zero-delay flip queued after the boundary's tick has woken the poller
// is the one order the tie rule does not follow: the loop polls one more
// quantum, Poll ends on the boundary.
func TestPollTieFlipQueuedBehindWake(t *testing.T) {
	s, d := tieScenario()
	run := func(lazy bool) (Time, int) {
		e := NewEngine()
		f := NewFluid(e, "cpu", s.capacity)
		flipped := false
		c := NewCond(e, "status")
		// Scheduled mid-quantum 5, for the boundary: after the tick.
		e.Schedule(4*d+d/2, func() {
			e.Schedule(5*d, func() {
				e.Schedule(5*d, func() { flipped = true; c.Broadcast() })
			})
		})
		var exit Time
		e.Spawn("poller", func(p *Proc) {
			done := func() bool { return flipped }
			if lazy {
				f.Poll(p, s.pollers[0].amount, done, c)
			} else {
				for !done() {
					f.Consume(p, s.pollers[0].amount)
				}
			}
			exit = p.Now()
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return exit, f.ties
	}
	lazyExit, ties := run(true)
	loopExit, _ := run(false)
	if lazyExit != 5*d || loopExit != 6*d || ties != 1 {
		t.Fatalf("Poll exits at %d (%d ties), loop at %d; want %d and %d", lazyExit, ties, loopExit, 5*d, 6*d)
	}
}

// A flow that joins exactly on a boundary starts after that quantum has
// completed and before the poller's next, as in the loop whenever the join
// runs in a heap event.
func TestPollTieJoinOnBoundary(t *testing.T) {
	s, d := tieScenario()
	s.pollers[0].flip = 9*d + d/3
	s.joiners = []joinerSpec{{at: 5 * d, amount: 3e-6}}
	s.reads = []Time{5 * d}
	lazy, ties := runPoll(t, s, true)
	loop, _ := runPoll(t, s, false)
	if !lazy.equal(loop) || ties == 0 {
		t.Fatalf("Poll %v (%d ties), loop %v", lazy, ties, loop)
	}
}

// A poll whose status never completes ends in the engine's deadlock error,
// naming the status cond, instead of spinning for ever.
func TestPollNeverDoneIsDeadlock(t *testing.T) {
	e := NewEngine()
	f := NewFluid(e, "cpu", 1)
	c := NewCond(e, "knem-status")
	e.Spawn("poller", func(p *Proc) {
		f.Poll(p, 2e-6, func() bool { return false }, c)
	})
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "cond knem-status") {
		t.Fatalf("Run = %v, want a deadlock naming cond knem-status", err)
	}
}

// pollStatus is a completion flag polled through a method value, as the
// knem and I/OAT statuses are, each with a cond of its own.
type pollStatus struct {
	done bool
	c    *Cond
}

func (s *pollStatus) Done() bool { return s.done }

// A lazy poll is a park on the status cond and a final real quantum: in
// steady state it allocates nothing, its done method value and the first
// wait on a fresh cond included.
func TestPollSteadyStateDoesNotAllocate(t *testing.T) {
	e := NewEngine()
	f := NewFluid(e, "cpu", 1)
	req := NewMailbox[*pollStatus](e, "req")
	const runs = 200
	sts := make([]pollStatus, runs+1) // AllocsPerRun adds a warm-up call
	for i := range sts {
		sts[i].c = NewCond(e, "status")
	}
	var allocs float64
	e.Spawn("poller", func(p *Proc) {
		i := 0
		allocs = testing.AllocsPerRun(runs, func() {
			st := &sts[i]
			i++
			req.Put(st)
			f.Poll(p, 2e-6, st.Done, st.c)
		})
	})
	e.Spawn("device", func(p *Proc) {
		for range sts {
			st := req.Get(p)
			p.Sleep(7 * Microsecond)
			st.done = true
			st.c.Broadcast()
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("a lazy poll allocates %.1f objects", allocs)
	}
}

// A capacity raise after a join can finish every flow before the boundary
// the interrupted poller's quantum would have ended on. The loop still has
// that quantum's superseded tick pending there, so the engine's final clock
// ends on it; Poll's must too.
func TestPollRaiseKeepsSupersededTick(t *testing.T) {
	s, d := tieScenario()
	s.pollers[0].flip = 1500 * Nanosecond
	s.joiners = []joinerSpec{{at: Microsecond, amount: 1e-7}}
	s.steps = []capStep{{at: 1200 * Nanosecond, capacity: 4}}
	lazy, ties := runPoll(t, s, true)
	loop, _ := runPoll(t, s, false)
	if !lazy.equal(loop) || ties != 0 || loop.now != d {
		t.Fatalf("Poll %v (%d ties), loop %v; want both to end at %d", lazy, ties, loop, d)
	}
}
