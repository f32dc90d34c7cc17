package scheduler

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// blockingJob returns a job that parks until released (or its ctx is cut).
func blockingJob(id, class string, release <-chan struct{}) Job {
	return Job{ID: id, Class: class, Run: func(ctx context.Context) error {
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}}
}

func TestSimPoolBounded(t *testing.T) {
	var running, max atomic.Int64
	var done sync.WaitGroup
	s := New(Config{SimWorkers: 2, QueueCap: 16,
		OnFinish: func(string, error, bool) { done.Done() }})
	for i := 0; i < 6; i++ {
		done.Add(1)
		err := s.Submit(Job{ID: string(rune('a' + i)), Class: ClassSim, Run: func(ctx context.Context) error {
			n := running.Add(1)
			for {
				m := max.Load()
				if n <= m || max.CompareAndSwap(m, n) {
					break
				}
			}
			time.Sleep(5 * time.Millisecond)
			running.Add(-1)
			return nil
		}})
		if err != nil {
			t.Fatal(err)
		}
	}
	done.Wait()
	if got := max.Load(); got > 2 {
		t.Fatalf("sim concurrency reached %d with SimWorkers=2", got)
	}
}

func TestRTExclusive(t *testing.T) {
	var running, max atomic.Int64
	var done sync.WaitGroup
	s := New(Config{SimWorkers: 4, QueueCap: 16,
		OnFinish: func(string, error, bool) { done.Done() }})
	for i := 0; i < 4; i++ {
		done.Add(1)
		err := s.Submit(Job{ID: string(rune('a' + i)), Class: ClassRT,
			Run: func(ctx context.Context) error {
				n := running.Add(1)
				for {
					m := max.Load()
					if n <= m || max.CompareAndSwap(m, n) {
						break
					}
				}
				time.Sleep(5 * time.Millisecond)
				running.Add(-1)
				return nil
			}})
		if err != nil {
			t.Fatal(err)
		}
	}
	done.Wait()
	if got := max.Load(); got != 1 {
		t.Fatalf("rt concurrency reached %d; rt jobs must never overlap", got)
	}
}

func TestQueueShedding(t *testing.T) {
	release := make(chan struct{})
	s := New(Config{SimWorkers: 1, QueueCap: 2})
	// 1 running + 2 queued fit; the 4th submission is shed.
	for i := 0; i < 3; i++ {
		if err := s.Submit(blockingJob(string(rune('a'+i)), ClassSim, release)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Submit(blockingJob("d", ClassSim, release)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submission error = %v, want ErrQueueFull", err)
	}
	if st := s.Stats(); st.Shed != 1 || st.Queued != 2 {
		t.Fatalf("stats after shed = %+v", st)
	}
	close(release)
}

func TestCancelQueuedAndRunning(t *testing.T) {
	type fin struct {
		err       error
		cancelled bool
	}
	fins := make(map[string]fin)
	var mu sync.Mutex
	var done sync.WaitGroup
	release := make(chan struct{})
	s := New(Config{SimWorkers: 1, QueueCap: 8, OnFinish: func(id string, err error, c bool) {
		mu.Lock()
		fins[id] = fin{err, c}
		mu.Unlock()
		done.Done()
	}})
	done.Add(2)
	if err := s.Submit(blockingJob("running", ClassSim, release)); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(blockingJob("queued", ClassSim, release)); err != nil {
		t.Fatal(err)
	}
	if !s.Cancel("queued") {
		t.Fatal("Cancel(queued) = false")
	}
	if !s.Cancel("running") {
		t.Fatal("Cancel(running) = false")
	}
	if s.Cancel("nope") {
		t.Fatal("Cancel of unknown id = true")
	}
	done.Wait()
	mu.Lock()
	defer mu.Unlock()
	for _, id := range []string{"queued", "running"} {
		f := fins[id]
		if !f.cancelled || !errors.Is(f.err, context.Canceled) {
			t.Fatalf("%s finished with %+v, want cancelled+context.Canceled", id, f)
		}
	}
}

func TestDeadlineCutsJob(t *testing.T) {
	var finErr error
	var cancelled bool
	var done sync.WaitGroup
	done.Add(1)
	s := New(Config{SimWorkers: 1, Deadline: 10 * time.Millisecond,
		OnFinish: func(_ string, err error, c bool) { finErr, cancelled = err, c; done.Done() }})
	if err := s.Submit(blockingJob("slow", ClassSim, nil)); err != nil {
		t.Fatal(err)
	}
	done.Wait()
	if !errors.Is(finErr, context.DeadlineExceeded) || cancelled {
		t.Fatalf("deadline finish = (%v, cancelled=%v), want DeadlineExceeded, not cancelled", finErr, cancelled)
	}
}

func TestDrain(t *testing.T) {
	var mu sync.Mutex
	fins := make(map[string]bool) // id -> cancelled
	release := make(chan struct{})
	s := New(Config{SimWorkers: 1, QueueCap: 8, OnFinish: func(id string, _ error, c bool) {
		mu.Lock()
		fins[id] = c
		mu.Unlock()
	}})
	if err := s.Submit(blockingJob("running", ClassSim, release)); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(blockingJob("queued", ClassSim, release)); err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(20 * time.Millisecond)
		close(release) // let the running job finish naturally
	}()
	s.Drain(context.Background())
	if err := s.Submit(blockingJob("late", ClassSim, nil)); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain submission error = %v, want ErrDraining", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if c, ok := fins["queued"]; !ok || !c {
		t.Fatalf("queued job not cancelled on drain: %v %v", c, ok)
	}
	if c, ok := fins["running"]; !ok || c {
		t.Fatalf("running job not drained naturally: cancelled=%v finished=%v", c, ok)
	}
	if st := s.Stats(); st.Running != 0 || st.Queued != 0 {
		t.Fatalf("post-drain stats = %+v", st)
	}
}

// Drain returns only after a finished job's OnFinish has: the daemon's
// OnFinish writes the job's final state to the ledger, and a drained
// daemon must not leave a job recorded as running. The hook blocks until
// released, so a Drain that waits only for the running set to empty
// returns while it is still inside.
func TestDrainWaitsForOnFinish(t *testing.T) {
	inHook, unblock := make(chan struct{}), make(chan struct{})
	var hookDone atomic.Bool
	s := New(Config{SimWorkers: 1, OnFinish: func(string, error, bool) {
		close(inHook)
		<-unblock
		hookDone.Store(true)
	}})
	if err := s.Submit(Job{ID: "quick", Class: ClassSim, Run: func(context.Context) error { return nil }}); err != nil {
		t.Fatal(err)
	}
	<-inHook // the job has left the running set; its OnFinish is blocked
	drained := make(chan struct{})
	go func() {
		s.Drain(context.Background())
		close(drained)
	}()
	select {
	case <-drained:
		t.Fatal("Drain returned while the finished job's OnFinish was still running")
	case <-time.After(200 * time.Millisecond):
	}
	close(unblock)
	<-drained
	if !hookDone.Load() {
		t.Fatal("Drain returned before OnFinish did")
	}
}

func TestDrainDeadlineCutsStragglers(t *testing.T) {
	var done sync.WaitGroup
	done.Add(1)
	var finErr error
	s := New(Config{SimWorkers: 1,
		OnFinish: func(_ string, err error, _ bool) { finErr = err; done.Done() }})
	if err := s.Submit(blockingJob("stuck", ClassSim, nil)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	s.Drain(ctx)
	done.Wait()
	if !errors.Is(finErr, context.Canceled) {
		t.Fatalf("straggler finished with %v, want context.Canceled", finErr)
	}
}

// TestFIFOPerClass: each class starts in submission order, and a running
// rt job holds back only rt jobs.
func TestFIFOPerClass(t *testing.T) {
	started := make(chan string, 8)
	var done sync.WaitGroup
	s := New(Config{SimWorkers: 1, QueueCap: 8,
		OnStart:  func(id string) { started <- id },
		OnFinish: func(string, error, bool) { done.Done() }})
	release := make(map[string]chan struct{})
	submit := func(id, class string) {
		release[id] = make(chan struct{})
		done.Add(1)
		if err := s.Submit(blockingJob(id, class, release[id])); err != nil {
			t.Fatal(err)
		}
	}
	expect := func(want string) {
		t.Helper()
		select {
		case got := <-started:
			if got != want {
				t.Fatalf("%s started, want %s next", got, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for %s to start", want)
		}
	}

	submit("rt0", ClassRT)
	expect("rt0")
	submit("rt1", ClassRT)
	submit("rt2", ClassRT)
	submit("sim0", ClassSim)
	submit("sim1", ClassSim)
	expect("sim0") // beside the running rt0
	if st := s.Stats(); st.Running != 2 || st.Queued != 3 {
		t.Fatalf("stats with rt0 and sim0 running = %+v, want 2 running, 3 queued", st)
	}
	close(release["rt0"])
	expect("rt1")
	close(release["rt1"])
	expect("rt2")
	close(release["sim0"])
	expect("sim1")
	close(release["rt2"])
	close(release["sim1"])
	done.Wait()
}
