package perturb

import (
	"runtime"
	"sync"
	"time"
)

// refCrossBW is the documented reference bandwidth (bytes/second) the rt
// link perturbations scale against: the rt engine has no modeled network,
// so "degrade the link to factor f" becomes the extra wall-clock transfer
// time a 1 GiB/s link would lose at that factor.
const refCrossBW = float64(1 << 30)

// injectPeriod is the duty-cycle window of the rt slow-core and sat-bus
// injectors: long enough that the burn loop's bookkeeping is noise, short
// enough that the interference is smooth at benchmark timescales.
const injectPeriod = 200 * time.Microsecond

// RTPlan is the wall-clock form of a perturbation set: injector goroutines
// to run for the duration of the job, plus delay hooks the rt engine calls
// on its receive-posting and cross-node send paths.
type RTPlan struct {
	ranks int

	recvDelay  func(rank int, op uint64) time.Duration
	crossDelay func(bytes int) time.Duration
	injectors  []func(stop <-chan struct{})
}

// NewRTPlan validates specs and builds the injection plan for a job of the
// given rank count.
func NewRTPlan(specs []Spec, seed uint64, ranks int) (*RTPlan, error) {
	pl := &RTPlan{ranks: ranks}
	insts, err := Instances(specs, seed)
	if err != nil {
		return nil, err
	}
	for _, in := range insts {
		if in.kind.RT == nil {
			continue
		}
		if err := in.kind.RT(pl, in); err != nil {
			return nil, err
		}
	}
	return pl, nil
}

// RecvDelayHook returns the composed receive-posting delay (nil when no
// instance delays receivers).
func (pl *RTPlan) RecvDelayHook() func(rank int, op uint64) time.Duration { return pl.recvDelay }

// CrossDelayHook returns the composed cross-node send delay (nil when no
// link perturbation is active).
func (pl *RTPlan) CrossDelayHook() func(bytes int) time.Duration { return pl.crossDelay }

// Start launches the plan's injector goroutines and returns the function
// that stops them and waits for them to exit. Injectors Gosched every burn
// pass, so they perturb rather than starve the ranks on GOMAXPROCS=1.
func (pl *RTPlan) Start() (stop func()) {
	stopc := make(chan struct{})
	var wg sync.WaitGroup
	for _, inj := range pl.injectors {
		wg.Add(1)
		go func(f func(<-chan struct{})) {
			defer wg.Done()
			f(stopc)
		}(inj)
	}
	return func() {
		close(stopc)
		wg.Wait()
	}
}

// addRecvDelay chains fn onto the receive-posting delay.
func (pl *RTPlan) addRecvDelay(fn func(rank int, op uint64) time.Duration) {
	prev := pl.recvDelay
	if prev == nil {
		pl.recvDelay = fn
		return
	}
	pl.recvDelay = func(rank int, op uint64) time.Duration {
		return prev(rank, op) + fn(rank, op)
	}
}

// addCrossDelay chains fn onto the cross-node send delay.
func (pl *RTPlan) addCrossDelay(fn func(bytes int) time.Duration) {
	prev := pl.crossDelay
	if prev == nil {
		pl.crossDelay = fn
		return
	}
	pl.crossDelay = func(bytes int) time.Duration {
		return prev(bytes) + fn(bytes)
	}
}

// stopped polls the injector stop channel without blocking.
func stopped(stop <-chan struct{}) bool {
	select {
	case <-stop:
		return true
	default:
		return false
	}
}

// burn occupies the CPU for roughly d, yielding every pass so co-scheduled
// ranks keep making progress.
func burn(d time.Duration, stop <-chan struct{}) {
	end := time.Now().Add(d)
	for time.Now().Before(end) && !stopped(stop) {
		runtime.Gosched()
	}
}

// churn moves n bytes through memory (two 64 KiB windows copied back and
// forth), generating real memory-bandwidth pressure.
func churn(buf []byte, n int64) {
	half := len(buf) / 2
	for moved := int64(0); moved < n; moved += int64(half) {
		copy(buf[half:], buf[:half])
	}
}
