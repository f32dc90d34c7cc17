package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// A probe is 30-100 ms of fixed, stdlib-only work that never calls repo
// code. It runs between rounds and tracks how fast the host is right now;
// a round's timings are divided by the slowdown its nearest probes saw.
//
// A probe is put together from kernels so that it slows down when its
// workload does: one kernel for the resource the workload is bound by (a
// bouncing cache line, memmove, loopback HTTP + fsync) and one for what
// every Go program on a shared host also pays (CPU speed: a sort; the
// scheduler handing control between goroutines: a channel ping-pong).
// README.md records how the pairs were chosen.
type probe struct {
	name string
	// nominal is the probe's time on the nominal host, in seconds. It only
	// fixes the unit of normalised metrics ("µs on the nominal host"); a
	// different constant rescales every run of every commit alike.
	nominal float64
	// stateBelow, if set, makes the probe a state detector instead of a
	// speedometer: only a reading under stateBelow x nominal is believed
	// (and divided out); any other reading counts as nominal.
	stateBelow float64
	work       func()
	close      func()
}

// Nominal probe times: medians on the 2-vCPU host recorded in README.md.
const (
	simProbeNominal     = 0.056
	rtSmallProbeNominal = 0.027
	rtLargeProbeNominal = 0.048
	knemdWarmNominal    = 0.080
	knemdColdNominal    = 0.072
)

func (p *probe) measure() float64 {
	t := time.Now()
	p.work()
	return time.Since(t).Seconds()
}

// slowdown turns a probe time into the host slowdown it stands for.
func (p *probe) slowdown(secs float64) float64 {
	s := secs / p.nominal
	if p.stateBelow > 0 && s >= p.stateBelow {
		return 1
	}
	return s
}

// flipThreshold is the relative difference between the probes before a
// round and those after it above which the round straddled a host-state flip
// and is dropped.
const flipThreshold = 0.25

func straddlesFlip(before, after float64) bool {
	lo, hi := before, after
	if lo > hi {
		lo, hi = hi, lo
	}
	return hi-lo > flipThreshold*lo
}

// sortKernel sorts a fixed shuffle of 100 k ints, sorts times.
func sortKernel(sorts int) func() {
	rng := rand.New(rand.NewSource(1))
	fixed := make([]int, 100_000)
	for i := range fixed {
		fixed[i] = rng.Int()
	}
	scratch := make([]int, len(fixed))
	return func() {
		for i := 0; i < sorts; i++ {
			copy(scratch, fixed)
			sort.Ints(scratch)
		}
	}
}

// handoffKernel passes control between two goroutines over unbuffered
// channels, handoffs times there and back.
func handoffKernel(handoffs int) func() {
	return func() {
		ping, pong := make(chan struct{}), make(chan struct{})
		go func() {
			for range ping {
				pong <- struct{}{}
			}
			close(pong)
		}()
		for i := 0; i < handoffs; i++ {
			ping <- struct{}{}
			<-pong
		}
		close(ping)
		<-pong
	}
}

// bounceKernel bounces one cache line between two spinning goroutines.
func bounceKernel(bounces int32) func() {
	return func() {
		var line atomic.Int32
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int32(0); i < bounces; i++ {
				for line.Load() != 2*i+1 {
				}
				line.Store(2*i + 2)
			}
		}()
		for i := int32(0); i < bounces; i++ {
			line.Store(2*i + 1)
			for line.Load() != 2*i+2 {
			}
		}
		wg.Wait()
	}
}

// copyKernel is single-threaded copy() between two buffers of size bytes.
func copyKernel(size, copies int) func() {
	a, b := make([]byte, size), make([]byte, size)
	return func() {
		for i := 0; i < copies; i++ {
			copy(b, a)
			a, b = b, a
		}
	}
}

func sequence(kernels ...func()) func() {
	return func() {
		for _, k := range kernels {
			k()
		}
	}
}

// newSimProbe is sim-figs' probe: the simulator is single-threaded Go code
// (pointer and slice work, like a sort) whose procs are goroutines handing
// control to each other, run at the workload's GOMAXPROCS.
func newSimProbe() *probe {
	return &probe{name: "sort+handoff", nominal: simProbeNominal,
		work: sequence(sortKernel(3), handoffKernel(60_000))}
}

// newRTSmallProbe is rt-small's probe: one cache line bouncing between the
// two vCPUs, which flip between a far state (27 ms for these bounces) and a
// near one (11 ms) that move the 64 B round trip by the same factor of 2.4.
// It only detects the near state. Within the far state the bounce time is
// far less steady than the round trip (it read 40 ms for whole runs whose
// round trips were unchanged; r = 0.1 round by round, README.md), so a
// reading that is not clearly "near" is not divided out.
func newRTSmallProbe() *probe {
	return &probe{name: "cache-line-bounce", nominal: rtSmallProbeNominal, stateBelow: 0.6,
		work: bounceKernel(200_000)}
}

// newRTLargeProbe is rt-large's probe: copy() between buffers of the
// workload's own size, and a sort for plain CPU speed.
func newRTLargeProbe() *probe {
	return &probe{name: "memmove+sort", nominal: rtLargeProbeNominal,
		work: sequence(copyKernel(rtLargeBytes, 72), sortKernel(3))}
}

// newKnemdProbe is the knemd workloads' probe. Outside the engine a job
// costs the host loopback HTTP, small appends with fsync in the store's
// directory and hashing, so the probe does those, reps times, against a no-op
// handler and a scratch file beside the store, and then runs cpu (if any).
// fsync time on the host moves by +-15 % within a fraction of a second, hence
// the long probe.
func newKnemdProbe(dir string, reps int, cpu func()) (*probe, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("probe listener: %w", err)
	}
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
	})}
	go srv.Serve(ln)
	f, err := os.OpenFile(filepath.Join(dir, "probe.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("probe file: %w", err)
	}
	client := &http.Client{Transport: &http.Transport{}}
	url := "http://" + ln.Addr().String() + "/"
	line := bytes.Repeat([]byte("p"), 199)
	line = append(line, '\n')
	kib := make([]byte, 1024)
	return &probe{name: "http+fsync+sha256", nominal: knemdWarmNominal,
		work: func() {
			for i := 0; i < reps; i++ {
				resp, err := client.Post(url, "application/json", bytes.NewReader(line))
				if err != nil {
					panic(fmt.Sprintf("bench: knemd probe POST: %v", err))
				}
				resp.Body.Close()
				for j := 0; j < 3; j++ {
					if _, err := f.Write(line); err != nil {
						panic(fmt.Sprintf("bench: knemd probe append: %v", err))
					}
					if err := f.Sync(); err != nil {
						panic(fmt.Sprintf("bench: knemd probe fsync: %v", err))
					}
				}
				sha256.Sum256(kib)
			}
			if cpu != nil {
				cpu()
			}
		},
		close: func() {
			client.CloseIdleConnections()
			srv.Close()
			f.Close()
		}}, nil
}

// newKnemdWarmProbe: a cached job is HTTP, hashing and two fsync'd appends,
// and its time moves one for one with the I/O kernel's.
func newKnemdWarmProbe(dir string) (*probe, error) { return newKnemdProbe(dir, 160, nil) }

// newKnemdColdProbe: about a third of a cold job is the engine and the
// daemon's goroutines handing off (its round time moves as the 0.7th power
// of the I/O kernel's), so hand-offs make up a third of its probe.
func newKnemdColdProbe(dir string) (*probe, error) {
	p, err := newKnemdProbe(dir, 112, handoffKernel(50_000))
	if err == nil {
		p.name, p.nominal = p.name+"+handoff", knemdColdNominal
	}
	return p, err
}
