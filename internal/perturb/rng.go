package perturb

import (
	"math"
	"time"
)

// Counter-based randomness: every draw is a pure function of (seed, stream,
// counter), with no shared generator state. That is what makes perturbed
// simulations byte-identical across runs and worker-pool widths —
// two concurrent stacks never contend for an RNG, and the draw order inside
// one stack is fixed by the deterministic event order.

// mix is the splitmix64 output permutation: a strong 64-bit finalizer.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// draw returns the ctr-th 64-bit value of the (seed, stream) RNG stream.
func draw(seed, stream, ctr uint64) uint64 {
	return mix(seed ^ mix(stream*0xd6e8feb86659fd93) ^ mix(ctr*0xa0761d6478bd642f))
}

// u01 returns the ctr-th uniform in (0, 1): 53 random mantissa bits, with
// zero nudged up so -log(1-u) exponential sampling never degenerates.
func u01(seed, stream, ctr uint64) float64 {
	u := float64(draw(seed, stream, ctr)>>11) * (1.0 / (1 << 53))
	if u <= 0 {
		return 1.0 / (1 << 53)
	}
	return u
}

// expSample maps a uniform to an exponential with the given mean.
func expSample(u, mean float64) float64 {
	return -mean * math.Log(1-u)
}

// sampleDist draws one value from a named distribution around mean:
// "exp" is exponential, "fixed" the constant mean, "uniform" on [0, 2*mean].
func sampleDist(dist string, mean float64, u float64) float64 {
	switch dist {
	case "fixed":
		return mean
	case "uniform":
		return 2 * mean * u
	default: // "exp"
		return expSample(u, mean)
	}
}

// Arrivals walks a (possibly MMPP-modulated) arrival process. In plain
// Poisson form gaps are exponential at rate; in MMPP form a two-state
// Markov chain (calm at rate, burst at burstRate, state changes at flip)
// modulates the intensity, which pushes the arrival count's squared
// coefficient of variation above unity — genuinely bursty load rather than
// a rescaled trickle. Gaps are a pure function of (seed, stream) and the
// internal draw counter, so two generators built alike emit identical
// schedules. The noisy-rank perturbation kind draws its interruptions from
// one.
type Arrivals struct {
	seed, stream uint64
	ctr          uint64

	mmpp            bool
	rate, burstRate float64 // arrivals per second
	flip            float64 // state changes per second

	state     int     // 0 calm, 1 burst
	stateLeft float64 // seconds left in the current state
}

// newArrivalGen builds an arrival generator on the instance's (seed,
// stream) RNG stream. With mmpp false the process is plain Poisson at rate
// and burstRate/flip are ignored; with mmpp true the two-state chain
// alternates between rate and burstRate, changing state at rate flip (all
// per second, > 0).
func newArrivalGen(in Inst, rate, burstRate, flip float64, mmpp bool) *Arrivals {
	g := &Arrivals{
		seed: in.Seed, stream: in.Stream,
		mmpp: mmpp, rate: rate, burstRate: burstRate, flip: flip,
	}
	if g.mmpp {
		g.stateLeft = g.exp(1 / g.flip)
	}
	return g
}

func (g *Arrivals) exp(mean float64) float64 {
	u := u01(g.seed, g.stream, g.ctr)
	g.ctr++
	return expSample(u, mean)
}

// Next returns the seconds until the next arrival, advancing the modulating
// chain through however many state episodes the gap spans.
func (g *Arrivals) Next() float64 {
	if !g.mmpp {
		return g.exp(1 / g.rate)
	}
	total := 0.0
	for {
		r := g.rate
		if g.state == 1 {
			r = g.burstRate
		}
		gap := g.exp(1 / r)
		if gap <= g.stateLeft {
			g.stateLeft -= gap
			return total + gap
		}
		// The state flips before the candidate arrival: discard it
		// (memorylessness makes the re-draw exact) and walk into the next
		// episode.
		total += g.stateLeft
		g.state = 1 - g.state
		g.stateLeft = g.exp(1 / g.flip)
	}
}

// InjEvent is one entry of a wall-clock injection schedule: at offset At
// from job start, occupy the CPU for Dur and move Bytes through memory.
type InjEvent struct {
	At    time.Duration
	Dur   time.Duration
	Bytes int64
}

// Schedule materializes the first n injection events of a noisy-rank style
// instance: arrival gaps from the instance's (possibly MMPP) process, each
// carrying the configured CPU burst and memory traffic. The schedule is a
// pure function of the instance, which the rt determinism test pins.
func Schedule(in Inst, n int) []InjEvent {
	g := newArrivalGen(in, in.F("rate"), in.F("rate")*in.F("burstx"), in.F("flip"), in.F("mmpp") != 0)
	burst := time.Duration(in.F("cpu") * float64(time.Second))
	bytes := int64(in.F("bytes"))
	out := make([]InjEvent, n)
	at := 0.0
	for i := range out {
		at += g.Next()
		out[i] = InjEvent{At: time.Duration(at * float64(time.Second)), Dur: burst, Bytes: bytes}
	}
	return out
}
