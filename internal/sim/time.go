// Package sim implements a deterministic discrete-event simulation kernel.
//
// Simulated processes are ordinary goroutines that cooperate with the engine:
// exactly one goroutine (either the engine loop or a single process) runs at
// any instant, so simulations are sequential and fully deterministic. Events
// scheduled for the same simulated time fire in scheduling order.
//
// The package also provides the synchronization primitives the rest of the
// simulator is built from: condition variables, mailboxes, FIFO resources,
// and fluid-flow (processor-sharing) resources used to model memory-bus
// bandwidth and per-core CPU time.
package sim

import "fmt"

// Time is a simulated timestamp or duration in picoseconds.
//
// Picosecond resolution keeps rounding error negligible when modelling
// per-cache-block costs (a 64-byte line at 10 GiB/s is ~6 ns) while still
// allowing simulations spanning thousands of seconds within int64 range.
type Time int64

// Common duration units.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds returns t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Nanoseconds returns t as a floating-point number of nanoseconds.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// Microseconds returns t as a floating-point number of microseconds.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// FromSeconds converts a floating-point number of seconds to a Time.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }

// String formats the time with an adaptive unit, e.g. "1.234ms".
func (t Time) String() string {
	switch {
	case t < 0:
		return "-" + (-t).String()
	case t < Nanosecond:
		return fmt.Sprintf("%dps", int64(t))
	case t < Microsecond:
		return fmt.Sprintf("%.3fns", t.Nanoseconds())
	case t < Millisecond:
		return fmt.Sprintf("%.3fus", t.Microseconds())
	case t < Second:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.3fs", t.Seconds())
	}
}
