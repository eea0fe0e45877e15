// Package sim provides the deterministic discrete-event simulation engine
// that underlies the simulated ARMv8 node: a simulated clock, an event
// queue with re-armable deadline registers, a seeded pseudo-random number
// generator, and a lightweight trace facility.
//
// All simulated components (cores, timers, interrupt controllers, kernels)
// are driven by a single Engine. Determinism is a design requirement: two
// runs with the same seed produce bit-identical event orders, which is what
// makes the paper's figures reproducible from `go test`.
package sim

import (
	"fmt"
	"math"
)

// Time is a point in simulated time, measured in picoseconds since boot.
//
// Picosecond resolution lets cycle costs at GHz clock rates be represented
// exactly as integers (1 cycle at 1.152 GHz = 868.055... ps is rounded once
// at conversion, not accumulated), while int64 still covers ~106 days of
// simulated time.
type Time int64

// Duration is a span of simulated time in picoseconds.
type Duration int64

// Common duration units.
const (
	Picosecond  Duration = 1
	Nanosecond           = 1000 * Picosecond
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// FromNanos converts a nanosecond count to a Duration.
func FromNanos(ns float64) Duration { return Duration(ns * float64(Nanosecond)) }

// FromMicros converts a microsecond count to a Duration.
func FromMicros(us float64) Duration { return Duration(us * float64(Microsecond)) }

// PositiveMicros converts a microsecond count to a Duration as
// FromMicros does, and reports whether the result is a positive
// duration: a count below one picosecond truncates to zero, and one past
// the largest Duration (or NaN) converts to no meaningful value.
func PositiveMicros(us float64) (Duration, bool) {
	ps := us * float64(Microsecond)
	if !(ps >= 1 && ps < math.MaxInt64) {
		return 0, false
	}
	return Duration(ps), true
}

// FromSeconds converts a second count to a Duration.
func FromSeconds(s float64) Duration { return Duration(s * float64(Second)) }

// Nanos reports the duration in nanoseconds.
func (d Duration) Nanos() float64 { return float64(d) / float64(Nanosecond) }

// Micros reports the duration in microseconds.
func (d Duration) Micros() float64 { return float64(d) / float64(Microsecond) }

// Seconds reports the duration in seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// String formats the duration with an adaptive unit.
func (d Duration) String() string {
	switch {
	case d < Nanosecond:
		return fmt.Sprintf("%dps", int64(d))
	case d < Microsecond:
		return fmt.Sprintf("%.3fns", d.Nanos())
	case d < Millisecond:
		return fmt.Sprintf("%.3fus", d.Micros())
	case d < Second:
		return fmt.Sprintf("%.3fms", float64(d)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.3fs", d.Seconds())
	}
}

// Add advances a Time by a Duration.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub reports the Duration between two Times.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds reports the time since boot in seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros reports the time since boot in microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// String formats the time as seconds since boot.
func (t Time) String() string { return fmt.Sprintf("t=%.9fs", t.Seconds()) }

// Hertz describes an event rate; Period converts it to a Duration.
type Hertz float64

// Period returns the duration of one cycle at rate h. It panics for
// non-positive rates, which are always configuration errors.
func (h Hertz) Period() Duration {
	if h <= 0 {
		panic(fmt.Sprintf("sim: non-positive rate %v Hz", float64(h)))
	}
	return Duration(float64(Second) / float64(h))
}

// Cycles converts a cycle count at a given core frequency to a Duration.
func Cycles(n float64, freq Hertz) Duration {
	if freq <= 0 {
		panic(fmt.Sprintf("sim: non-positive frequency %v Hz", float64(freq)))
	}
	return Duration(n * float64(Second) / float64(freq))
}
