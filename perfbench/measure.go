package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// setupRepeats is how many times colocate and cluster-churn repeat
// their set-up; setup_s is the median. A set-up takes a few
// milliseconds, so any one of them can catch a GC cycle.
const setupRepeats = 15

// tailBeyond is how many samples must lie beyond a reported tail
// percentile.
const tailBeyond = 10

// median returns the middle value of xs (mean of the middle two for
// even lengths), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailFraction is the highest quantile of n samples that leaves at
// least tailBeyond of them above it: (n-10)/n, or 1 (the maximum) when
// there are too few samples.
func tailFraction(n int) float64 {
	if n <= tailBeyond {
		return 1
	}
	return float64(n-tailBeyond) / float64(n)
}

// quantile returns the q-quantile of xs by the nearest-rank rule: the
// smallest sample with at least q·n samples at or below it.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// mean returns the arithmetic mean of xs, or 0 for none.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// ratio divides, returning 0 for an empty base.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// sum adds xs.
func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// timed runs fn and returns its host duration in seconds.
func timed(fn func()) float64 {
	start := time.Now()
	fn()
	return time.Since(start).Seconds()
}

// another reports whether a run that started at start and has done
// done units of work should do one more: whether a unit of the mean
// duration so far still fits in budget seconds.
func another(start time.Time, budget float64, done int) bool {
	if done == 0 {
		return true
	}
	el := time.Since(start).Seconds()
	return el+el/float64(done) <= budget
}

// setupMedian runs build setupRepeats times and returns the median
// duration; the last build's product is kept by the caller's closure.
func setupMedian(build func() error) (float64, error) {
	var ds []float64
	for i := 0; i < setupRepeats; i++ {
		var err error
		ds = append(ds, timed(func() { err = build() }))
		if err != nil {
			return 0, err
		}
	}
	return median(ds), nil
}

// peakRSSMB returns the process's peak resident set size in MB
// (ru_maxrss, which Linux reports in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// allocMeter reads the Go heap counters around a call; it is used in
// the traced run only, since ReadMemStats stops the world.
type allocMeter struct{ before runtime.MemStats }

func (a *allocMeter) start() { runtime.ReadMemStats(&a.before) }

// stop returns the allocations and bytes allocated since start.
func (a *allocMeter) stop() (mallocs, bytes uint64) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return after.Mallocs - a.before.Mallocs, after.TotalAlloc - a.before.TotalAlloc
}

// digest accumulates a canonical text rendering of a run's decisions.
// Two runs made the same decisions exactly when their digests match.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) line(format string, args ...any) {
	fmt.Fprintf(d.h, format, args...)
	d.h.Write([]byte{'\n'})
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil))[:16] }

// span is one timed call into a layer, recorded by the benchmark
// around the public entry point it calls (never inside the program).
type span struct {
	name       string
	start, end time.Time
	parent     int // index of the enclosing span, -1 for none
}

// spans keeps a traced pass's spans in memory.
type spans struct{ list []span }

// begin opens a span and returns its index.
func (s *spans) begin(name string, parent int) int {
	s.list = append(s.list, span{name: name, start: time.Now(), parent: parent})
	return len(s.list) - 1
}

func (s *spans) end(i int) { s.list[i].end = time.Now() }

// total sums the durations of the spans with the given name.
func (s *spans) total(name string) float64 {
	var t float64
	for _, sp := range s.list {
		if sp.name == name {
			t += sp.end.Sub(sp.start).Seconds()
		}
	}
	return t
}

// count is the number of spans with the given name.
func (s *spans) count(name string) int {
	n := 0
	for _, sp := range s.list {
		if sp.name == name {
			n++
		}
	}
	return n
}

// selfTime sums, over the spans with the given name, each span's
// duration minus the time its direct children cover.
func (s *spans) selfTime(name string) float64 {
	var t float64
	for _, sp := range s.list {
		d := sp.end.Sub(sp.start).Seconds()
		if sp.name == name {
			t += d
		}
		if sp.parent >= 0 && s.list[sp.parent].name == name {
			t -= d
		}
	}
	return t
}
