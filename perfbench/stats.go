package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"syscall"
	"time"
)

// median returns the middle value (the mean of the two middle values for an
// even count); NaN for an empty sample.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile by linear interpolation between order
// statistics; NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// durMedian is median over durations, in the given unit.
func durMedian(ds []time.Duration, unit time.Duration) float64 {
	return durQuantile(ds, 0.5, unit)
}

// durQuantile is quantile over durations, in the given unit.
func durQuantile(ds []time.Duration, q float64, unit time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(unit)
	}
	return quantile(xs, q)
}

// logRounds reports the spread of the timed rounds on stderr.
func logRounds(workload string, walls []time.Duration) {
	xs := make([]float64, len(walls))
	for i, w := range walls {
		xs[i] = w.Seconds()
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d rounds, wall min %.4f q1 %.4f median %.4f q3 %.4f max %.4f s\n",
		workload, len(xs), quantile(xs, 0), quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.75), quantile(xs, 1))
}

// selfCPU is this process's user+system CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// childCPU is an exited child's user+system CPU time.
func childCPU(ps *os.ProcessState) time.Duration {
	if ps == nil {
		return 0
	}
	return ps.UserTime() + ps.SystemTime()
}
