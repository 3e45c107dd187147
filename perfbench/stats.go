package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (the "inclusive" method); 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// beyond counts the samples strictly above the q-quantile: the tail
// evidence a percentile rests on.
func beyond(xs []float64, q float64) int {
	v := quantile(xs, q)
	n := 0
	for _, x := range xs {
		if x > v {
			n++
		}
	}
	return n
}

func secs(d time.Duration) float64 { return d.Seconds() }

// selfMaxRSSMB is the peak resident set of this process in MiB.
func selfMaxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// setupClock collects the mean times of set-up batches over a run. A
// run times a few batches before its window and one more between parts
// of the window, so setup_s, like the other metrics, spans the whole run
// and not one instant of a host whose speed drifts.
type setupClock struct{ batches []float64 }

// setupBatch runs setup setupBatchSize times after a collection, so no
// batch pays for earlier garbage, and records the mean time on c. Every
// instance but the last is released, off the clock, before the next set-up
// starts; the last is returned.
func setupBatch[T any](c *setupClock, setup func() (T, error), release func(T)) (T, error) {
	var zero, last T
	runtime.GC()
	var sum time.Duration
	for i := 0; i < setupBatchSize; i++ {
		if i > 0 {
			release(last)
		}
		t0 := time.Now()
		v, err := setup()
		sum += time.Since(t0)
		if err != nil {
			return zero, err
		}
		last = v
	}
	c.batches = append(c.batches, secs(sum)/setupBatchSize)
	return last, nil
}

// leadSetup runs the batches before the window and returns the instance
// the run uses.
func leadSetup[T any](c *setupClock, setup func() (T, error), release func(T)) (T, error) {
	var v T
	var err error
	for b := 0; b < setupLead; b++ {
		if b > 0 {
			release(v)
		}
		if v, err = setupBatch(c, setup, release); err != nil {
			return v, err
		}
	}
	return v, nil
}

func (c *setupClock) seconds() float64 { return median(c.batches) }
