package main

import (
	"math"
	"sort"
	"time"
)

// numSlices is how many equal time slices a measured phase is cut into.
// Throughput is the median over slices, so a few seconds of interference
// from other processes on the host moves it less than a whole-phase mean.
const numSlices = 10

// opStats collects the latencies of one operation class.
type opStats struct {
	lat    []float64 // ms, in arrival order
	slices []timeSlice
}

// timeSlice is the work of one class in one time slice of a phase.
type timeSlice struct {
	n   int
	sec float64
}

func (o *opStats) add(slice int, d time.Duration) {
	o.lat = append(o.lat, float64(d)/1e6)
	for len(o.slices) <= slice {
		o.slices = append(o.slices, timeSlice{})
	}
	o.slices[slice].n++
	o.slices[slice].sec += d.Seconds()
}

// merge appends another phase's samples and slices.
func (o *opStats) merge(x *opStats) {
	o.lat = append(o.lat, x.lat...)
	o.slices = append(o.slices, x.slices...)
}

// qps is the single-client throughput of the class: per slice, operations
// completed divided by the time spent in them, then the median over slices.
func (o *opStats) qps() float64 { return median(o.sliceRates()) }

func (o *opStats) sliceRates() []float64 {
	var rates []float64
	for _, s := range o.slices {
		if s.n > 0 && s.sec > 0 {
			rates = append(rates, float64(s.n)/s.sec)
		}
	}
	return rates
}

// tailGroup is the fewest samples a tail percentile is taken over, so that
// a p99 has at least ten samples beyond it.
const tailGroup = 1000

// pct returns the p-quantile latency in ms. The samples are cut into
// consecutive groups of at least tailGroup (at most numSlices groups) and
// the result is the median of the groups' quantiles, so one stall, such
// as a collection landing in one stretch of the run, moves it less.
func (o *opStats) pct(p float64) float64 {
	groups := len(o.lat) / tailGroup
	if groups > numSlices {
		groups = numSlices
	}
	if groups <= 1 {
		return percentile(o.lat, p)
	}
	qs := make([]float64, groups)
	for g := range qs {
		qs[g] = percentile(o.lat[g*len(o.lat)/groups:(g+1)*len(o.lat)/groups], p)
	}
	return median(qs)
}

func (o *opStats) count() int { return len(o.lat) }

// percentile returns the nearest-rank p-quantile of xs (not modified).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// median returns the median of xs, averaging the middle pair.
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

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
