package main

import (
	"encoding/binary"
	"math"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
)

// epoch anchors every timestamp the benchmark takes; all guardians share
// the process clock, so differences across them are valid.
var epoch = time.Now()

// nanos is the wall-clock time since the process epoch, in nanoseconds.
func nanos() int64 { return int64(time.Since(epoch)) }

func be64(b []byte) uint64 { return binary.BigEndian.Uint64(b) }

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set, in MB (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

// mallocCount is the process-wide count of heap objects allocated so far,
// tiny ones the runtime packs into shared blocks included (what
// runtime.MemStats calls Mallocs, read without stopping the world).
func mallocCount() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/tiny/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64() + s[1].Value.Uint64()
}

// quantile reads the q-quantile of an ascending sample (nearest rank).
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i])
}

// ascending returns a sorted copy of vals.
func ascending(vals []float64) []float64 {
	s := slices.Clone(vals)
	slices.Sort(s)
	return s
}

func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := ascending(vals)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// bestDecile is the value the best tenth of the slices reached or beat:
// the 90th percentile of a metric that is better higher, the 10th of one
// that is better lower. It is what the benchmark reports for a per-slice
// metric, in place of the median, because the noise it runs under is
// one-sided: a neighbour on the host or a descheduled vCPU only ever makes
// a slice slower. Over ten runs of 60 slices the best decile of ops_per_s
// spread 4-10% where the median spread 6-16% (README.md has the table).
func bestDecile(vals []float64, better string) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := ascending(vals)
	k := (len(s) + 9) / 10 // rank from the best end, 1-based
	if better == "higher" {
		return s[len(s)-k]
	}
	return s[k-1]
}

// iqrShare is the distance between the first and third quartile as a
// share of the median, with the quartiles Python's statistics.quantiles
// (n=4, exclusive method) gives; 0 for fewer than two values.
func iqrShare(vals []float64) float64 {
	n := len(vals)
	med := median(vals)
	if n < 2 || med == 0 {
		return 0
	}
	s := ascending(vals)
	at := func(p float64) float64 {
		pos := p * float64(n+1)
		j := int(pos)
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return (at(0.75) - at(0.25)) / math.Abs(med)
}

func mean(sum, n float64) float64 {
	if n == 0 {
		return 0
	}
	return sum / n
}
