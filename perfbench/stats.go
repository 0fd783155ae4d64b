package main

import (
	"bufio"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by the nearest-rank
// method; xs is sorted in place. Empty input yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(q*float64(len(xs))+0.5) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

// median returns the middle value of xs (the mean of the two middle
// values for even lengths); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// subWindow is the length of the slices a measured window is cut into;
// end-to-end figures are medians over the slices, so one burst of
// interference moves a figure by at most one slice's worth.
const subWindow = 2 * time.Second

// perSlice applies f to the values of each subWindow slice of a window
// that had at least one sample, in time order.
func perSlice(xs []sample, window time.Duration, f func(vals []float64, secs float64) float64) []float64 {
	n := max(int(window/subWindow), 1)
	secs := window.Seconds() / float64(n)
	slices := make([][]float64, n)
	for _, x := range xs {
		i := min(max(int(x.at/secs), 0), n-1)
		slices[i] = append(slices[i], x.v)
	}
	var out []float64
	for _, vals := range slices {
		if len(vals) > 0 {
			out = append(out, f(vals, secs))
		}
	}
	return out
}

// sliceQuantile is the median over slices of each slice's q-quantile.
func sliceQuantile(xs []sample, window time.Duration, q float64) float64 {
	return median(perSlice(xs, window, func(vals []float64, _ float64) float64 { return quantile(vals, q) }))
}

// sliceRate is the median over slices of each slice's operations per
// second.
func sliceRate(xs []sample, window time.Duration) float64 {
	return median(perSlice(xs, window, func(vals []float64, secs float64) float64 { return float64(len(vals)) / secs }))
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// procSnap is a process-wide resource reading: CPU time, heap bytes
// allocated and GC cycles so far.
type procSnap struct {
	cpu    time.Duration
	allocB uint64
	gcs    uint64
}

func readProc() procSnap {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return procSnap{
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocB: s[0].Value.Uint64(),
		gcs:    s[1].Value.Uint64(),
	}
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// fnv64 hashes a response body (FNV-1a); bodies are compared by hash
// during the run and against references afterwards.
func fnv64(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}
