package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (the "inclusive" method). xs is not modified.
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

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// p90Note describes the p90 of n samples, saying when fewer than ten
// samples lie above it.
func p90Note(n int) string {
	if n-1-int(math.Floor(0.9*float64(n-1))) < 10 {
		return fmt.Sprintf("p90 of %d (fewer than ten samples above it)", n)
	}
	return fmt.Sprintf("p90 of %d", n)
}

// tailQuantile is the highest of p99, p95 and p90 that has at least ten
// samples above it. With fewer than 92 samples no such percentile
// exists and the slowest sample is reported instead; the returned label
// says which one was taken.
func tailQuantile(xs []float64) (float64, string) {
	for _, c := range []struct {
		q     float64
		label string
	}{{0.99, "p99"}, {0.95, "p95"}, {0.90, "p90"}} {
		// quantile interpolates at rank q*(n-1); count the samples
		// ranked above it.
		if len(xs) > 0 && len(xs)-1-int(math.Floor(c.q*float64(len(xs)-1))) >= 10 {
			return quantile(xs, c.q), c.label
		}
	}
	return quantile(xs, 1), "max"
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func secs(d time.Duration) float64 { return d.Seconds() }

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// overheadPct is (with - base) / base in percent.
func overheadPct(with, base float64) float64 {
	if base <= 0 {
		return math.NaN()
	}
	return (with - base) / base * 100
}

// frac is a/b, 0 when b is 0.
func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB reads the process's peak resident set (VmHWM) from
// /proc/self/status. It returns 0 where that file does not exist.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}
