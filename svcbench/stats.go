package main

import (
	"fmt"
	"math"
	"sort"
)

// metric is one reported number with its unit and the samples behind it.
// A percentile the sample cannot support is flagged instead of printed.
type metric struct {
	name    string
	value   float64
	unit    string
	samples int
	flag    string // non-empty: why the value is not reported
}

func (m metric) String() string {
	if m.flag != "" {
		return fmt.Sprintf("%-32s %-14s %-6s n=%d (%s)", m.name, "-", m.unit, m.samples, m.flag)
	}
	return fmt.Sprintf("%-32s %-14.6g %-6s n=%d", m.name, m.value, m.unit, m.samples)
}

// minBeyond is how many samples a percentile needs above it to be reported.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs as a metric. It is
// flagged unless at least minBeyond samples lie beyond it, so p50 needs 20
// samples, p90 100 and p99 1000.
func percentile(name string, xs []float64, q float64, unit string) metric {
	m := metric{name: name, unit: unit, samples: len(xs)}
	need := int(math.Ceil(minBeyond/(1-q) - 1e-9))
	if len(xs) < need {
		m.flag = fmt.Sprintf("insufficient samples: p%g needs %d", q*100, need)
		return m
	}
	m.value = quantile(xs, q)
	return m
}

// quantile is the nearest-rank q-quantile of xs, 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
