package main

// stats.go holds the benchmark's arithmetic: quantiles over recorded
// latencies, Go runtime deltas over a measured phase, and the
// span-based per-layer accounting.

import (
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"time"

	"qoschain/internal/metrics"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty sample). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// latencies collects per-op latencies in milliseconds.
type latencies map[string][]float64

func (l latencies) add(op string, d time.Duration) { l[op] = append(l[op], ms(d)) }

func (l latencies) merge(o latencies) {
	for op, xs := range o {
		l[op] = append(l[op], xs...)
	}
}

func (l latencies) count() int {
	n := 0
	for _, xs := range l {
		n += len(xs)
	}
	return n
}

// runtimeUse is the Go runtime's work: objects and bytes allocated,
// GC CPU and total CPU seconds. readRuntime returns the totals so far;
// the difference of two readings is the work between them.
type runtimeUse struct {
	mallocs, bytes  uint64
	gcCPU, totalCPU float64
}

func readRuntime() runtimeUse {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []rtmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	rtmetrics.Read(s)
	u := runtimeUse{mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
	if s[0].Value.Kind() == rtmetrics.KindFloat64 {
		u.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == rtmetrics.KindFloat64 {
		u.totalCPU = s[1].Value.Float64()
	}
	return u
}

func (u runtimeUse) add(b runtimeUse) runtimeUse {
	return runtimeUse{u.mallocs + b.mallocs, u.bytes + b.bytes, u.gcCPU + b.gcCPU, u.totalCPU + b.totalCPU}
}

func (u runtimeUse) sub(b runtimeUse) runtimeUse {
	return runtimeUse{u.mallocs - b.mallocs, u.bytes - b.bytes, u.gcCPU - b.gcCPU, u.totalCPU - b.totalCPU}
}

// goMetrics reports the runtime's work per op.
func goMetrics(r *report, u runtimeUse, ops int) {
	if u.totalCPU > 0 {
		r.metrics["go.gc_cpu_frac"] = u.gcCPU / u.totalCPU
	}
	if ops > 0 {
		r.metrics["go.allocs_per_op"] = float64(u.mallocs) / float64(ops)
		r.metrics["go.bytes_per_op"] = float64(u.bytes) / float64(ops)
	}
}

// heapMB forces collections and returns the live heap. The second
// collection empties what sync.Pool victim caches kept alive through
// the first.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// layerTimes aggregates recorded spans: per span name the durations
// (µs); the summed durations of the layer spans, which are the command
// roots' children; and per root name the roots' count and their layer
// spans' summed durations.
type layerTimes struct {
	byName  map[string][]float64
	layerUS float64
	rootN   int
	byOp    map[string]float64
	opN     map[string]int
}

func aggregateSpans(spans []span) layerTimes {
	lt := layerTimes{byName: map[string][]float64{}, byOp: map[string]float64{}, opN: map[string]int{}}
	for _, s := range spans {
		d := us(s.end.Sub(s.start))
		lt.byName[s.name] = append(lt.byName[s.name], d)
		if s.parent == "" {
			lt.rootN++
			lt.opN[s.name]++
			continue
		}
		lt.layerUS += d
		lt.byOp[s.parent] += d
	}
	return lt
}

// histTotal is a histogram's running count and sum.
type histTotal struct {
	count int64
	sum   float64
}

// histTotals reads one unlabeled histogram's count and sum.
func histTotals(reg *metrics.Registry, name string) histTotal {
	for _, h := range reg.Snapshot().Hists {
		if h.Name == name && h.Labels == "" {
			return histTotal{count: h.Count, sum: h.Sum}
		}
	}
	return histTotal{}
}

// meanSince is the mean of the observations made after b was read.
func (t histTotal) meanSince(b histTotal) float64 {
	if t.count <= b.count {
		return 0
	}
	return (t.sum - b.sum) / float64(t.count-b.count)
}
