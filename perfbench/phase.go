package main

// phase.go runs the measured phases of a session workload: some clients
// drive commands through an executor until the phase's time is up, and
// the phase reports latencies, failures, the runtime's work and — when
// the executor records them — the benchmark's spans.

import (
	"fmt"
	"sync"
	"time"
)

// path picks how a phase's commands reach the program.
type path int

const (
	viaHandler     path = iota // full handler stack, untraced
	viaLayers                  // public layer calls, spans off
	viaLayersTrace             // public layer calls, spans on
)

func (p path) String() string {
	return [...]string{"handler", "layers", "layers+spans"}[p]
}

// tracedRounds is how many times the traced run cycles through its
// three paths. Interleaving short phases keeps slow drift in the
// program's state (classes registered, history journaled) from
// showing up as a difference between paths.
const tracedRounds = 6

// executorFor builds one client's executor on the given path.
func executorFor(st *stack, p path) (executor, *recorder) {
	if p == viaHandler {
		return handlerExec{h: st.handler}, nil
	}
	rec := &recorder{on: p == viaLayersTrace}
	return &layerExec{m: st.m, tracer: st.layerTracer, rec: rec}, rec
}

// phaseResult is what one or more phases on one path measured.
type phaseResult struct {
	path     path
	lat      latencies
	late     []float64 // open-loop lateness (ms), durable-churn only
	failed   int
	errs     []string
	elapsed  time.Duration
	spans    []span
	attempts int
	// runtime is the Go runtime's work during the phase, less excluded:
	// the work of output checks a client runs between commands.
	runtime  runtimeUse
	excluded runtimeUse
}

func newPhaseResult(p path) *phaseResult { return &phaseResult{path: p, lat: latencies{}} }

func (r *phaseResult) fail(err error) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err.Error())
	}
}

// merge folds another phase on the same path into r.
func (r *phaseResult) merge(o *phaseResult) {
	r.lat.merge(o.lat)
	r.late = append(r.late, o.late...)
	r.failed += o.failed
	if len(r.errs) < 5 {
		r.errs = append(r.errs, o.errs...)
	}
	r.elapsed += o.elapsed
	r.spans = append(r.spans, o.spans...)
	r.attempts += o.attempts
	r.runtime = r.runtime.add(o.runtime)
	r.excluded = r.excluded.add(o.excluded)
}

// clientFunc runs one client until the deadline, recording into its own
// phaseResult; the phase merges them.
type clientFunc func(client int, ex executor, deadline time.Time, out *phaseResult)

// runPhase runs n clients concurrently on the given path for dur.
func runPhase(st *stack, p path, n int, dur time.Duration, client clientFunc) *phaseResult {
	parts := make([]*phaseResult, n)
	recs := make([]*recorder, n)
	execs := make([]executor, n)
	for i := range parts {
		parts[i] = newPhaseResult(p)
		execs[i], recs[i] = executorFor(st, p)
	}
	before := readRuntime()
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			client(i, execs[i], deadline, parts[i])
		}(i)
	}
	wg.Wait()
	out := newPhaseResult(p)
	out.elapsed = time.Since(start)
	used := readRuntime().sub(before)
	for i, part := range parts {
		if recs[i] != nil {
			part.spans = recs[i].spans
		}
		part.attempts = part.lat.count() + part.failed
		out.merge(part)
	}
	out.runtime = used.sub(out.excluded)
	out.excluded = runtimeUse{}
	return out
}

// runPaths runs a session workload's measured phases. The end-to-end
// run is one phase through the handler. The traced run interleaves
// tracedRounds rounds of handler, layer calls with spans off and layer
// calls with spans on, and returns one merged result per path in that
// order.
func runPaths(o options, run func(p path, dur time.Duration) *phaseResult) []*phaseResult {
	if !o.traced {
		return []*phaseResult{run(viaHandler, o.dur())}
	}
	paths := []path{viaHandler, viaLayers, viaLayersTrace}
	out := make([]*phaseResult, len(paths))
	slice := o.dur() / time.Duration(len(paths)*tracedRounds)
	for round := 0; round < tracedRounds; round++ {
		for i, p := range paths {
			res := run(p, slice)
			if out[i] == nil {
				out[i] = res
			} else {
				out[i].merge(res)
			}
		}
	}
	return out
}

// timed runs one command and records its latency under its op, or its
// failure.
func timed(ex executor, c *cmd, out *phaseResult) (string, bool) {
	t0 := time.Now()
	id, err := ex.do(c)
	d := time.Since(t0)
	if err != nil {
		out.fail(err)
		return "", false
	}
	out.lat.add(c.op, d)
	return id, true
}

// setupRepeated runs a workload's set-up reps times and keeps the last
// one, discarding the others through drop. It returns the median
// set-up time, so work moved into set-up shows without one slow set-up
// deciding the figure.
func setupRepeated[T any](reps int, build func(rep int) (T, error), drop func(T)) (T, float64, error) {
	var last T
	times := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		v, err := build(i)
		if err != nil {
			return last, 0, fmt.Errorf("set-up %d: %w", i, err)
		}
		times = append(times, time.Since(t0).Seconds())
		if i < reps-1 {
			drop(v)
		}
		last = v
	}
	return last, median(times), nil
}
