package main

// frames.go is the frames workload: a fleet of concurrent chains,
// selected by core.Select from seeded scenarios, streams frames through
// one shared pipeline.Executor on GOMAXPROCS workers. It is the only
// workload that runs the data plane.

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"time"

	"qoschain/internal/pipeline"
)

const (
	framesInFlight = 32  // concurrent chains (closed loop, one per client)
	framesPerChain = 512 // source frames per chain run
	framesRefRuns  = 4   // set-up runs of each scenario, which must agree
)

type framesEnv struct {
	scenarios []*frameScenario
	ex        *pipeline.Executor
	// want is each scenario's Stats from its set-up run: a chain run
	// with the same loss seed must reproduce them exactly.
	want []pipeline.Stats
}

// lossSeed fixes a scenario's per-link loss draws for the whole run.
func lossSeed(seed int64, i int) int64 { return seed*1000 + int64(i) + 1 }

func buildFrames(o options) (*framesEnv, error) {
	scs, err := genScenarios(o.seed)
	if err != nil {
		return nil, err
	}
	env := &framesEnv{scenarios: scs, ex: pipeline.NewExecutor(0)}
	for i := range scs {
		for rep := 0; rep < framesRefRuns; rep++ {
			run, err := env.runChain(o.seed, i)
			if err != nil {
				env.ex.Close()
				return nil, err
			}
			if rep == 0 {
				env.want = append(env.want, run.stats)
				continue
			}
			if !reflect.DeepEqual(run.stats, env.want[i]) {
				env.ex.Close()
				return nil, fmt.Errorf("scenario %d: repeated runs with one loss seed disagree", i)
			}
		}
	}
	return env, nil
}

// chainRun is one measured chain: which scenario, its result, and the
// times it entered FromResult, Submit and Wait and returned from Wait.
type chainRun struct {
	scenario int
	stats    pipeline.Stats
	t        [4]time.Time
}

func (c *chainRun) total() time.Duration { return c.t[3].Sub(c.t[0]) }

// record adds the chain's spans — one root and one per layer call,
// sharing the chain's ID — to rec.
func (c *chainRun) record(rec *recorder, id string) {
	rec.add(id, "pipeline.build", "chain", c.t[0], c.t[1])
	rec.add(id, "pipeline.submit", "chain", c.t[1], c.t[2])
	rec.add(id, "pipeline.wait", "chain", c.t[2], c.t[3])
	rec.add(id, "chain", "", c.t[0], c.t[3])
}

// runChain builds, submits and waits for one chain.
func (e *framesEnv) runChain(seed int64, i int) (chainRun, error) {
	sc := e.scenarios[i]
	run := chainRun{scenario: i}
	run.t[0] = time.Now()
	p, err := pipeline.FromResult(sc.Graph, sc.Result, pipeline.Options{LossSeed: lossSeed(seed, i)})
	run.t[1] = time.Now()
	if err != nil {
		return run, err
	}
	h, err := e.ex.Submit(p, framesPerChain)
	run.t[2] = time.Now()
	if err != nil {
		return run, err
	}
	run.stats = h.Wait()
	run.t[3] = time.Now()
	return run, nil
}

// checkStats verifies one chain run: frames delivered, per-stage
// accounting consistent, and exactly the scenario's reference Stats.
func (e *framesEnv) checkStats(run chainRun) error {
	st := run.stats
	if st.Failure != nil {
		return fmt.Errorf("scenario %d: stage failure %v", run.scenario, st.Failure)
	}
	if st.FramesIn != framesPerChain || st.FramesOut <= 0 || st.FramesOut > st.FramesIn {
		return fmt.Errorf("scenario %d: frames in %d out %d", run.scenario, st.FramesIn, st.FramesOut)
	}
	for j, s := range st.Stages {
		if s.Emitted+s.Dropped > s.Consumed {
			return fmt.Errorf("scenario %d stage %s: emitted %d + dropped %d > consumed %d", run.scenario, s.ID, s.Emitted, s.Dropped, s.Consumed)
		}
		if j > 0 && s.Consumed != st.Stages[j-1].Emitted {
			return fmt.Errorf("scenario %d stage %s consumed %d, upstream emitted %d", run.scenario, s.ID, s.Consumed, st.Stages[j-1].Emitted)
		}
	}
	if !reflect.DeepEqual(st, e.want[run.scenario]) {
		return fmt.Errorf("scenario %d: stats differ from its reference run", run.scenario)
	}
	return nil
}

// framesPhase is one measured phase of the frames workload: the chain
// runs, with each run's time recorded under the "chain" op.
type framesPhase struct {
	*phaseResult
	chains   []chainRun
	framesIn int
	out      int
}

func (e *framesEnv) phase(seed int64, dur time.Duration, traced bool) *framesPhase {
	parts := make([]*framesPhase, framesInFlight)
	recs := make([]recorder, framesInFlight)
	for i := range parts {
		parts[i] = &framesPhase{phaseResult: newPhaseResult(viaLayers)}
		recs[i].on = traced
	}
	before := readRuntime()
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < framesInFlight; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*7 + int64(c) + 1))
			part := parts[c]
			for time.Now().Before(deadline) {
				run, err := e.runChain(seed, rng.Intn(len(e.scenarios)))
				if err == nil {
					err = e.checkStats(run)
				}
				if err != nil {
					part.fail(err)
					continue
				}
				if traced {
					run.record(&recs[c], fmt.Sprintf("chain-%d-%d", c, len(part.chains)))
				}
				part.chains = append(part.chains, run)
				part.lat.add("chain", run.total())
				part.framesIn += run.stats.FramesIn
				part.out += run.stats.FramesOut
			}
		}(c)
	}
	wg.Wait()
	out := &framesPhase{phaseResult: newPhaseResult(viaLayers)}
	used := readRuntime().sub(before)
	for i, p := range parts {
		p.spans = recs[i].spans
		p.attempts = len(p.chains) + p.failed
		out.merge(p)
	}
	out.elapsed = time.Since(start)
	out.runtime = used
	return out
}

// merge folds another phase into p.
func (p *framesPhase) merge(o *framesPhase) {
	p.phaseResult.merge(o.phaseResult)
	p.chains = append(p.chains, o.chains...)
	p.framesIn += o.framesIn
	p.out += o.out
}

func (p *framesPhase) count(r *report) {
	r.attempted += p.attempts
	r.failed += p.failed
	r.check(p.failed == 0, "frames: %d chain runs failed: %v", p.failed, p.errs)
	r.check(len(p.chains) > 0 && p.out > 0, "frames: no frames delivered")
}

func runFrames(o options, r *report) error {
	env, setup, err := setupRepeated(setupReps, func(int) (*framesEnv, error) { return buildFrames(o) },
		func(e *framesEnv) { e.ex.Close() })
	if err != nil {
		return err
	}
	defer env.ex.Close()
	r.metrics["setup_s"] = setup
	r.note("frames: %d scenarios (chain lengths 3/5/8 x loss 0/0.02/0.05), %d chains in flight, %d frames per chain, %d executor workers",
		len(env.scenarios), framesInFlight, framesPerChain, env.ex.Workers())
	// The traced run interleaves untraced and traced slices, like the
	// session workloads' traced runs.
	var a, c *framesPhase
	if !o.traced {
		a = env.phase(o.seed, o.dur(), false)
	} else {
		slice := o.dur() / (2 * tracedRounds)
		for round := 0; round < tracedRounds; round++ {
			pa, pc := env.phase(o.seed, slice, false), env.phase(o.seed, slice, true)
			if round == 0 {
				a, c = pa, pc
				continue
			}
			a.merge(pa)
			c.merge(pc)
		}
	}
	a.count(r)
	reportUnit(r, a.phaseResult, "chain", 0.9)
	r.metrics["ops_per_s"] = float64(a.framesIn) / a.elapsed.Seconds()
	r.note("frames in %d, delivered %d", a.framesIn, a.out)
	if o.traced {
		framesLayerMetrics(r, a, c)
	}
	a, c = nil, nil // release the samples: heap_mb is the program's
	r.metrics["heap_mb"] = heapMB()
	return nil
}

// framesLayerMetrics fills the frames workload's per-layer metrics from
// its untraced (a) and traced (c) slices.
func framesLayerMetrics(r *report, a, c *framesPhase) {
	// The data plane has no handler: its layer calls are the unit of
	// work, so the traced slices record them as spans and are compared
	// with the untraced slices.
	c.count(r)
	xs := a.lat["chain"]
	r.spans = c.spans
	lt := aggregateSpans(c.spans)
	r.metrics["pipeline.build_us"] = median(lt.byName["pipeline.build"])
	r.metrics["pipeline.submit_us"] = median(lt.byName["pipeline.submit"])
	r.metrics["pipeline.wait_ms"] = median(lt.byName["pipeline.wait"]) / 1000
	if a.framesIn > 0 {
		r.metrics["pipeline.allocs_per_frame"] = float64(a.runtime.mallocs) / float64(a.framesIn)
		r.metrics["pipeline.delivered_frac"] = float64(a.out) / float64(a.framesIn)
		r.metrics["pipeline.frames_per_s"] = float64(a.framesIn) / a.elapsed.Seconds()
	}
	goMetrics(r, a.runtime, a.attempts)
	if lt.rootN > 0 && len(xs) > 0 {
		// Unexplained against the untraced slices' chain time, for the
		// traced slices' chain count.
		r.metrics["trace.unexplained_frac"] = 1 - lt.layerUS/(mean(xs)*1000*float64(lt.rootN))
		r.metrics["trace.overhead_frac"] = mean(c.lat["chain"])/mean(xs) - 1
	}
}
