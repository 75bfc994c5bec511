package main

// sessions.go holds the closed-loop session workloads — create-mem and
// storm-fanout — and the per-layer accounting every session workload
// shares.

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"time"

	"qoschain/internal/core"
	"qoschain/internal/graph"
	"qoschain/internal/metrics"
	"qoschain/internal/profile"
)

// setupReps is how many times each run sets its workload up; setup_s
// is the median.
const setupReps = 5

// --- create-mem -----------------------------------------------------

const (
	memRegions = 4
	memClasses = 256 // per region; creates draw them Zipf-skewed
	memTarget  = 256 // live sessions per client
	memWarmup  = 200 // commands per client after the prefill
	memKbps    = 2.4e6
)

// memClient is one closed-loop client: its command stream and the IDs
// of the sessions it created and has not deleted.
type memClient struct {
	stream *memStream
	live   []string
}

type memEnv struct {
	st      *stack
	pool    []poolEntry
	clients []*memClient
}

// step runs the client's next command.
func (c *memClient) step(ex executor, pool []poolEntry, out *phaseResult) {
	mc := c.stream.next()
	x := cmd{op: mc.Op}
	victim := -1
	if mc.Op == "create" {
		e := &pool[mc.Pool]
		x.body, x.query = e.Body, e.query()
	} else {
		if len(c.live) == 0 {
			out.fail(fmt.Errorf("%s: client has no live session", mc.Op))
			return
		}
		victim = int(mc.Pick % uint32(len(c.live)))
		x.id = c.live[victim]
	}
	id, ok := timed(ex, &x, out)
	switch {
	case !ok:
	case mc.Op == "create":
		c.live = append(c.live, id)
	case mc.Op == "delete":
		c.live[victim] = c.live[len(c.live)-1]
		c.live = c.live[:len(c.live)-1]
	}
}

func buildCreateMem(o options) (*memEnv, error) {
	pool, err := genPool(o.seed, twoProxies, memRegions, memClasses, memKbps)
	if err != nil {
		return nil, err
	}
	st, err := newStack("")
	if err != nil {
		return nil, err
	}
	env := &memEnv{st: st, pool: pool}
	ex := handlerExec{h: st.handler}
	scratch := &phaseResult{lat: latencies{}}
	for i := 0; i < clientCount(); i++ {
		c := &memClient{stream: newMemStream(o.seed, i, len(pool), memTarget)}
		for c.stream.live < memTarget {
			c.step(ex, pool, scratch)
		}
		for j := 0; j < memWarmup; j++ {
			c.step(ex, pool, scratch)
		}
		env.clients = append(env.clients, c)
	}
	if scratch.failed > 0 {
		return nil, fmt.Errorf("prefill: %d commands failed: %v", scratch.failed, scratch.errs)
	}
	return env, nil
}

// clientCount is the closed-loop client count: one per core.
func clientCount() int { return runtime.NumCPU() }

func runCreateMem(o options, r *report) error {
	env, setup, err := setupRepeated(setupReps, func(int) (*memEnv, error) { return buildCreateMem(o) }, func(*memEnv) {})
	if err != nil {
		return err
	}
	r.metrics["setup_s"] = setup
	r.note("create-mem: closed loop, %d clients, %d live sessions per client, pool %d sets over %d regions",
		len(env.clients), memTarget, len(env.pool), memRegions)
	client := func(i int, ex executor, deadline time.Time, out *phaseResult) {
		c := env.clients[i]
		for time.Now().Before(deadline) {
			c.step(ex, env.pool, out)
		}
	}
	classesBefore := env.st.m.StormController().Classes()
	phases := runPaths(o, func(p path, d time.Duration) *phaseResult {
		return runPhase(env.st, p, len(env.clients), d, client)
	})
	a := phases[0]
	reportUnit(r, a, "create", 0.9)
	r.metrics["ops_per_s"] = float64(a.attempts) / a.elapsed.Seconds()
	if !o.traced {
		r.count(a)
		opSummary(r, "handler", a.lat)
	} else {
		sessionLayerMetrics(r, env.st, phases)
		opened := env.st.m.StormController().Classes() - classesBefore
		n := totalCreates(phases)
		r.note("classes opened during the run: %d of %d creates", opened, n)
		if n > 0 {
			r.metrics["storm.class_hit_frac"] = 1 - float64(opened)/float64(n)
			r.metrics["core.selects_per_create"] = float64(opened) / float64(n)
		}
		r.metrics["core.select_us"] = selectProbe(env.pool)
	}
	phases, a = nil, nil // release the samples: heap_mb is the program's
	r.metrics["heap_mb"] = heapMB()
	var live []string
	for _, c := range env.clients {
		live = append(live, c.live...)
	}
	teardown(r, env.st, live)
	return nil
}

func totalCreates(phases []*phaseResult) int {
	n := 0
	for _, p := range phases {
		n += len(p.lat["create"])
	}
	return n
}

// reportUnit reports the workload's unit of work — the commands of op,
// or every command when op is "" — by its median, and as tail_ms its
// q-quantile. Each workload fixes q where its latency distribution is
// steady between runs of the same code: a percentile on the edge
// between two modes (fast commands and commands queued behind a
// snapshot or a collection) moves by more than any useful bound.
func reportUnit(r *report, p *phaseResult, op string, q float64) {
	xs := p.lat[op]
	if op == "" {
		op = "any command"
		for _, ys := range p.lat {
			xs = append(xs, ys...)
		}
	}
	r.metrics["p50_ms"] = quantile(xs, 0.5)
	r.metrics["tail_ms"] = quantile(xs, q)
	r.note("unit of work: %s, n=%d, p50=%.4fms p90=%.4fms p95=%.4fms p99=%.4fms; tail_ms is p%g",
		op, len(xs), quantile(xs, 0.5), quantile(xs, 0.9), quantile(xs, 0.95), quantile(xs, 0.99), 100*q)
}

// sessionLayerMetrics fills the per-layer metrics every session workload
// shares from the three traced-run phases: handler (a), layer calls
// untraced (b) and traced (c).
func sessionLayerMetrics(r *report, st *stack, phases []*phaseResult) {
	a, b, c := phases[0], phases[1], phases[2]
	for _, p := range phases {
		r.count(p)
		opSummary(r, p.path.String(), p.lat)
	}
	r.metrics["cmd.create_p50_ms"] = quantile(a.lat["create"], 0.5)
	r.metrics["cmd.create_p99_ms"] = quantile(a.lat["create"], 0.99)
	r.metrics["cmd.delete_p50_ms"] = quantile(a.lat["delete"], 0.5)
	r.metrics["cmd.read_p50_ms"] = quantile(a.lat["get"], 0.5)
	r.metrics["cmd.fault_p50_ms"] = quantile(a.lat["fault"], 0.5)
	r.metrics["cmd.fault_p99_ms"] = quantile(a.lat["fault"], 0.99)
	r.metrics["cmd.reevaluate_p50_ms"] = quantile(a.lat["reevaluate"], 0.5)
	if a.attempts > 0 {
		r.metrics["cmd.fail_frac"] = float64(a.failed) / float64(a.attempts)
	}
	goMetrics(r, a.runtime, a.attempts)

	r.spans = c.spans
	lt := aggregateSpans(c.spans)
	for span, metric := range map[string]string{
		"profile.decode":     "profile.decode_us",
		"httpapi.encode":     "httpapi.encode_us",
		"session.create":     "session.create_us",
		"session.get":        "session.get_us",
		"session.delete":     "session.delete_us",
		"session.fault":      "session.fault_us",
		"session.reevaluate": "session.reevaluate_us",
	} {
		r.metrics[metric] = median(lt.byName[span])
	}
	for _, s := range st.layerTracer.SpanStats() {
		if s.Name == "journal.append" {
			r.metrics["journal.append_us"] = s.MeanMs * 1000
		}
	}
	// Unexplained: the part of the handler's end-to-end time, for the
	// traced phase's command mix, that no layer span accounts for.
	var layerUS, e2eUS float64
	for root, n := range lt.opN {
		op := strings.TrimPrefix(root, "cmd.")
		layerUS += lt.byOp[root]
		e2eUS += float64(n) * mean(a.lat[op]) * 1000
	}
	if e2eUS > 0 {
		r.metrics["trace.unexplained_frac"] = 1 - layerUS/e2eUS
	}
	r.metrics["trace.overhead_frac"] = overhead(b.lat, c.lat)
	r.note("traced run: %d spans over %d commands; unexplained %.4f, span overhead %.4f",
		len(c.spans), lt.rootN, r.metrics["trace.unexplained_frac"], r.metrics["trace.overhead_frac"])
}

// overhead compares the traced phase's command times with the untraced
// phase's, weighting each op by the traced phase's mix.
func overhead(untraced, traced latencies) float64 {
	var t, u float64
	for op, xs := range traced {
		if len(untraced[op]) == 0 {
			continue
		}
		t += float64(len(xs)) * mean(xs)
		u += float64(len(xs)) * mean(untraced[op])
	}
	if u == 0 {
		return 0
	}
	return t/u - 1
}

// selectProbe times core.Select on the graph of each of the first
// classes of the pool — the one Select the controller runs when a
// create opens a class — and returns the median in microseconds.
func selectProbe(pool []poolEntry) float64 {
	var times []float64
	for i := 0; i < len(pool) && i < 64; i++ {
		set, err := profile.DecodeSet(strings.NewReader(string(pool[i].Body)))
		if err != nil {
			continue
		}
		g, err := graph.BuildFromSet(set)
		if err != nil {
			continue
		}
		prof, err := set.User.SatisfactionProfile("")
		if err != nil {
			continue
		}
		cfg := core.Config{
			Profile:           prof,
			Budget:            set.User.Budget,
			ReceiverCaps:      set.Device.RenderCaps(),
			SatisfactionFloor: pool[i].Floor,
		}
		t0 := time.Now()
		_, _ = core.Select(g, cfg) // below-floor outcomes still cost a full Select
		times = append(times, us(time.Since(t0)))
	}
	return median(times)
}

// teardown deletes every live session through the handler and checks
// that no bandwidth stays held on any region overlay.
func teardown(r *report, st *stack, live []string) {
	ex := handlerExec{h: st.handler}
	failed := 0
	for _, id := range live {
		if _, err := ex.do(&cmd{op: "delete", id: id}); err != nil {
			failed++
		}
	}
	r.check(failed == 0, "teardown: %d of %d deletes failed", failed, len(live))
	ctrl := st.m.StormController()
	r.check(ctrl.Sessions() == 0, "teardown: %d sessions still attached", ctrl.Sessions())
	for _, name := range ctrl.Regions() {
		held := ctrl.RegionNet(name).TotalReservedKbps()
		r.check(math.Abs(held) < 1e-6, "teardown: region %s still holds %.6f kbps", name, held)
	}
}

// --- storm-fanout ---------------------------------------------------

const (
	stormSessions = 10000
	stormClasses  = 20
	stormKbps     = 1e9
)

type stormEnv struct {
	st     *stack
	ids    []string
	stream *stormStream
}

// hostOf maps every generated service to its proxy host.
var hostOf = map[graph.NodeID]string{
	graph.SenderID: "sender", graph.ReceiverID: deviceHost,
	"conv1": "p1", "conv1m4": "p1", "conv2": "p2",
}

func buildStormFanout(o options) (*stormEnv, error) {
	pool, err := genPool(o.seed, oneProxy, 1, stormClasses, stormKbps)
	if err != nil {
		return nil, err
	}
	st, err := newStack("")
	if err != nil {
		return nil, err
	}
	workers := clientCount()
	ids := make([][]string, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ex := handlerExec{h: st.handler}
			for k := w; k < stormSessions; k += workers {
				e := &pool[k%len(pool)]
				id, err := ex.do(&cmd{op: "create", body: e.Body, query: e.query()})
				if err != nil {
					errs[w] = err
					return
				}
				ids[w] = append(ids[w], id)
			}
		}(w)
	}
	wg.Wait()
	env := &stormEnv{st: st, stream: newStormStream(o.seed)}
	for w := range ids {
		if errs[w] != nil {
			return nil, fmt.Errorf("populating: %w", errs[w])
		}
		env.ids = append(env.ids, ids[w]...)
	}
	if got := st.m.StormController().Classes(); got != stormClasses {
		return nil, fmt.Errorf("populating: %d classes, want %d", got, stormClasses)
	}
	return env, nil
}

// nextFault is the client's next command.
func (e *stormEnv) nextFault() cmd {
	pick, body := e.stream.next()
	return cmd{op: "fault", id: e.ids[pick%uint32(len(e.ids))], body: body}
}

// checkMembers verifies after a fault that every member holds exactly
// its class plan: the same path as the class, one reservation per hop
// at the class bitrate, and not degraded.
func checkMembers(st *stack, ids []string) error {
	ctrl := st.m.StormController()
	plans := map[string]string{}
	for _, id := range ids {
		v, ok := ctrl.MemberState(id)
		if !ok {
			return fmt.Errorf("member %s missing", id)
		}
		p := core.PathString(v.Path)
		if prev, seen := plans[v.ClassKey]; !seen {
			cls, ok := ctrl.Class(v.ClassKey)
			if !ok || cls.Chain() != p {
				return fmt.Errorf("member %s path %s is not its class plan", id, p)
			}
			plans[v.ClassKey] = p
		} else if prev != p {
			return fmt.Errorf("member %s path %s differs from its class's %s", id, p, prev)
		}
		if v.Degraded {
			return fmt.Errorf("member %s degraded", id)
		}
		var want []string
		prevHost := ""
		for _, n := range v.Path {
			h, ok := hostOf[n]
			if !ok {
				return fmt.Errorf("member %s path has unknown node %s", id, n)
			}
			if prevHost != "" && h != prevHost {
				want = append(want, prevHost+"->"+h)
			}
			prevHost = h
		}
		if len(want) != len(v.Held) {
			return fmt.Errorf("member %s holds %d links, plan crosses %d", id, len(v.Held), len(want))
		}
		for i, res := range v.Held {
			if res.From+"->"+res.To != want[i] || res.Kbps != v.Kbps {
				return fmt.Errorf("member %s hold %d is %s->%s@%g, plan %s@%g", id, i, res.From, res.To, res.Kbps, want[i], v.Kbps)
			}
		}
	}
	return nil
}

func runStormFanout(o options, r *report) error {
	env, setup, err := setupRepeated(setupReps, func(int) (*stormEnv, error) { return buildStormFanout(o) }, func(*stormEnv) {})
	if err != nil {
		return err
	}
	r.metrics["setup_s"] = setup
	r.note("storm-fanout: %d sessions over %d classes in one region; one client alternates a loss spike and its inverse on sender->p1",
		len(env.ids), stormClasses)
	ctrl := env.st.m.StormController()
	var checkErr error
	var fanout, perMember []float64 // from each fault's storm report
	// The phase's time budget is spent in faults only: the checks between
	// them run on top, so the sample count does not depend on their cost.
	client := func(_ int, ex executor, deadline time.Time, out *phaseResult) {
		budget := time.Until(deadline)
		for busy := time.Duration(0); checkErr == nil && busy < budget; {
			c := env.nextFault()
			t0 := time.Now()
			_, ok := timed(ex, &c, out)
			busy += time.Since(t0)
			if !ok {
				continue
			}
			// The storm report and the member check are not the
			// command's work: their runtime use is excluded.
			rt := readRuntime()
			if o.traced {
				if last := ctrl.Status().LastStorm; last != nil && last.AffectedSessions > 0 {
					fanout = append(fanout, last.RecoveryMs)
					perMember = append(perMember, last.RecoveryMs*1000/float64(last.AffectedSessions))
				}
			}
			checkErr = checkMembers(env.st, env.ids)
			// Collect between faults, so no fault pays for the check's
			// garbage; each fault's own allocation is reported in go.*.
			runtime.GC()
			out.excluded = out.excluded.add(readRuntime().sub(rt))
		}
	}
	before := env.st.reg.CounterMap()
	phases := runPaths(o, func(p path, d time.Duration) *phaseResult {
		return runPhase(env.st, p, 1, d, client)
	})
	after := env.st.reg.CounterMap()
	r.check(checkErr == nil, "storm-fanout: %v", checkErr)
	a := phases[0]
	reportUnit(r, a, "fault", 0.9)
	faults := a.lat["fault"]
	if busy := mean(faults) * float64(len(faults)); busy > 0 {
		// One client: throughput over the time spent in commands, not in
		// the member checks between them.
		r.metrics["ops_per_s"] = float64(len(faults)) / (busy / 1000)
	}
	if !o.traced {
		r.count(a)
		opSummary(r, "handler", a.lat)
	} else {
		sessionLayerMetrics(r, env.st, phases)
		delta := func(name string) float64 { return float64(after[name] - before[name]) }
		if events := delta(metrics.CounterStormEvents); events > 0 {
			r.metrics["storm.selects_per_storm"] = delta(metrics.CounterStormSelectCalls) / events
			r.metrics["storm.replanned_per_storm"] = delta(metrics.CounterStormSessionsReplanned) / events
		}
		r.metrics["storm.fanout_ms"] = median(fanout)
		r.metrics["storm.us_per_member"] = median(perMember)
	}
	phases, a, faults = nil, nil, nil // release the samples: heap_mb is the program's
	r.metrics["heap_mb"] = heapMB()
	teardown(r, env.st, env.ids)
	return nil
}
