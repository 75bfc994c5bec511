package main

// durable.go is the durable-churn workload: independent users (lanes)
// create, fault, re-evaluate and delete sessions on a durable manager
// at one fixed offered rate, open loop, and the run ends by closing and
// reopening the manager from its state directory.

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"qoschain/internal/metrics"
)

const (
	durLanes   = 8
	durRegions = 2
	durClasses = 8
	// durRate is the offered rate in commands per second across all
	// lanes: below the durable path's capacity on the recorded machine,
	// so bursts queue but the backlog does not grow.
	durRate   = 200.0
	durFaultP = 0.25 // share of lane cycles that fault, re-evaluate and un-fault
	durWarmup = 32   // commands per lane during set-up
	durKbps   = 2.4e6
	// durSnapshotEvery is adaptd's default snapshot cadence (the manager
	// uses it when ManagerConfig.SnapshotEvery is 0).
	durSnapshotEvery = 64
)

// lane is one independent user: its schedule and its current session.
type lane struct {
	stream *laneStream
	id     string
}

type durEnv struct {
	st    *stack
	dir   string
	pool  []poolEntry
	lanes []*lane
}

// command renders a lane command for the program.
func (l *lane) command(c laneCmd, pool []poolEntry) cmd {
	x := cmd{op: c.Op, id: l.id}
	switch c.Op {
	case "create":
		e := &pool[c.Pool]
		x.body, x.query = e.Body, e.query()
	case "fault":
		x.body = c.Fault
	}
	return x
}

// apply runs one lane command and tracks the lane's session.
func (l *lane) apply(ex executor, c laneCmd, pool []poolEntry) error {
	if c.Op != "create" && l.id == "" {
		return fmt.Errorf("%s: lane has no session", c.Op)
	}
	x := l.command(c, pool)
	id, err := ex.do(&x)
	switch {
	case c.Op == "create" && err == nil:
		l.id = id
	case c.Op == "delete":
		l.id = ""
	}
	return err
}

func buildDurable(o options, rep int) (*durEnv, error) {
	dir, err := filepath.Abs(filepath.Join(stateRoot, fmt.Sprintf("durable-%d-%d", os.Getpid(), rep)))
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	pool, err := genPool(o.seed, twoProxies, durRegions, durClasses, durKbps)
	if err != nil {
		return nil, err
	}
	st, err := newStack(dir)
	if err != nil {
		return nil, err
	}
	env := &durEnv{st: st, dir: dir, pool: pool}
	meanGap := float64(durLanes) / durRate
	ex := handlerExec{h: st.handler}
	for i := 0; i < durLanes; i++ {
		l := &lane{stream: newLaneStream(o.seed, i, len(pool), meanGap, durFaultP)}
		for j := 0; j < durWarmup; j++ {
			if err := l.apply(ex, l.stream.next(), pool); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		env.lanes = append(env.lanes, l)
	}
	return env, nil
}

func (e *durEnv) drop() {
	_ = e.st.m.Close() // discarded set-up; its state is removed next
	_ = os.RemoveAll(e.dir)
}

// runLanes runs every lane open loop on one path for dur: each command
// is sent when due (or as soon as the lane's previous command returns,
// if later) and timed from when it was due. The lane's schedule is
// re-based to the phase's start. Lateness is how late the generator
// itself sent a command: after the later of its due time and the
// return of the lane's previous command.
func (e *durEnv) runLanes(p path, dur time.Duration) *phaseResult {
	client := func(i int, ex executor, deadline time.Time, out *phaseResult) {
		l := e.lanes[i]
		start := time.Now()
		ready := start
		offset := -1.0
		for {
			c := l.stream.next()
			if offset < 0 {
				offset = c.DueS
			}
			due := start.Add(time.Duration((c.DueS - offset) * float64(time.Second)))
			if !due.Before(deadline) {
				// Unsent: the next phase starts the lane with this command.
				l.stream.unread(c)
				return
			}
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
			sent := time.Now()
			if due.After(ready) {
				ready = due
			}
			out.late = append(out.late, ms(sent.Sub(ready)))
			err := l.apply(ex, c, e.pool)
			ready = time.Now()
			if err != nil {
				out.fail(err)
				continue
			}
			out.lat.add(c.Op, ready.Sub(due))
		}
	}
	return runPhase(e.st, p, durLanes, dur, client)
}

func runDurableChurn(o options, r *report) error {
	if err := os.MkdirAll(stateRoot, 0o755); err != nil {
		return err
	}
	env, setup, err := setupRepeated(setupReps, func(rep int) (*durEnv, error) { return buildDurable(o, rep) }, (*durEnv).drop)
	if err != nil {
		return err
	}
	defer os.RemoveAll(env.dir)
	r.metrics["setup_s"] = setup
	r.note("durable-churn: open loop, %d lanes at %.0f commands/s offered; flush policy: one fsync per journal append (Log.Append), snapshot every %d commands; state dir %s",
		durLanes, durRate, durSnapshotEvery, env.dir)

	before, fsyncBefore := env.st.reg.CounterMap(), histTotals(env.st.reg, metrics.HistJournalFsyncMs)
	phases := runPaths(o, env.runLanes)
	after, fsyncAfter := env.st.reg.CounterMap(), histTotals(env.st.reg, metrics.HistJournalFsyncMs)
	a := phases[0]
	reportUnit(r, a, "", 0.99)
	r.metrics["ops_per_s"] = float64(a.lat.count()) / a.elapsed.Seconds()
	r.note("open-loop lateness p50=%.4fms p99=%.4fms (n=%d)", quantile(a.late, 0.5), quantile(a.late, 0.99), len(a.late))
	if !o.traced {
		r.count(a)
		opSummary(r, "handler", a.lat)
	} else {
		sessionLayerMetrics(r, env.st, phases)
		r.metrics["gen.late_p99_ms"] = quantile(a.late, 0.99)
		delta := func(name string) float64 { return float64(after[name] - before[name]) }
		if appends := delta(metrics.CounterJournalAppends); appends > 0 {
			r.metrics["journal.syncs_per_append"] = delta(metrics.CounterJournalSyncs) / appends
		}
		r.metrics["journal.snapshots"] = delta(metrics.CounterJournalSnapshots)
		r.metrics["journal.fsync_us"] = fsyncAfter.meanSince(fsyncBefore) * 1000
	}
	phases, a = nil, nil // release the samples: heap_mb is the program's
	r.metrics["heap_mb"] = heapMB()
	lifetime := env.st.reg.CounterValue(metrics.CounterJournalAppends)
	recoverS, stateMB := reopen(r, env)
	if o.traced {
		r.metrics["durable.recover_s"] = recoverS
		r.metrics["durable.state_mb"] = stateMB
		if lifetime > 0 {
			r.metrics["journal.bytes_per_cmd"] = stateMB * (1 << 20) / float64(lifetime)
		}
	}
	r.note("reopen: recover_s=%.6f state_mb=%.6f after %d journaled records", recoverS, stateMB, lifetime)
	return nil
}

// reopen closes the manager, measures its state directory, recovers a
// new manager from it and checks the recovered sessions against the
// live ones: same IDs, same per-session Fingerprint.
func reopen(r *report, env *durEnv) (recoverS, stateMB float64) {
	live := map[string]string{}
	for _, ms := range env.st.m.List() {
		fp, err := ms.Fingerprint()
		r.check(err == nil, "fingerprint %s: %v", ms.ID(), err)
		live[ms.ID()] = fp
	}
	if err := env.st.m.Close(); err != nil {
		r.check(false, "closing the durable manager: %v", err)
		return 0, 0
	}
	stateMB = float64(dirBytes(env.dir)) / (1 << 20)
	t0 := time.Now()
	m, err := newManager(env.dir, metrics.NewRegistry())
	if err != nil {
		r.check(false, "reopening the durable manager: %v", err)
		return 0, stateMB
	}
	m.Reconcile()
	recoverS = time.Since(t0).Seconds()
	defer m.Close()
	rec := m.Recovery()
	r.check(len(rec.ReplayErrors) == 0, "recovery replay errors: %v", rec.ReplayErrors)
	got := map[string]string{}
	for _, ms := range m.List() {
		fp, err := ms.Fingerprint()
		r.check(err == nil, "fingerprint %s after reopen: %v", ms.ID(), err)
		got[ms.ID()] = fp
	}
	r.check(len(got) == len(live), "reopen: %d sessions, live had %d", len(got), len(live))
	for id, fp := range live {
		r.check(got[id] == fp, "reopen: session %s fingerprint differs:\n live %s\n back %s", id, fp, got[id])
	}
	return recoverS, stateMB
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}
