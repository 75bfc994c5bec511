package storm

// run.go is the storm execution engine: given the pending changed-link
// set, it computes the affected classes, scores and orders them by how
// far below their floor the event pushed them, and re-plans each class
// exactly once — Select per class, atomic hold swap per member.

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"qoschain/internal/core"
	"qoschain/internal/graph"
	"qoschain/internal/metrics"
	"qoschain/internal/overlay"
)

// Class plan outcomes.
const (
	// OutcomeUnchanged: the repaired graph still prefers the class's
	// current chain; members keep their holds untouched.
	OutcomeUnchanged = "unchanged"
	// OutcomeReplanned: a fresh at-or-above-floor chain was adopted and
	// fanned out.
	OutcomeReplanned = "replanned"
	// OutcomeDegraded: only a below-floor chain exists; it was adopted
	// (graceful degradation) and fanned out.
	OutcomeDegraded = "degraded"
	// OutcomeNoChain: nothing composes at all; members keep their old
	// holds and the class is marked degraded.
	OutcomeNoChain = "no-chain"
)

// ClassOutcome is one class's storm result.
type ClassOutcome struct {
	Key          string  `json:"key"`
	Members      int     `json:"members"`
	Gap          float64 `json:"gap"`
	Outcome      string  `json:"outcome"`
	Chain        string  `json:"chain,omitempty"`
	Satisfaction float64 `json:"satisfaction"`
	SwapFailed   int     `json:"swapFailed,omitempty"`
}

// Report summarises one storm.
type Report struct {
	Storm            int            `json:"storm"`
	ChangedLinks     int            `json:"changedLinks"`
	AffectedClasses  int            `json:"affectedClasses"`
	AffectedSessions int            `json:"affectedSessions"`
	SelectCalls      int            `json:"selectCalls"`
	SelectPerSession float64        `json:"selectPerSession"`
	Replanned        int            `json:"replanned"`
	Unchanged        int            `json:"unchangedClasses"`
	DegradedSessions int            `json:"degradedSessions"`
	SwapFailed       int            `json:"swapFailed"`
	NaiveChecks      int            `json:"naiveChecks,omitempty"`
	Mismatches       int            `json:"mismatches,omitempty"`
	RecoveryMs       float64        `json:"recoveryMs"`
	Resumed          bool           `json:"resumed,omitempty"`
	Classes          []ClassOutcome `json:"classes,omitempty"`
}

// planItem is one affected class queued for re-planning.
type planItem struct {
	cls *Class
	gap float64
}

// ErrStormActive rejects overlapping Storm calls, and any Storm while a
// replayed begin-without-end is still waiting on ResumeOpenStorm —
// starting a fresh storm there would orphan the open storm's remainder.
var ErrStormActive = errors.New("storm: a storm is already running")

// ErrHalted reports that Config.HaltAfterFanouts aborted the storm —
// the deterministic stand-in for a process death mid-fan-out.
var ErrHalted = errors.New("storm: halted mid-storm by HaltAfterFanouts")

// Storm absorbs the pending changed-link set and re-plans every
// affected class — once per class, not once per session. Affected means
// the class's chain crosses a changed link, the class was already
// degraded (a recovery chance), or it has no chain at all. Classes
// re-plan in priority order: furthest below their QoS floor first.
// Returns the report; a nil report with nil error means nothing was
// pending.
func (c *Controller) Storm() (*Report, error) {
	start := now()
	c.mu.Lock()
	if c.active || c.openStorm != nil {
		c.mu.Unlock()
		return nil, ErrStormActive
	}
	changed := make(map[string][]overlay.LinkRef)
	totalLinks := 0
	for name, r := range c.regions {
		if len(r.pending) > 0 {
			changed[name] = sortLinks(r.pending)
			totalLinks += len(r.pending)
			r.pending = make(map[overlay.LinkRef]bool)
		}
	}
	if totalLinks == 0 {
		c.mu.Unlock()
		return nil, nil
	}
	c.stormSeq++
	c.active = true
	c.fanouts = 0
	seq := c.stormSeq

	items := c.scoreLocked(c.affectedLocked(changed))
	keys := make([]string, len(items))
	for i, it := range items {
		keys[i] = it.cls.key
	}
	members := memberCount(items)
	if err := c.journalLocked(kindStormBegin, beginRecord{Storm: seq, Links: changed, Classes: keys}); err != nil {
		c.active = false
		c.mu.Unlock()
		return nil, err
	}
	c.mu.Unlock()
	c.flights.begin(seq, totalLinks, len(items), false)

	rep, err := c.execute(seq, totalLinks, members, items, false)
	if err != nil {
		return nil, err
	}
	rep.RecoveryMs = float64(now().Sub(start).Microseconds()) / 1000.0
	c.mu.Lock()
	c.lastReport = rep
	c.mu.Unlock()
	c.cfg.Counters.Observe(metrics.SampleStormRecoveryMs, rep.RecoveryMs)
	return rep, nil
}

// memberCount sums the affected classes' members — the storm report's
// AffectedSessions. Callers hold c.mu: membership changes under it.
func memberCount(items []planItem) int {
	n := 0
	for _, it := range items {
		n += len(it.cls.members)
	}
	return n
}

// execute runs the plan phase over an already-ordered item list and
// closes the storm out. Shared by Storm and crash-resume. members is
// the affected classes' member count, taken under c.mu when the storm
// was opened.
func (c *Controller) execute(seq, totalLinks, members int, items []planItem, resumed bool) (*Report, error) {
	rep := &Report{Storm: seq, ChangedLinks: totalLinks, AffectedClasses: len(items), AffectedSessions: members, Resumed: resumed}

	var (
		repMu    sync.Mutex
		firstErr error
	)
	queues := c.partition(items)
	var wg sync.WaitGroup
	for _, q := range queues {
		wg.Add(1)
		go func(q []planItem) {
			defer wg.Done()
			for _, it := range q {
				repMu.Lock()
				dead := firstErr != nil
				repMu.Unlock()
				if dead {
					return
				}
				out, err := c.planOne(seq, it)
				repMu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				if out != nil {
					rep.Classes = append(rep.Classes, *out)
					rep.SelectCalls++
					rep.SwapFailed += out.SwapFailed
					switch out.Outcome {
					case OutcomeUnchanged:
						rep.Unchanged++
					case OutcomeReplanned:
						rep.Replanned += out.Members - out.SwapFailed
					case OutcomeDegraded:
						rep.Replanned += out.Members - out.SwapFailed
					}
				}
				repMu.Unlock()
			}
		}(q)
	}
	wg.Wait()

	c.mu.Lock()
	c.active = false
	if firstErr != nil {
		c.halted = true
		c.mu.Unlock()
		return nil, firstErr
	}
	// Workers may interleave; re-impose the priority order on the
	// report so it reads deterministically.
	ordered := make([]ClassOutcome, 0, len(rep.Classes))
	for _, it := range items {
		for _, out := range rep.Classes {
			if out.Key == it.cls.key {
				ordered = append(ordered, out)
				break
			}
		}
	}
	rep.Classes = ordered
	for _, cls := range c.classes {
		for _, s := range cls.members {
			if s.degraded {
				rep.DegradedSessions++
			}
		}
	}
	if rep.AffectedSessions > 0 {
		rep.SelectPerSession = float64(rep.SelectCalls) / float64(rep.AffectedSessions)
	}
	rep.NaiveChecks, rep.Mismatches = c.naiveChecks, c.naiveMismatches
	c.naiveChecks, c.naiveMismatches = 0, 0
	err := c.journalLocked(kindStormEnd, endRecord{Storm: seq})
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}
	c.flights.end(seq, false)
	if !c.replaying {
		c.cfg.Counters.Inc(metrics.CounterStormEvents)
		c.cfg.Counters.Add(metrics.CounterStormClasses, int64(rep.AffectedClasses))
	}
	return rep, nil
}

// affectedLocked selects the classes a changed-link set touches.
func (c *Controller) affectedLocked(changed map[string][]overlay.LinkRef) []*Class {
	sets := make(map[string]map[overlay.LinkRef]bool, len(changed))
	for name, links := range changed {
		set := make(map[overlay.LinkRef]bool, len(links))
		for _, l := range links {
			set[l] = true
		}
		sets[name] = set
	}
	var out []*Class
	for _, key := range c.order {
		cls := c.classes[key]
		set, ok := sets[cls.spec.Region]
		if !ok {
			continue
		}
		if cls.degraded || c.chainCrosses(cls, set) {
			out = append(out, cls)
		}
	}
	return out
}

// chainCrosses reports whether the class chain rides any link in the
// set. Chain-less classes always count as crossing — they have nothing
// to keep.
func (c *Controller) chainCrosses(cls *Class, set map[overlay.LinkRef]bool) bool {
	if cls.current == nil || !cls.current.Found {
		return true
	}
	hosts := c.chainHosts(cls)
	for i := 1; i < len(hosts); i++ {
		if hosts[i-1] == hosts[i] {
			continue
		}
		if set[overlay.LinkRef{From: hosts[i-1], To: hosts[i]}] {
			return true
		}
	}
	return false
}

// scoreLocked repairs each affected class's graph against the post-event
// network and scores its current chain, producing the priority order:
// descending gap below the floor (a broken chain scores below
// everything), ties broken by key for determinism.
func (c *Controller) scoreLocked(affected []*Class) []planItem {
	items := make([]planItem, 0, len(affected))
	for _, cls := range affected {
		postSat := -1.0 // broken or chain-less: ranks hardest-hit
		if g, err := c.repairLocked(cls); err == nil && cls.current != nil && cls.current.Found {
			if edges, ok := pathEdges(g, cls.current); ok {
				if _, sat, _, ok := core.EvalPath(g, cls.selcfg, edges); ok {
					postSat = sat
				}
			}
		}
		items = append(items, planItem{cls: cls, gap: cls.spec.Floor - postSat})
	}
	sortItems(items)
	return items
}

func sortItems(items []planItem) {
	sort.SliceStable(items, func(i, j int) bool {
		if items[i].gap != items[j].gap {
			return items[i].gap > items[j].gap
		}
		return items[i].cls.key < items[j].cls.key
	})
}

// repairLocked incrementally repairs the class graph: only links
// dirtied since the class's last annotation generation are re-queried
// (graph.Cache.BuildRepair). Called with c.mu held.
func (c *Controller) repairLocked(cls *Class) (*graph.Graph, error) {
	r := c.regions[cls.spec.Region]
	gen := r.Net.Generation()
	var diff []overlay.LinkRef
	for l, at := range r.dirty {
		if at > cls.repairGen {
			diff = append(diff, l)
		}
	}
	g, _, err := c.cache.BuildRepairEx(cls.in, diff)
	if err != nil {
		return nil, err
	}
	cls.repairGen = gen
	return g, nil
}

// pathEdges resolves a planned chain back to the graph's edge objects
// (the same walk session.currentAchievable does). ok is false when an
// edge no longer exists.
func pathEdges(g *graph.Graph, res *core.Result) ([]*graph.Edge, bool) {
	edges := make([]*graph.Edge, 0, len(res.Formats))
	at := graph.SenderID
	for i, to := range res.Path[1:] {
		var found *graph.Edge
		for _, e := range g.Out(at) {
			if e.To == to && e.Format == res.Formats[i] {
				found = e
				break
			}
		}
		if found == nil {
			return nil, false
		}
		edges = append(edges, found)
		at = to
	}
	return edges, true
}

// partition splits the ordered items across workers with cache-entry
// affinity: classes that share a graph cache entry (same region,
// content and device — the cache fingerprint ignores user preferences
// and floor) always land on the same worker, so no two goroutines ever
// repair the same cached graph concurrently. With Workers=1 (the
// default) the single queue preserves the priority order exactly —
// that is also the deterministic mode.
func (c *Controller) partition(items []planItem) [][]planItem {
	workers := c.cfg.Workers
	if workers <= 1 || len(items) <= 1 {
		if len(items) == 0 {
			return nil
		}
		return [][]planItem{items}
	}
	queues := make([][]planItem, workers)
	slot := make(map[string]int)
	next := 0
	for _, it := range items {
		gk := it.cls.spec.Region + "|" + it.cls.spec.Content.ID + "|" + it.cls.spec.Device.ID
		w, ok := slot[gk]
		if !ok {
			w = next % workers
			slot[gk] = w
			next++
		}
		queues[w] = append(queues[w], it)
	}
	return queues
}

// planOne re-plans one class through the admission lane: repair the
// class graph against everything dirtied since its last annotation
// (including earlier classes' hold swaps in this same storm), run
// Select once, fan the result out to every member with an atomic hold
// swap, and journal the fan-out.
func (c *Controller) planOne(seq int, it planItem) (*ClassOutcome, error) {
	cls := it.cls
	planStart := now()
	if !c.replaying {
		c.cfg.Counters.Observe(metrics.SampleStormQueueDepth, float64(c.lane.Stats().QueueLen))
	}
	release, err := c.lane.Acquire(context.Background())
	if err != nil {
		return nil, fmt.Errorf("storm: admission lane: %w", err)
	}
	defer release()

	// Annotate the class graph as if the class were absent: its own
	// members' holds are what the re-plan will replace, so they must
	// not count against the availability the planner sees. The holds
	// are released only around the repair and restored exactly — the
	// graph keeps the freed-capacity snapshot, the overlay does not.
	c.mu.Lock()
	saved := c.releaseMembersLocked(cls)
	g, err := c.repairLocked(cls)
	c.restoreMembersLocked(cls, saved)
	c.mu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("storm: class %s: %w", cls.key, err)
	}

	res, selErr := core.Select(g, cls.selcfg)
	if !c.replaying {
		c.cfg.Counters.Inc(metrics.CounterStormSelectCalls)
	}
	degraded := false
	switch {
	case selErr == nil:
	case errors.Is(selErr, core.ErrBelowFloor) && res != nil && res.Found:
		degraded = true
	default:
		res = nil // nothing composes; keep the old chain
	}

	if c.cfg.Verify && res != nil {
		c.verifyClass(g, cls, res)
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.applyPlanLocked(cls, res, degraded)
	out.Gap = it.gap
	rec := classRecord{
		Storm: seq, Key: cls.key, Outcome: out.Outcome,
		Degraded: cls.degraded, Kbps: cls.kbps,
	}
	if res != nil {
		rec.Found = res.Found
		rec.Path = res.Path
		rec.Formats = res.Formats
		rec.Params = res.Params
		rec.Satisfaction = res.Satisfaction
		rec.Cost = res.Cost
	}
	if err := c.journalLocked(kindStormClass, rec); err != nil {
		return nil, err
	}
	c.flights.class(seq, cls.key, out.Outcome, out.Satisfaction, ms(now().Sub(planStart)), false)
	c.fanouts++
	if c.cfg.HaltAfterFanouts > 0 && c.fanouts >= c.cfg.HaltAfterFanouts && !c.replaying {
		// The fan-out above is journaled; dying here leaves begin + the
		// completed class records and no end — the mid-storm crash state.
		return nil, ErrHalted
	}
	return out, nil
}

// ReplanClass runs a single-class storm outside a fault event — the
// embedded mode's manual re-evaluation path. The class re-plans against
// its repaired graph and fans out exactly like a storm of one, sharing
// the journal format so a crash mid-replan resumes identically.
func (c *Controller) ReplanClass(key string) (*Report, error) {
	start := now()
	c.mu.Lock()
	if c.active || c.openStorm != nil {
		c.mu.Unlock()
		return nil, ErrStormActive
	}
	cls, ok := c.classes[key]
	if !ok {
		c.mu.Unlock()
		return nil, fmt.Errorf("storm: unknown class %s", key)
	}
	c.stormSeq++
	c.active = true
	c.fanouts = 0
	seq := c.stormSeq
	items := c.scoreLocked([]*Class{cls})
	members := memberCount(items)
	if err := c.journalLocked(kindStormBegin, beginRecord{Storm: seq, Classes: []string{key}}); err != nil {
		c.active = false
		c.mu.Unlock()
		return nil, err
	}
	c.mu.Unlock()
	c.flights.begin(seq, 0, 1, false)

	rep, err := c.execute(seq, 0, members, items, false)
	if err != nil {
		return nil, err
	}
	rep.RecoveryMs = float64(now().Sub(start).Microseconds()) / 1000.0
	c.mu.Lock()
	c.lastReport = rep
	c.mu.Unlock()
	return rep, nil
}

// releaseMembersLocked lifts every member's hold off the overlay,
// returning the holds for exact restoration. The lifted links are
// marked dirty so the repair that follows really sees them free.
func (c *Controller) releaseMembersLocked(cls *Class) [][]overlay.Reservation {
	r := c.regions[cls.spec.Region]
	saved := make([][]overlay.Reservation, len(cls.members))
	for i, s := range cls.members {
		if len(s.held) > 0 {
			r.Net.ReleaseChain(s.held)
			saved[i] = s.held
		}
	}
	c.markHoldsDirtyLocked(r, saved)
	return saved
}

// restoreMembersLocked re-reserves the holds releaseMembersLocked
// lifted, marking their links dirty again so no class sharing the
// cached graph plans against the lifted state. Restoration can only
// fail when the event took a held link down entirely; such a member
// loses its hold (it was dead bandwidth) and is marked degraded — the
// accounting stays exact either way. With every overlay change marked
// dirty, a repaired graph equals a fresh build, so plans never depend
// on what the graph cache happens to hold (a controller restored from a
// snapshot starts with a cold cache).
func (c *Controller) restoreMembersLocked(cls *Class, saved [][]overlay.Reservation) {
	r := c.regions[cls.spec.Region]
	for i, hold := range saved {
		if len(hold) == 0 {
			continue
		}
		if err := r.Net.ReserveChain(hold); err != nil {
			cls.members[i].held = nil
			cls.members[i].degraded = true
		}
	}
	c.markHoldsDirtyLocked(r, saved)
}

// markHoldsDirtyLocked stamps the links of a class's member holds with
// the region's current generation, once per run of identical holds —
// members of one class usually all hold the class chain.
func (c *Controller) markHoldsDirtyLocked(r *region, holds [][]overlay.Reservation) {
	var last []overlay.Reservation
	for _, hold := range holds {
		if len(hold) == 0 || sameLinks(hold, last) {
			continue
		}
		c.markDirtyLocked(r, hold)
		last = hold
	}
}

// sameLinks reports whether two holds cross the same links in order.
func sameLinks(a, b []overlay.Reservation) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].From != b[i].From || a[i].To != b[i].To {
			return false
		}
	}
	return true
}

// verifyClass is the naive-equivalence harness check: Select is re-run
// for every member against the same repaired graph and must return the
// class chain byte-for-byte. Counted separately from storm.select_calls
// — these are the baseline being measured against, not controller work.
func (c *Controller) verifyClass(g *graph.Graph, cls *Class, res *core.Result) {
	want := core.PathString(res.Path)
	for range cls.members {
		naive, err := core.Select(g, cls.selcfg)
		ok := err == nil || (errors.Is(err, core.ErrBelowFloor) && naive != nil && naive.Found)
		match := ok && naive != nil && core.PathString(naive.Path) == want &&
			len(naive.Formats) == len(res.Formats)
		if match {
			for i := range naive.Formats {
				if naive.Formats[i] != res.Formats[i] {
					match = false
					break
				}
			}
		}
		c.mu.Lock()
		c.naiveChecks++
		if !match {
			c.naiveMismatches++
		}
		c.mu.Unlock()
	}
}

// applyPlanLocked installs a plan result on the class and fans it out
// to the members. It is the single mutation path shared by live storms
// and journal replay, which is what keeps a replayed fan-out
// byte-identical to the live one.
func (c *Controller) applyPlanLocked(cls *Class, res *core.Result, degraded bool) *ClassOutcome {
	// SLO accounting fires on every application — live or replayed — so
	// a replica's qos.* series matches the primary's (see qos.go).
	prev := make([]bool, len(cls.members))
	for i, s := range cls.members {
		prev[i] = s.degraded
	}
	defer c.qosApplyLocked(cls, prev)
	out := &ClassOutcome{Key: cls.key, Members: len(cls.members)}
	if res == nil || !res.Found {
		// Graceful degradation floor: nothing composes, members keep
		// their old holds — streaming over a degraded chain beats
		// streaming over nothing.
		cls.degraded = true
		for _, s := range cls.members {
			s.degraded = true
		}
		if !c.replaying {
			c.cfg.Counters.Add(metrics.CounterStormDegraded, int64(len(cls.members)))
		}
		out.Outcome = OutcomeNoChain
		out.Chain = cls.Chain()
		out.Satisfaction = cls.Satisfaction()
		return out
	}

	kbps := cls.planKbps(res)
	same := cls.current != nil && cls.current.Found &&
		core.PathString(cls.current.Path) == core.PathString(res.Path) &&
		cls.kbps == kbps
	cls.current = res
	cls.kbps = kbps
	cls.degraded = degraded
	out.Chain = cls.Chain()
	out.Satisfaction = res.Satisfaction
	if same {
		// The repaired graph still prefers the chain the members
		// already hold; their reservations are already exact.
		for _, s := range cls.members {
			s.degraded = degraded
		}
		out.Outcome = OutcomeUnchanged
		if degraded && !c.replaying {
			c.cfg.Counters.Add(metrics.CounterStormDegraded, int64(len(cls.members)))
		}
		return out
	}

	r := c.regions[cls.spec.Region]
	newHolds := c.chainReservations(cls)
	for _, s := range cls.members {
		hold := append([]overlay.Reservation(nil), newHolds...)
		if err := r.Net.SwapChain(s.held, hold); err != nil {
			// Atomicity: the swap released nothing and acquired
			// nothing; the member keeps its old chain, degraded.
			s.degraded = true
			out.SwapFailed++
			continue
		}
		c.markDirtyLocked(r, s.held)
		c.markDirtyLocked(r, hold)
		s.held = hold
		s.degraded = degraded
		s.swaps++
		if !c.replaying {
			c.cfg.Counters.Inc(metrics.CounterStormSessionsReplanned)
			if degraded {
				c.cfg.Counters.Inc(metrics.CounterStormDegraded)
			}
		}
	}
	if degraded {
		out.Outcome = OutcomeDegraded
	} else {
		out.Outcome = OutcomeReplanned
	}
	return out
}
