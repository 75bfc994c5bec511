package storm

// journal.go makes the controller crash-safe. Every state-changing
// command — class registration, member attachment, reported network
// changes, and each class's storm fan-out — is appended to the
// hash-chained WAL (internal/journal) as a typed Event record. Open
// replays the journal against freshly constructed regions: classes are
// re-planned deterministically, attachments re-reserved, link changes
// re-applied, and completed fan-outs restored from their journaled
// results. A storm that began but never ended (crash mid-storm) is
// finished during Open: the classes already fanned out are restored
// from their records, the remainder re-planned in the recorded
// priority order against the replayed network — exactly the state the
// crashed process would have produced.
//
// Periodic snapshots (Config.SnapshotEvery) compact the journal: the
// snapshot captures the full controller state — every region's
// link-level QoS, every class's chain, every member's holds — so
// replay can start from it instead of the beginning of time.

import (
	"encoding/json"
	"fmt"
	"sort"

	"qoschain/internal/core"
	"qoschain/internal/graph"
	"qoschain/internal/journal"
	"qoschain/internal/media"
	"qoschain/internal/overlay"
)

// Journal record kinds.
const (
	kindClass      = "class"
	kindAttach     = "attach"
	kindDetach     = "detach"
	kindNetChange  = "netchange"
	kindStormBegin = "storm-begin"
	kindStormClass = "storm-class"
	kindStormEnd   = "storm-end"
)

type attachRecord struct {
	Key   string `json:"key"`
	Count int    `json:"count"`
	// ID, when set, is the caller-chosen member ID of a single
	// AttachSession; Count is 1 and the legacy mint loop is skipped.
	ID string `json:"id,omitempty"`
}

type detachRecord struct {
	ID string `json:"id"`
}

// linkChange is one link's post-change state, captured when the change
// is reported so replay can re-apply it to a fresh region.
type linkChange struct {
	From         string  `json:"from"`
	To           string  `json:"to"`
	CapacityKbps float64 `json:"capacityKbps"`
	DelayMs      float64 `json:"delayMs,omitempty"`
	LossRate     float64 `json:"lossRate,omitempty"`
	Down         bool    `json:"down,omitempty"`
	Missing      bool    `json:"missing,omitempty"`
}

type netChangeRecord struct {
	Region string       `json:"region"`
	Links  []linkChange `json:"links"`
}

// beginRecord opens a storm: the absorbed changed-link set and the
// affected classes in their decided priority order, so a crash-resume
// re-plans the remainder in exactly the order the live storm would
// have used.
type beginRecord struct {
	Storm   int                          `json:"storm"`
	Links   map[string][]overlay.LinkRef `json:"links"`
	Classes []string                     `json:"classes"`
}

// classRecord is one class's completed fan-out: the plan result to
// re-apply verbatim on replay (replay re-runs the member swaps, never
// Select).
type classRecord struct {
	Storm        int            `json:"storm"`
	Key          string         `json:"key"`
	Outcome      string         `json:"outcome"`
	Found        bool           `json:"found"`
	Path         []graph.NodeID `json:"path,omitempty"`
	Formats      []media.Format `json:"formats,omitempty"`
	Params       media.Params   `json:"params,omitempty"`
	Satisfaction float64        `json:"satisfaction"`
	Cost         float64        `json:"cost"`
	Kbps         float64        `json:"kbps"`
	Degraded     bool           `json:"degraded"`
}

type endRecord struct {
	Storm int `json:"storm"`
}

// Recovery reports what Open rebuilt from the journal.
type Recovery struct {
	// Records is how many journal records were replayed.
	Records int `json:"records"`
	// FromSnapshot reports whether replay started from a snapshot.
	FromSnapshot bool `json:"fromSnapshot,omitempty"`
	// Classes and Sessions count the rebuilt state.
	Classes  int `json:"classes"`
	Sessions int `json:"sessions"`
	// ResumedStorm is set when a crash interrupted a storm and Open
	// finished it; Resumed is that storm's report.
	ResumedStorm bool    `json:"resumedStorm,omitempty"`
	Resumed      *Report `json:"resumed,omitempty"`
}

// journalLocked appends one typed record. Nil log (in-memory
// controller) and replay are no-ops. An append failure is permanent:
// the journal can no longer be trusted to match memory.
//
// In embedded mode (Config.Sink) the controller owns no log of its own:
// storm fan-out records are handed to the host's WAL and everything
// else — classes, attachments, net changes — is derived state the host
// reconstructs by replaying its own commands, so it is not forwarded.
func (c *Controller) journalLocked(kind string, payload any) error {
	if c.replaying {
		return nil
	}
	if c.cfg.Sink != nil {
		switch kind {
		case kindStormBegin, kindStormClass, kindStormEnd:
			data, err := json.Marshal(payload)
			if err != nil {
				return err
			}
			if err := c.cfg.Sink(kind, data); err != nil {
				// The host's journal may now hold a begin without its
				// end; see halted.
				c.halted = true
				return err
			}
			return nil
		default:
			return nil
		}
	}
	if c.log == nil {
		return nil
	}
	if c.journalDead {
		return fmt.Errorf("storm: journal unusable after earlier append failure")
	}
	rec, err := journal.EncodeEvent(kind, payload)
	if err != nil {
		return err
	}
	if _, err := c.log.Append(rec); err != nil {
		c.journalDead = true
		return fmt.Errorf("storm: journal: %w", err)
	}
	c.records++
	if c.records >= c.cfg.SnapshotEvery {
		if err := c.snapshotLocked(); err != nil {
			return err
		}
		c.records = 0
	}
	return nil
}

// recover opens the journal and replays it. Called from Open with no
// lock held (the controller is not yet published).
func (c *Controller) recover() error {
	log, rec, err := journal.OpenLog(c.cfg.StateDir, journal.Options{
		FailPoints: c.cfg.FailPoints,
		Counters:   c.cfg.Counters,
	})
	if err != nil {
		return fmt.Errorf("storm: open journal: %w", err)
	}
	c.log = log

	c.mu.Lock()
	c.replaying = true
	rep := &Recovery{}
	if len(rec.SnapshotData) > 0 {
		if err := c.restoreSnapshotLocked(rec.SnapshotData); err != nil {
			c.replaying = false
			c.mu.Unlock()
			return err
		}
		rep.FromSnapshot = true
	}
	for _, r := range rec.Records {
		if err := c.replayLocked(r.Data); err != nil {
			c.replaying = false
			c.mu.Unlock()
			return fmt.Errorf("storm: replay record %d: %w", r.Seq, err)
		}
		rep.Records++
	}
	rep.Classes = len(c.classes)
	for _, cls := range c.classes {
		rep.Sessions += len(cls.members)
	}
	c.mu.Unlock()

	stormRep, err := c.ResumeOpenStorm()
	if err != nil {
		return err
	}
	if stormRep != nil {
		rep.ResumedStorm = true
		rep.Resumed = stormRep
	}
	c.rec = rep
	return nil
}

// ResumeOpenStorm finishes a storm whose begin record was replayed
// without a matching end — a crash (or failover) mid-fan-out. Classes
// with a journaled fan-out were restored verbatim during replay; the
// remainder re-plan live here, in the recorded priority order, so the
// resulting state is byte-identical to what the interrupted process
// would have produced. Exported for embedded mode: the host calls it
// after its own replay completes (the promoted follower's Reconcile).
// Returns (nil, nil) when no storm was open.
func (c *Controller) ResumeOpenStorm() (*Report, error) {
	c.mu.Lock()
	open := c.openStorm
	c.openStorm = nil
	if open == nil {
		c.replaying = false
		c.replayDone = nil
		c.mu.Unlock()
		return nil, nil
	}
	c.replaying = false
	c.active = true
	c.fanouts = 0
	done := c.replayDone
	c.replayDone = nil
	var items []planItem
	for _, key := range open.Classes {
		if done[key] {
			continue
		}
		if cls, ok := c.classes[key]; ok {
			items = append(items, planItem{cls: cls})
		}
	}
	total := 0
	for _, links := range open.Links {
		total += len(links)
	}
	members := memberCount(items)
	c.mu.Unlock()
	// The replayed begin already opened this storm's flight; mark it
	// resumed so the pre-kill and post-promotion segments read as one
	// storm ID with a failover in the middle.
	c.flights.resume(open.Storm)
	stormRep, err := c.execute(open.Storm, total, members, items, true)
	if err != nil {
		return nil, fmt.Errorf("storm: resume storm %d: %w", open.Storm, err)
	}
	c.mu.Lock()
	c.lastReport = stormRep
	c.mu.Unlock()
	return stormRep, nil
}

// replayLocked applies one journal record.
func (c *Controller) replayLocked(record []byte) error {
	kind, data, err := journal.DecodeEvent(record)
	if err != nil {
		return err
	}
	return c.replayKindLocked(kind, data)
}

// ReplayRecord applies one record by kind — the embedded-mode replay
// entry point. The host replays its WAL and hands the storm-kind
// records back in order; after the last one it calls ResumeOpenStorm.
func (c *Controller) ReplayRecord(kind string, data json.RawMessage) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	prev := c.replaying
	c.replaying = true
	err := c.replayKindLocked(kind, data)
	c.replaying = prev
	return err
}

func (c *Controller) replayKindLocked(kind string, data json.RawMessage) error {
	switch kind {
	case kindClass:
		var spec ClassSpec
		if err := json.Unmarshal(data, &spec); err != nil {
			return err
		}
		_, err := c.addClassLocked(spec)
		return err
	case kindAttach:
		var rec attachRecord
		if err := json.Unmarshal(data, &rec); err != nil {
			return err
		}
		if rec.ID != "" {
			cls, ok := c.classes[rec.Key]
			if !ok {
				return fmt.Errorf("attach for unknown class %s", rec.Key)
			}
			c.attachOneLocked(cls, rec.ID)
			return nil
		}
		_, err := c.attachLocked(rec.Key, rec.Count)
		return err
	case kindDetach:
		var rec detachRecord
		if err := json.Unmarshal(data, &rec); err != nil {
			return err
		}
		return c.detachLocked(rec.ID)
	case kindNetChange:
		var rec netChangeRecord
		if err := json.Unmarshal(data, &rec); err != nil {
			return err
		}
		return c.replayNetChangeLocked(rec)
	case kindStormBegin:
		var rec beginRecord
		if err := json.Unmarshal(data, &rec); err != nil {
			return err
		}
		c.stormSeq = rec.Storm
		c.openStorm = &rec
		c.replayDone = make(map[string]bool)
		// The live storm absorbed these links out of pending.
		total := 0
		for name, links := range rec.Links {
			total += len(links)
			if r, ok := c.regions[name]; ok {
				for _, l := range links {
					delete(r.pending, l)
				}
			}
		}
		c.flights.begin(rec.Storm, total, len(rec.Classes), true)
		return nil
	case kindStormClass:
		var rec classRecord
		if err := json.Unmarshal(data, &rec); err != nil {
			return err
		}
		cls, ok := c.classes[rec.Key]
		if !ok {
			return fmt.Errorf("storm-class for unknown class %s", rec.Key)
		}
		var res *core.Result
		if rec.Found {
			res = &core.Result{
				Found: true, Path: rec.Path, Formats: rec.Formats,
				Params: rec.Params, Satisfaction: rec.Satisfaction, Cost: rec.Cost,
			}
		}
		c.applyPlanLocked(cls, res, rec.Degraded)
		c.flights.class(rec.Storm, rec.Key, rec.Outcome, rec.Satisfaction, 0, true)
		if c.replayDone != nil {
			c.replayDone[rec.Key] = true
		}
		return nil
	case kindStormEnd:
		var rec endRecord
		if err := json.Unmarshal(data, &rec); err != nil {
			return err
		}
		c.flights.end(rec.Storm, true)
		c.openStorm = nil
		c.replayDone = nil
		return nil
	default:
		return fmt.Errorf("unknown journal record kind %q", kind)
	}
}

// replayNetChangeLocked re-applies a reported link change to the fresh
// region network and restores the pending/dirty bookkeeping.
func (c *Controller) replayNetChangeLocked(rec netChangeRecord) error {
	r, ok := c.regions[rec.Region]
	if !ok {
		return fmt.Errorf("netchange for unknown region %q", rec.Region)
	}
	var links []overlay.LinkRef
	for _, lc := range rec.Links {
		links = append(links, overlay.LinkRef{From: lc.From, To: lc.To})
		if lc.Missing {
			continue
		}
		if _, _, ok := r.Net.Capacity(lc.From, lc.To); !ok {
			// The fresh topology lacks the link the live network had —
			// reconstruct it rather than diverge.
			r.Net.AddLink(lc.From, lc.To, lc.CapacityKbps, lc.DelayMs, lc.LossRate)
		}
		if err := r.Net.SetBandwidth(lc.From, lc.To, lc.CapacityKbps); err != nil {
			return err
		}
		if lc.Down {
			if !r.Net.LinkDown(lc.From, lc.To) {
				if err := r.Net.FailLink(lc.From, lc.To); err != nil {
					return err
				}
			}
			continue
		}
		if r.Net.LinkDown(lc.From, lc.To) {
			if err := r.Net.RecoverLink(lc.From, lc.To); err != nil {
				return err
			}
		}
		if err := r.Net.SetLoss(lc.From, lc.To, lc.LossRate); err != nil {
			return err
		}
		if err := r.Net.SetDelay(lc.From, lc.To, lc.DelayMs); err != nil {
			return err
		}
	}
	gen := r.Net.Generation()
	for _, l := range links {
		r.pending[l] = true
		r.dirty[l] = gen
	}
	return nil
}

// Snapshot types: the full controller state, sufficient to rebuild
// without the records that preceded it. The standalone controller
// writes it to its own log; an embedded controller hands it to its host
// (SnapshotState), whose snapshot carries it alongside the host's own
// state.
type snapshot struct {
	StormSeq int          `json:"stormSeq"`
	Regions  []regionSnap `json:"regions"`
	Classes  []classSnap  `json:"classes"`
}

type regionSnap struct {
	Name      string              `json:"name"`
	DownHosts []string            `json:"downHosts,omitempty"`
	Links     []overlay.LinkState `json:"links"`
	Pending   []overlay.LinkRef   `json:"pending,omitempty"`
}

type chainSnap struct {
	Path         []graph.NodeID `json:"path"`
	Formats      []media.Format `json:"formats"`
	Params       media.Params   `json:"params,omitempty"`
	Satisfaction float64        `json:"satisfaction"`
	Cost         float64        `json:"cost"`
}

type memberSnap struct {
	ID       string                `json:"id"`
	Held     []overlay.Reservation `json:"held,omitempty"`
	Degraded bool                  `json:"degraded,omitempty"`
	Swaps    int                   `json:"swaps,omitempty"`
}

type classSnap struct {
	Spec     ClassSpec    `json:"spec"`
	Chain    *chainSnap   `json:"chain,omitempty"`
	Kbps     float64      `json:"kbps"`
	Degraded bool         `json:"degraded"`
	Members  []memberSnap `json:"members,omitempty"`
}

// encodeStateLocked renders the full controller state: every region's
// exact link state (reservations included), crashed hosts and pending
// links; every class's spec and chain; every member's exact hold.
func (c *Controller) encodeStateLocked() ([]byte, error) {
	snap := snapshot{StormSeq: c.stormSeq}
	regionNames := make([]string, 0, len(c.regions))
	for name := range c.regions {
		regionNames = append(regionNames, name)
	}
	sort.Strings(regionNames)
	for _, name := range regionNames {
		r := c.regions[name]
		links, down := r.Net.State()
		snap.Regions = append(snap.Regions, regionSnap{Name: name, DownHosts: down, Links: links, Pending: sortLinks(r.pending)})
	}
	for _, key := range c.order {
		cls := c.classes[key]
		cs := classSnap{Spec: cls.spec, Kbps: cls.kbps, Degraded: cls.degraded}
		if cls.current != nil && cls.current.Found {
			cs.Chain = &chainSnap{
				Path: cls.current.Path, Formats: cls.current.Formats,
				Params: cls.current.Params, Satisfaction: cls.current.Satisfaction,
				Cost: cls.current.Cost,
			}
		}
		for _, s := range cls.members {
			cs.Members = append(cs.Members, memberSnap{ID: s.ID, Held: s.held, Degraded: s.degraded, Swaps: s.swaps})
		}
		snap.Classes = append(snap.Classes, cs)
	}
	return json.Marshal(snap)
}

// snapshotLocked compacts the standalone journal with a full-state
// snapshot.
func (c *Controller) snapshotLocked() error {
	data, err := c.encodeStateLocked()
	if err != nil {
		return err
	}
	if err := c.log.Snapshot(data); err != nil {
		c.journalDead = true
		return fmt.Errorf("storm: snapshot: %w", err)
	}
	return nil
}

// SnapshotState is the embedded host's snapshot hook: it renders the
// full controller state and hands it to write while still holding the
// controller lock, so no storm record can reach the host's log between
// the capture and the write (write may take the host's own lock — the
// same order the Sink uses). The state must equal what the journal's
// records rebuild, so it is refused with ErrStormActive — write is not
// called — while a storm is running, while a replayed storm awaits
// ResumeOpenStorm, or after a storm stopped between its begin and end
// records (HaltAfterFanouts, a journal failure): the host retries at a
// later quiescent point.
func (c *Controller) SnapshotState(write func(state json.RawMessage) error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.active || c.openStorm != nil || c.halted {
		return ErrStormActive
	}
	data, err := c.encodeStateLocked()
	if err != nil {
		return err
	}
	return write(data)
}

// RestoreState rebuilds a freshly opened embedded controller from a
// SnapshotState payload. The host registers the snapshot's regions
// (fresh base topology) first.
func (c *Controller) RestoreState(data json.RawMessage) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.restoreSnapshotLocked(data); err != nil {
		return err
	}
	c.refreshGaugesLocked()
	return nil
}

// restoreSnapshotLocked rebuilds the controller from a snapshot: link
// states and crashed hosts are installed exactly (standing reservations
// included), and classes and members take their recorded chains and
// holds without re-reserving.
func (c *Controller) restoreSnapshotLocked(data []byte) error {
	var snap snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return fmt.Errorf("storm: decode snapshot: %w", err)
	}
	c.stormSeq = snap.StormSeq
	for _, rs := range snap.Regions {
		r, ok := c.regions[rs.Name]
		if !ok {
			return fmt.Errorf("storm: snapshot region %q not configured", rs.Name)
		}
		r.Net.Restore(rs.Links, rs.DownHosts)
		gen := r.Net.Generation()
		for _, l := range rs.Pending {
			r.pending[l] = true
			r.dirty[l] = gen
		}
	}
	for _, cs := range snap.Classes {
		cls, err := c.newClassLocked(cs.Spec)
		if err != nil {
			return fmt.Errorf("storm: snapshot: %w", err)
		}
		cls.kbps, cls.degraded = cs.Kbps, cs.Degraded
		if cs.Chain != nil {
			cls.current = &core.Result{
				Found: true, Path: cs.Chain.Path, Formats: cs.Chain.Formats,
				Params: cs.Chain.Params, Satisfaction: cs.Chain.Satisfaction,
				Cost: cs.Chain.Cost,
			}
		}
		for _, ms := range cs.Members {
			s := &Session{ID: ms.ID, class: cls, held: ms.Held, degraded: ms.Degraded, swaps: ms.Swaps}
			cls.members = append(cls.members, s)
			c.memberIdx[s.ID] = s
		}
		c.classes[cls.key] = cls
		c.order = append(c.order, cls.key)
	}
	c.qosPublishLocked()
	return nil
}
