package session

// storm.go is the manager's storm-attached mode: the daemon-side
// unification of the session manager and the storm controller
// (internal/storm). Instead of giving every /v1/sessions create its own
// private overlay and failover loop, the manager derives a shared
// region from the session's network profile, folds the session into a
// storm equivalence class (fingerprint-keyed ClassSpec), and lets the
// controller own all re-composition — one Select per affected class per
// event, one atomic SwapChain per member, one reservation ledger (the
// region overlay) instead of the manager and controller double-tracking
// holds.
//
// Durability inverts the standalone controller's layout: the controller
// journals nothing itself. Its storm fan-out records flow through the
// manager's WAL (Config.Sink → walEvent{Op: "storm"}), interleaved in
// true order with the create/fault/reevaluate/delete commands, and
// class membership is derived state — replaying the manager's commands
// re-attaches every session and re-marks every pending link, while the
// storm records replay their recorded plans verbatim (no Select). That
// one WAL is exactly what the cluster tier ships, so a follower's
// replica manager rebuilds the full class state for free, and a primary
// that dies mid-storm leaves a begin-without-end the promoted follower
// finishes via ResumeOpenStorm — in the recorded priority order, with
// byte-identical resulting fingerprints.
//
// Snapshots are materialized state, so they cost O(live sessions), not
// O(lifetime commands): the session ID counter, one network +
// intermediaries profile per region (the base overlay EnsureRegion
// rebuilds), each live member's ID, class, region, virtual clock and
// private counters, and the controller's own state (storm.SnapshotState
// — exact link states and reservations, crashed hosts, pending links,
// the storm counter, classes with their plans, members with their
// holds). A snapshot must equal the state after exactly the records at
// or below its sequence, so it is only taken at a quiescent command
// boundary: under attachMu (no command between its mutation and its
// append — a BandwidthCollapse multiplies the current bandwidth, so a
// snapshot cut there would apply the collapse twice on replay) with no
// storm open. One that comes due inside a storm's sink waits for the
// end of the command. Only the capture sits on the command path; the
// snapshot file is written in the background (snapshotStorm).

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"

	"qoschain/internal/fault"
	"qoschain/internal/graph"
	"qoschain/internal/journal"
	"qoschain/internal/metrics"
	"qoschain/internal/overlay"
	"qoschain/internal/profile"
	"qoschain/internal/storm"
)

// StormController exposes the embedded controller (nil unless the
// manager runs in storm-attached mode) — the daemon mounts its Status
// on /healthz and the harnesses read fingerprints off it.
func (m *Manager) StormController() *storm.Controller { return m.storm }

// stormSink is the controller's journal: storm records append to the
// manager's WAL as Op "storm" commands, in true order relative to the
// session commands around them. Called with the controller's lock held;
// takes only m.mu (never attachMu), so it cannot deadlock against
// creates, which take the controller's lock without holding m.mu.
func (m *Manager) stormSink(kind string, data json.RawMessage) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.journalCommand(walEvent{Op: "storm", Kind: kind, Data: data})
}

// regionProfile is the infrastructure half of a profile set — what a
// region's base overlay and service list are built from.
type regionProfile struct {
	Network        profile.Network        `json:"network"`
	Intermediaries []profile.Intermediary `json:"intermediaries"`
}

// memberSnap is one live storm-attached session in a snapshot: the
// manager-side state the controller does not hold.
type memberSnap struct {
	ID       string           `json:"id"`
	Class    string           `json:"class"`
	Region   string           `json:"region"`
	Step     int              `json:"step,omitempty"`
	Counters map[string]int64 `json:"counters,omitempty"`
}

// snapshotIfDue takes the storm-mode snapshot once the cadence has come
// round, publishing it in the background. Called at the end of a
// command, holding attachMu and neither m.mu nor the controller lock.
func (m *Manager) snapshotIfDue() error {
	if m.log == nil {
		return nil
	}
	m.mu.Lock()
	due := m.snapshotDueLocked()
	m.mu.Unlock()
	if !due {
		return nil
	}
	return m.snapshotStorm(false)
}

// snapshotStorm takes a materialized snapshot. Callers hold attachMu.
// The capture — encode the state, rotate the journal at its sequence —
// runs under the controller lock and m.mu, so no storm record slips
// between them; a storm still open (halted mid-fan-out, or replayed and
// awaiting its resume) defers the snapshot to a later boundary. Writing
// the snapshot file is the slow part (several fsyncs), so unless wait
// is set it runs in the background while commands go on appending to
// the fresh generation. There is one writer: a capture first waits for
// the previous write. A failed write poisons the journal, so the next
// command fails like the process death it stands for.
func (m *Manager) snapshotStorm(wait bool) error {
	m.publishing.Wait()
	var (
		cut  journal.Cut
		data []byte
	)
	err := m.storm.SnapshotState(func(ctrl json.RawMessage) error {
		m.mu.Lock()
		defer m.mu.Unlock()
		doc := snapshotDoc{Seq: m.seq, Regions: m.regions, Storm: ctrl, Members: make([]memberSnap, 0, len(m.sessions))}
		for _, ms := range m.sessions {
			doc.Members = append(doc.Members, memberSnap{
				ID: ms.id, Class: ms.classKey, Region: ms.region,
				Step: ms.step, Counters: ms.counters.Snapshot(),
			})
		}
		sort.Slice(doc.Members, func(i, j int) bool { return doc.Members[i].ID < doc.Members[j].ID })
		var err error
		if data, err = json.Marshal(doc); err != nil {
			return fmt.Errorf("session: encoding snapshot: %w", err)
		}
		if cut, err = m.log.Rotate(); err != nil {
			return fmt.Errorf("%w: %w", ErrJournal, err)
		}
		m.eventsSince = 0
		return nil
	})
	if errors.Is(err, storm.ErrStormActive) {
		return nil
	}
	if err != nil {
		return err
	}
	publish := func() error {
		if err := m.log.Publish(cut, data); err != nil {
			m.mu.Lock()
			m.log.Poison(err)
			m.mu.Unlock()
			return fmt.Errorf("%w: %w", ErrJournal, err)
		}
		return nil
	}
	if wait {
		return publish()
	}
	m.publishing.Add(1)
	go func() {
		defer m.publishing.Done()
		publish() //nolint:errcheck // surfaces through the poisoned journal
	}()
	return nil
}

// restoreStorm rebuilds storm-attached state from a materialized
// snapshot: base overlays from the region profiles, then the
// controller's state over them, then the manager's members.
func (m *Manager) restoreStorm(doc *snapshotDoc) error {
	names := make([]string, 0, len(doc.Regions))
	for name := range doc.Regions {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := m.ensureRegion(name, doc.Regions[name]); err != nil {
			return fmt.Errorf("region %s: %w", name, err)
		}
	}
	if err := m.storm.RestoreState(doc.Storm); err != nil {
		return err
	}
	for _, snap := range doc.Members {
		net := m.storm.RegionNet(snap.Region)
		if net == nil {
			return fmt.Errorf("member %s in unknown region %q", snap.ID, snap.Region)
		}
		counters := metrics.NewCounters()
		for name, v := range snap.Counters {
			counters.Add(name, v)
		}
		m.sessions[snap.ID] = &Managed{
			m: m, id: snap.ID, net: net, pool: fault.NewServiceSet(nil), counters: counters,
			attached: true, classKey: snap.Class, region: snap.Region, step: snap.Step,
		}
	}
	return nil
}

// stormRegionName fingerprints the infrastructure half of a profile set
// — the network topology and deployed intermediaries — into a region
// name, so sessions created over the same infrastructure share one
// overlay and one service pool.
func stormRegionName(set *profile.Set) string {
	data, err := json.Marshal(struct {
		Network        any `json:"network"`
		Intermediaries any `json:"intermediaries"`
	}{set.Network, set.Intermediaries})
	if err != nil {
		return "r-unmarshalable"
	}
	h := fnv.New64a()
	h.Write(data)
	return fmt.Sprintf("r%016x", h.Sum64())
}

// buildAttached validates a spec and attaches a session to its storm
// equivalence class under the given ID — the single path live creation
// and replay share, mirroring buildManaged. Region and class
// registration are idempotent; only the first session of a fingerprint
// pays for a Select.
func (m *Manager) buildAttached(id string, spec CreateSpec) (*Managed, error) {
	set := spec.Set
	if err := set.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	satProfile, err := set.User.SatisfactionProfile(profile.ContactClass(spec.Contact))
	if err == nil {
		err = satProfile.Validate()
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	regionName := stormRegionName(&set)
	if err := m.ensureRegion(regionName, regionProfile{Network: set.Network, Intermediaries: set.Intermediaries}); err != nil {
		return nil, err
	}
	cls, err := m.storm.EnsureClass(storm.ClassSpec{
		Region:  regionName,
		Content: set.Content,
		Device:  set.Device,
		User:    set.User,
		Contact: profile.ContactClass(spec.Contact),
		Floor:   spec.Floor,
	})
	if err != nil {
		return nil, err
	}
	if _, err := m.storm.AttachSession(cls.Key(), id); err != nil {
		return nil, err
	}
	return &Managed{
		m:        m,
		id:       id,
		net:      m.storm.RegionNet(regionName),
		pool:     fault.NewServiceSet(nil),
		counters: metrics.NewCounters(),
		attached: true,
		classKey: cls.Key(),
		region:   regionName,
	}, nil
}

// ensureRegion registers a region's base overlay with the controller on
// first sight and remembers its profile for snapshots. Callers hold
// attachMu (or run recovery, before the manager is shared).
func (m *Manager) ensureRegion(name string, rp regionProfile) error {
	if m.storm.HasRegion(name) {
		return nil
	}
	net, err := overlay.FromProfile(rp.Network)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	if err := m.storm.EnsureRegion(storm.Region{
		Name:       name,
		Net:        net,
		Services:   graph.CollectServices(rp.Intermediaries),
		SenderHost: "sender",
		// ReceiverHost stays empty: each class resolves its receiver
		// to its own device ID, matching the non-storm session path.
	}); err != nil {
		return err
	}
	m.regions[name] = rp
	return nil
}

// createAttachedCtx is the storm-mode CreateCtx. attachMu serializes
// attach order with journal order across concurrent commands, so replay
// reserves against the shared region overlay in the same sequence the
// live path did.
func (m *Manager) createAttachedCtx(ctx context.Context, spec CreateSpec) (*Managed, error) {
	m.attachMu.Lock()
	defer m.attachMu.Unlock()
	m.mu.Lock()
	m.seq++
	id := fmt.Sprintf("%ss%d", m.cfg.IDPrefix, m.seq)
	m.mu.Unlock()
	ms, err := m.buildAttached(id, spec)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	m.sessions[id] = ms
	err = m.journalTraced(ctx, walEvent{Op: "create", ID: id, Create: &spec})
	m.mu.Unlock()
	if err != nil {
		return ms, err
	}
	return ms, m.snapshotIfDue()
}

// deleteAttached is the storm-mode Delete: detach (releasing the hold
// on the shared overlay) and journal.
func (m *Manager) deleteAttached(id string) (bool, error) {
	m.attachMu.Lock()
	defer m.attachMu.Unlock()
	m.mu.Lock()
	_, ok := m.sessions[id]
	if !ok {
		m.mu.Unlock()
		return false, nil
	}
	delete(m.sessions, id)
	m.mu.Unlock()
	detachErr := m.storm.DetachSession(id)
	m.mu.Lock()
	err := m.journalCommand(walEvent{Op: "delete", ID: id})
	m.mu.Unlock()
	if err == nil {
		err = m.snapshotIfDue()
	}
	if err == nil {
		err = detachErr
	}
	return true, err
}

// applyRegionFault mutates the shared region overlay and marks the
// fault's changed-link set pending for the next storm — the one
// mutation path live faults and replayed faults share. Mutations are
// idempotent (a host two sessions both crash fails once), because in a
// shared region the same physical event can arrive through more than
// one session. Service faults need per-session pools and are not
// supported in storm mode.
func (m *Manager) applyRegionFault(regionName string, f fault.Fault) error {
	net := m.storm.RegionNet(regionName)
	if net == nil {
		return fmt.Errorf("session: unknown region %q", regionName)
	}
	switch f.Kind {
	case fault.HostCrash:
		if !net.HostDown(f.Host) {
			if err := net.FailHost(f.Host); err != nil {
				return err
			}
		}
	case fault.HostRecover:
		if net.HostDown(f.Host) {
			if err := net.RecoverHost(f.Host); err != nil {
				return err
			}
		}
	case fault.LinkDown:
		if !net.LinkDown(f.From, f.To) {
			if err := net.FailLink(f.From, f.To); err != nil {
				return err
			}
		}
	case fault.LinkUp:
		if net.LinkDown(f.From, f.To) {
			if err := net.RecoverLink(f.From, f.To); err != nil {
				return err
			}
		}
	case fault.BandwidthCollapse:
		found := false
		for _, l := range net.Snapshot().Links {
			if l.From == f.From && l.To == f.To {
				if err := net.SetBandwidth(f.From, f.To, l.BandwidthKbps*f.Factor); err != nil {
					return err
				}
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("session: no link %s->%s", f.From, f.To)
		}
	case fault.LossSpike:
		if err := net.SetLoss(f.From, f.To, f.LossRate); err != nil {
			return err
		}
	case fault.DelaySpike:
		if err := net.SetDelay(f.From, f.To, f.DelayMs); err != nil {
			return err
		}
	default:
		return fmt.Errorf("session: fault kind %q unsupported in storm mode", f.Kind)
	}
	links := fault.ChangedLinks([]fault.Fault{f}, net)
	return m.storm.NotePending(regionName, links)
}

// applyFaultAttachedCtx is the storm-mode fault path: mutate the shared
// overlay, journal the command, then absorb the changed-link set with a
// storm — O(affected classes) Selects, not O(sessions). A storm already
// in flight keeps the links pending; they are absorbed by the next one.
func (ms *Managed) applyFaultAttachedCtx(ctx context.Context, f fault.Fault) error {
	m := ms.m
	m.attachMu.Lock()
	defer m.attachMu.Unlock()
	if err := m.applyRegionFault(ms.region, f); err != nil {
		return err
	}
	m.mu.Lock()
	err := m.journalTraced(ctx, walEvent{Op: "fault", ID: ms.id, Fault: &f})
	m.mu.Unlock()
	if err != nil {
		return err
	}
	if _, err := m.storm.Storm(); err != nil && !errors.Is(err, storm.ErrStormActive) {
		return err
	}
	return m.snapshotIfDue()
}

// noteReason records a reevaluate attribution on both the session's
// private deterministic counters and the daemon-wide sink — the
// storm-mode mirror of Session.NoteReevaluateReason.
func (ms *Managed) noteReason(reason string) {
	if reason == "" {
		return
	}
	ms.counters.Inc(metrics.CounterReevalPrefix + reason)
	ms.m.cfg.Counters.Inc(metrics.CounterReevalPrefix + reason)
}

// reevaluateAttachedCtx is the storm-mode re-evaluation: a single-class
// storm over the session's equivalence class. Every class member gets
// the refreshed plan — re-evaluating one session of a class and not its
// twins would be a contradiction in terms.
func (ms *Managed) reevaluateAttachedCtx(ctx context.Context, reason string) (changed bool, evalErr, logErr error) {
	m := ms.m
	m.attachMu.Lock()
	defer m.attachMu.Unlock()
	ms.mu.Lock()
	ms.step++
	ms.noteReason(reason)
	ms.mu.Unlock()
	m.mu.Lock()
	logErr = m.journalTraced(ctx, walEvent{Op: "reevaluate", ID: ms.id, Reason: reason})
	m.mu.Unlock()
	rep, err := m.storm.ReplanClass(ms.classKey)
	if logErr == nil {
		logErr = m.snapshotIfDue()
	}
	if err != nil {
		if errors.Is(err, storm.ErrStormActive) {
			// A storm in flight will re-plan the class anyway.
			return false, nil, logErr
		}
		return false, err, logErr
	}
	for _, out := range rep.Classes {
		if out.Outcome == storm.OutcomeReplanned || out.Outcome == storm.OutcomeDegraded {
			changed = true
		}
	}
	return changed, nil, logErr
}

// replayAttached re-applies one command against an attached session
// during recovery. Faults re-mutate the shared overlay and re-mark
// pending links but never trigger a storm — the journaled storm records
// replay the fan-outs exactly as they happened. Reevaluates restore the
// virtual clock and counters only, for the same reason.
func (ms *Managed) replayAttached(ev walEvent) error {
	switch ev.Op {
	case "fault":
		if ev.Fault == nil {
			return fmt.Errorf("fault command without fault")
		}
		return ms.m.applyRegionFault(ms.region, *ev.Fault)
	case "reevaluate":
		ms.step++
		ms.noteReason(ev.Reason)
		return nil
	default:
		return fmt.Errorf("unknown session op %q", ev.Op)
	}
}

// attachedStateLocked builds the State view of an attached session from
// its class membership. Callers hold ms.mu.
func (ms *Managed) attachedStateLocked() State {
	v, _ := ms.m.storm.MemberState(ms.id)
	st := State{
		ID:             ms.id,
		Satisfaction:   v.Satisfaction,
		Cost:           v.Cost,
		Step:           ms.step,
		Recompositions: v.Swaps,
		Failover:       FailoverStatus{Enabled: true, Degraded: v.Degraded},
		Counters:       ms.counters.Snapshot(),
	}
	if ms.net != nil {
		st.DownHosts = ms.net.DownHosts()
		sort.Strings(st.DownHosts)
	}
	for _, id := range v.Path {
		st.Path = append(st.Path, string(id))
	}
	for _, f := range v.Formats {
		st.Formats = append(st.Formats, f.String())
	}
	if len(v.Held) > 0 {
		st.Reserved = make(map[string]float64, len(v.Held))
		for _, r := range v.Held {
			st.Reserved[r.From+"->"+r.To] += r.Kbps
		}
	}
	return st
}

// reconcileStorm is the storm-mode post-recovery sweep. First any storm
// the journal left open (begin without end — the previous primary died
// mid-fan-out) is finished in its recorded priority order; the resumed
// fan-outs journal live through the sink like any other. Then every
// member's holds are audited against the region overlay: holds sitting
// on dead links mark those links pending, and one storm absorbs the
// whole batch — class-at-a-time, never per-session.
func (m *Manager) reconcileStorm() *ReconcileReport {
	m.attachMu.Lock()
	defer m.attachMu.Unlock()
	rep := &ReconcileReport{}
	resumed, err := m.storm.ResumeOpenStorm()
	if err != nil {
		m.mu.Lock()
		m.replayError(fmt.Sprintf("storm resume: %v", err))
		m.mu.Unlock()
	}
	if key := m.owedReplan; key != "" {
		// The journal ends with a reevaluate whose class replan never
		// began: run it, as the live command would have.
		m.owedReplan = ""
		if rp, err := m.storm.ReplanClass(key); err != nil {
			m.mu.Lock()
			m.replayError(fmt.Sprintf("storm replan %s: %v", key, err))
			m.mu.Unlock()
		} else {
			rep.Recomposed += rp.Replanned
		}
	}
	for _, ms := range m.List() {
		if !ms.attached {
			continue
		}
		rep.Checked++
		v, ok := m.storm.MemberState(ms.id)
		if !ok {
			continue
		}
		net := m.storm.RegionNet(v.Region)
		if net == nil {
			continue
		}
		var bad []overlay.LinkRef
		stale := 0.0
		for _, r := range v.Held {
			if !net.Usable(r.From, r.To) {
				bad = append(bad, overlay.LinkRef{From: r.From, To: r.To})
				stale += r.Kbps
			}
		}
		if len(bad) == 0 {
			continue
		}
		if err := m.storm.NotePending(v.Region, bad); err != nil {
			continue
		}
		rep.Recomposed++
		rep.ReleasedKbps += stale
		rep.Sessions = append(rep.Sessions, ms.id)
		m.cfg.Counters.Inc(metrics.CounterRecoveryReconciled)
		if stale > 0 {
			m.cfg.Counters.Observe(metrics.SampleRecoveryReleasedKbps, stale)
		}
	}
	if _, err := m.storm.Storm(); err != nil && !errors.Is(err, storm.ErrStormActive) {
		m.mu.Lock()
		m.replayError(fmt.Sprintf("storm reconcile: %v", err))
		m.mu.Unlock()
	}
	if resumed != nil {
		rep.Recomposed += resumed.Replanned
	}
	sort.Strings(rep.Sessions)
	m.mu.Lock()
	m.recovery.Reconcile = rep
	m.mu.Unlock()
	return rep
}
