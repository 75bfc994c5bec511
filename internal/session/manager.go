package session

// manager.go makes session state durable. A Manager owns the live
// sessions created over the API (each with its private overlay network
// and service pool) and — when given a state directory — journals every
// state-changing command through a checksummed, hash-chained write-ahead
// log (internal/journal): session create, fault injection, reevaluate
// and delete, which implicitly carry the reservation commit/release and
// failover/degrade transitions those commands cause.
//
// Sessions are deterministic state machines: the failover jitter is
// seeded, the clock is virtual (one tick per reevaluate), and faults
// mutate only the session's private overlay. Replaying the journaled
// command stream against the journaled creation profile therefore
// rebuilds byte-identical session state — including bandwidth holds,
// which are re-applied through the same overlay.ReserveChain admissions
// the live path used. Periodic snapshots compact the journal — to the
// per-session command histories still needed (deleted sessions drop
// out), or in storm-attached mode to the materialized live state (see
// storm.go) — and recovery is snapshot + journal-suffix replay.
//
// After replay, Reconcile walks every recovered session and pushes the
// ones whose chain or bandwidth holds no longer match their overlay
// (a fault committed without a follow-up reevaluate before the crash)
// through the ordinary failover re-composition, releasing holds whose
// links died.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"qoschain/internal/core"
	"qoschain/internal/fault"
	"qoschain/internal/graph"
	"qoschain/internal/journal"
	"qoschain/internal/metrics"
	"qoschain/internal/overlay"
	"qoschain/internal/profile"
	"qoschain/internal/storm"
	"qoschain/internal/trace"
)

// ErrBadSpec marks a CreateSpec that fails validation before any
// composition runs — the HTTP layer maps it to 400.
var ErrBadSpec = errors.New("session: invalid spec")

// ErrUnknownSession is returned for operations against absent IDs.
var ErrUnknownSession = errors.New("session: unknown session")

// ErrJournal marks a durability failure: the command applied in memory
// but did not reach the write-ahead journal. The server should treat it
// as fatal — a restart recovers to the last fsynced record.
var ErrJournal = errors.New("session: journal write failed")

// CreateSpec is everything needed to (re)build one managed session — the
// journaled creation command.
type CreateSpec struct {
	// Set is the full profile set the session composes over.
	Set profile.Set `json:"set"`
	// Floor is the failover satisfaction floor.
	Floor float64 `json:"floor,omitempty"`
	// Seed seeds the failover jitter (0 behaves as 1).
	Seed int64 `json:"seed,omitempty"`
	// Contact selects per-contact user preferences.
	Contact string `json:"contact,omitempty"`
	// Reserve holds the chain's bitrate on the session's overlay links.
	Reserve bool `json:"reserve,omitempty"`
}

// ManagerConfig assembles a Manager.
type ManagerConfig struct {
	// StateDir enables durability: commands are journaled there and
	// replayed on the next open. Empty keeps the manager in-memory only.
	StateDir string
	// IDPrefix namespaces session IDs (e.g. "n1-" yields "n1-s1"), so a
	// cluster router can map any session ID back to the node that minted
	// it. Empty for a standalone daemon. A replica manager mirroring a
	// remote primary sets the primary's prefix, so replicated creates
	// replay under their original IDs.
	IDPrefix string
	// SnapshotEvery compacts the journal after this many commands.
	// Default 64; negative disables periodic snapshots.
	SnapshotEvery int
	// Counters receives journal.* and recovery.* metrics, and mirrors
	// every per-session failover counter (the authoritative copies live
	// with each session and replay with it — see metrics.Fanout). Nil is
	// a valid no-op sink.
	Counters *metrics.Counters
	// FailPoints injects deterministic crash sites into the journal —
	// the adaptsim -crash harness and tests arm these.
	FailPoints *journal.FailPoints
	// Storm switches the manager to storm-attached mode: instead of a
	// private overlay and failover loop per session, each create derives
	// a shared region from its network profile and attaches the session
	// to a storm equivalence class (fingerprint-keyed ClassSpec).
	// Faults route their changed-link sets through the storm controller
	// — one Select per affected class, atomic SwapChain per member — and
	// the controller's storm records journal through this manager's WAL,
	// so cluster WAL shipping replicates class state for free.
	Storm bool
	// StormVerify arms the controller's naive per-session equivalence
	// check (harness use only).
	StormVerify bool
	// StormHaltAfterFanouts arms the controller's deterministic
	// mid-storm crash site (see storm.Config.HaltAfterFanouts).
	StormHaltAfterFanouts int
}

// walEvent is the journaled wire form of one command.
type walEvent struct {
	Op     string       `json:"op"` // create | fault | reevaluate | delete
	ID     string       `json:"id"`
	Create *CreateSpec  `json:"create,omitempty"`
	Fault  *fault.Fault `json:"fault,omitempty"`
	// Reason attributes a reevaluate command to its driver — "manual"
	// (client request), "fault" (post-recovery reconciliation) or
	// "storm" (mass re-composition) — so traces can tell storm-driven
	// re-plans from per-session failover. Empty on journals written
	// before the field existed; replay treats empty as unattributed.
	Reason string `json:"reason,omitempty"`
	// Kind/Data carry a storm controller record when Op is "storm":
	// Kind is the controller's record kind (storm-begin, storm-class,
	// storm-end) and Data its payload, replayed back through
	// storm.Controller.ReplayRecord.
	Kind string          `json:"kind,omitempty"`
	Data json.RawMessage `json:"data,omitempty"`
}

// sessionHistory is one session's replayable command stream: its
// creation spec plus every fault and reevaluate since. Snapshots carry
// exactly these, so compaction drops deleted sessions' commands.
type sessionHistory struct {
	Create CreateSpec `json:"create"`
	Events []walEvent `json:"events,omitempty"`
}

// snapshotDoc is the snapshot payload. Non-storm managers carry
// per-session histories (deleted sessions compact away). Storm-attached
// managers carry materialized state instead — region profiles, live
// members and the controller's own state — so its size follows the live
// sessions, not the commands that led to them (see storm.go).
type snapshotDoc struct {
	Seq      int                        `json:"seq"`
	Sessions map[string]*sessionHistory `json:"sessions"`
	// Regions maps each storm region to the profile its base overlay
	// is rebuilt from.
	Regions map[string]regionProfile `json:"regions,omitempty"`
	// Members are the live storm-attached sessions, in ID order.
	Members []memberSnap `json:"members,omitempty"`
	// Storm is the embedded controller's state (storm.SnapshotState).
	Storm json.RawMessage `json:"storm,omitempty"`
	// Ordered is the full command log earlier storm-mode snapshots
	// carried. Recovery still replays it so old state directories
	// upgrade; nothing writes it.
	Ordered []walEvent `json:"ordered,omitempty"`
}

// RecoveryReport summarizes what a Manager rebuilt at startup; adaptd
// exposes it on /healthz.
type RecoveryReport struct {
	// SnapshotSeq/SnapshotSessions describe the loaded snapshot.
	SnapshotSeq      uint64 `json:"snapshotSeq"`
	SnapshotSessions int    `json:"snapshotSessions"`
	// JournalRecords is how many journal-suffix commands replayed.
	JournalRecords int `json:"journalRecords"`
	// TruncatedBytes counts torn-tail bytes recovery dropped.
	TruncatedBytes int64 `json:"truncatedBytes"`
	// Sessions is the live session count after replay.
	Sessions int `json:"sessions"`
	// LastSeq is the journal position the manager resumed from.
	LastSeq uint64 `json:"lastSeq"`
	// Skipped names corrupt or stale files recovery ignored.
	Skipped []string `json:"skipped,omitempty"`
	// ReplayErrors lists commands that failed to re-apply.
	ReplayErrors []string `json:"replayErrors,omitempty"`
	// Reconcile is filled in once Reconcile has run.
	Reconcile *ReconcileReport `json:"reconcile,omitempty"`
}

// ReconcileReport summarizes the post-recovery reservation sweep.
type ReconcileReport struct {
	// Checked counts sessions inspected.
	Checked int `json:"checked"`
	// Recomposed counts sessions pushed through failover re-composition
	// because their chain or holds no longer matched the overlay.
	Recomposed int `json:"recomposed"`
	// ReleasedKbps is the bandwidth freed from holds on dead links.
	ReleasedKbps float64 `json:"releasedKbps"`
	// Sessions names the recomposed sessions, sorted.
	Sessions []string `json:"sessions,omitempty"`
}

// Manager owns live sessions and their durability.
type Manager struct {
	mu          sync.Mutex
	cfg         ManagerConfig
	log         *journal.Log
	sessions    map[string]*Managed
	histories   map[string]*sessionHistory
	seq         int // session ID counter
	eventsSince int // commands since the last snapshot
	recovery    *RecoveryReport

	// Storm-attached mode state. storm is the embedded controller (its
	// records journal through this manager's WAL via the sink). attachMu
	// serializes whole commands — create, delete, fault, reevaluate,
	// each with the storm it triggers — so journal order is exactly the
	// order they mutated the shared region overlays in, and a snapshot
	// taken under it sees no command between its mutation and its
	// append. It is never taken by the controller's sink path, so it
	// cannot deadlock against a storm fan-out (which holds the
	// controller lock and then takes m.mu). regions, guarded by
	// attachMu, remembers each region's profile for snapshots.
	// owedReplan, also under attachMu, names the class of a replayed
	// reevaluate that is the journal's last record: the process died
	// before its class replan began, so Reconcile runs it. publishing
	// tracks the snapshot write running in the background.
	storm      *storm.Controller
	attachMu   sync.Mutex
	regions    map[string]regionProfile
	owedReplan string
	publishing sync.WaitGroup

	// QoS SLO tracking for the non-attached mode (see qos.go). qosMu is
	// a leaf lock: taken after ms.mu/m.mu, never around them.
	qosMu       sync.Mutex
	qosBurn     *metrics.BurnWindow
	qosDegraded int
}

// Managed is one manager-owned session. In the default mode it owns a
// private overlay and service pool (faults against one session never
// leak into another) and sess drives per-session failover. In
// storm-attached mode sess is nil: the session is a member of a storm
// equivalence class, net aliases the shared region overlay, and all
// re-composition happens through the manager's storm controller.
type Managed struct {
	mu       sync.Mutex
	m        *Manager
	id       string
	sess     *Session
	net      *overlay.Network
	pool     *fault.ServiceSet
	counters *metrics.Counters

	attached bool
	classKey string
	region   string
	step     int // virtual clock: one tick per reevaluate

	// qosBelow tracks the session's last observed below-floor state for
	// breach-transition counting (guarded by m.qosMu). Unexported and
	// never marshaled: SLO telemetry stays out of Fingerprint.
	qosBelow bool
}

// NewManager builds a manager and — with a state directory — recovers
// every committed session from the snapshot and journal.
func NewManager(cfg ManagerConfig) (*Manager, error) {
	if cfg.SnapshotEvery == 0 {
		cfg.SnapshotEvery = 64
	}
	m := &Manager{
		cfg:       cfg,
		sessions:  make(map[string]*Managed),
		histories: make(map[string]*sessionHistory),
		recovery:  &RecoveryReport{},
		qosBurn:   metrics.NewBurnWindow(0),
	}
	if cfg.Storm {
		// The embedded controller journals its storm records through
		// this manager's WAL (the sink) and is rebuilt from it on
		// recovery — it never owns a log of its own.
		ctrl, err := storm.Open(storm.Config{
			Workers:          1,
			Verify:           cfg.StormVerify,
			HaltAfterFanouts: cfg.StormHaltAfterFanouts,
			Counters:         cfg.Counters,
			Sink:             m.stormSink,
		}, nil)
		if err != nil {
			return nil, err
		}
		m.storm = ctrl
		m.regions = make(map[string]regionProfile)
	}
	if cfg.StateDir == "" {
		return m, nil
	}
	log, rec, err := journal.OpenLog(cfg.StateDir, journal.Options{
		FailPoints: cfg.FailPoints,
		Counters:   cfg.Counters,
	})
	if err != nil {
		return nil, err
	}
	m.log = log
	m.recovery = &RecoveryReport{
		SnapshotSeq:    rec.SnapshotSeq,
		JournalRecords: len(rec.Records),
		TruncatedBytes: rec.TruncatedBytes,
		LastSeq:        rec.LastSeq,
		Skipped:        rec.Skipped,
	}
	if rec.SnapshotData != nil {
		var doc snapshotDoc
		if err := json.Unmarshal(rec.SnapshotData, &doc); err != nil {
			log.Close()
			return nil, fmt.Errorf("session: decoding snapshot: %w", err)
		}
		m.seq = doc.Seq
		if m.cfg.Storm {
			if doc.Storm != nil {
				if err := m.restoreStorm(&doc); err != nil {
					log.Close()
					return nil, fmt.Errorf("session: restoring snapshot: %w", err)
				}
			}
			// Snapshots written before storm state was materialized
			// carry the ordered command log instead; replay it like a
			// journal prefix.
			for _, ev := range doc.Ordered {
				m.replayCommand(ev, 0)
			}
			m.recovery.SnapshotSessions = len(m.sessions)
		}
		m.recovery.SnapshotSessions += len(doc.Sessions)
		ids := make([]string, 0, len(doc.Sessions))
		for id := range doc.Sessions {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			hist := doc.Sessions[id]
			ms, err := m.buildManaged(id, hist.Create)
			if err != nil {
				m.replayError(fmt.Sprintf("snapshot session %s: %v", id, err))
				continue
			}
			m.sessions[id] = ms
			m.histories[id] = hist
			for _, ev := range hist.Events {
				if err := ms.replay(ev); err != nil {
					m.replayError(fmt.Sprintf("snapshot session %s op %s: %v", id, ev.Op, err))
				}
			}
		}
	}
	for _, r := range rec.Records {
		var ev walEvent
		if err := json.Unmarshal(r.Data, &ev); err != nil {
			m.replayError(fmt.Sprintf("journal seq %d: %v", r.Seq, err))
			continue
		}
		m.replayCommand(ev, r.Seq)
	}
	m.recovery.Sessions = len(m.sessions)
	cfg.Counters.Add(metrics.CounterRecoverySessions, int64(len(m.sessions)))
	return m, nil
}

// replayError records one failed replay without aborting recovery: the
// affected session stays at its last good state.
func (m *Manager) replayError(msg string) {
	m.recovery.ReplayErrors = append(m.recovery.ReplayErrors, msg)
	m.cfg.Counters.Inc(metrics.CounterRecoveryErrors)
}

// replayCommand re-applies one journaled command during recovery.
func (m *Manager) replayCommand(ev walEvent, seq uint64) {
	// Any record after a reevaluate proves its replan ran (or was
	// skipped live), so only the last one can owe it.
	m.owedReplan = ""
	switch ev.Op {
	case "create":
		if ev.Create == nil {
			m.replayError(fmt.Sprintf("journal seq %d: create without spec", seq))
			return
		}
		var (
			ms  *Managed
			err error
		)
		if m.cfg.Storm {
			ms, err = m.buildAttached(ev.ID, *ev.Create)
		} else {
			ms, err = m.buildManaged(ev.ID, *ev.Create)
		}
		if err != nil {
			m.replayError(fmt.Sprintf("journal seq %d: create %s: %v", seq, ev.ID, err))
			return
		}
		m.sessions[ev.ID] = ms
		if !m.cfg.Storm {
			m.histories[ev.ID] = &sessionHistory{Create: *ev.Create}
		}
		m.bumpSeq(ev.ID)
	case "fault", "reevaluate":
		ms := m.sessions[ev.ID]
		if ms == nil {
			m.replayError(fmt.Sprintf("journal seq %d: %s against unknown session %s", seq, ev.Op, ev.ID))
			return
		}
		if err := ms.replay(ev); err != nil {
			m.replayError(fmt.Sprintf("journal seq %d: %s %s: %v", seq, ev.Op, ev.ID, err))
			return
		}
		if ev.Op == "reevaluate" && ms.attached {
			m.owedReplan = ms.classKey
		}
		if h := m.histories[ev.ID]; h != nil {
			h.Events = append(h.Events, ev)
		}
	case "delete":
		if ms := m.sessions[ev.ID]; ms != nil {
			if ms.attached {
				if err := m.storm.DetachSession(ev.ID); err != nil {
					m.replayError(fmt.Sprintf("journal seq %d: detach %s: %v", seq, ev.ID, err))
				}
			} else {
				ms.sess.Close()
				ms.qosDrop()
			}
		}
		delete(m.sessions, ev.ID)
		delete(m.histories, ev.ID)
	case "storm":
		// A storm controller record that journaled through the sink;
		// hand it back for replay (fan-outs re-apply their recorded
		// plans — no Select).
		if m.storm == nil {
			m.replayError(fmt.Sprintf("journal seq %d: storm record without storm mode", seq))
			return
		}
		if err := m.storm.ReplayRecord(ev.Kind, ev.Data); err != nil {
			m.replayError(fmt.Sprintf("journal seq %d: storm %s: %v", seq, ev.Kind, err))
		}
	default:
		m.replayError(fmt.Sprintf("journal seq %d: unknown op %q", seq, ev.Op))
	}
}

// replay re-applies one command against a session being rebuilt. The
// session's own error returns (a failed reevaluate under partition, say)
// are part of its deterministic behavior, not replay failures.
func (ms *Managed) replay(ev walEvent) error {
	if ms.attached {
		return ms.replayAttached(ev)
	}
	switch ev.Op {
	case "fault":
		if ev.Fault == nil {
			return fmt.Errorf("fault command without fault")
		}
		return ms.applyFault(*ev.Fault)
	case "reevaluate":
		ms.sess.Tick()
		// The reason counter is part of the session's deterministic
		// counter state, so replay must increment it exactly as the live
		// command did (old journals carry no reason: no increment, same
		// as the live no-reason path never taken today).
		ms.sess.NoteReevaluateReason(ev.Reason)
		ms.sess.Reevaluate() //nolint:errcheck // deterministic session-level outcome, replayed as-is
		ms.qosNoteLocked()
		return nil
	default:
		return fmt.Errorf("unknown session op %q", ev.Op)
	}
}

// bumpSeq keeps the ID counter ahead of every replayed session ID.
func (m *Manager) bumpSeq(id string) {
	id = strings.TrimPrefix(id, m.cfg.IDPrefix)
	if n, err := strconv.Atoi(strings.TrimPrefix(id, "s")); err == nil && n > m.seq {
		m.seq = n
	}
}

// buildManaged constructs a session from its spec — the single path both
// live creation and replay go through, so they cannot diverge.
func (m *Manager) buildManaged(id string, spec CreateSpec) (*Managed, error) {
	return m.buildManagedCtx(context.Background(), id, spec)
}

// buildManagedCtx is buildManaged under a context carrying the creating
// request's trace (replay passes a background context — tracing never
// influences session state, so replayed sessions stay byte-identical).
func (m *Manager) buildManagedCtx(ctx context.Context, id string, spec CreateSpec) (*Managed, error) {
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
	net, err := overlay.FromProfile(set.Network)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	svcs := graph.CollectServices(set.Intermediaries)
	pool := fault.NewServiceSet(svcs)
	counters := metrics.NewCounters()
	sess, err := NewCtx(ctx, Config{
		Content:          &set.Content,
		Device:           &set.Device,
		Services:         svcs,
		Net:              net,
		SenderHost:       "sender",
		ReceiverHost:     set.Device.ID,
		ReserveBandwidth: spec.Reserve,
		Select: core.Config{
			Profile:      satProfile,
			Budget:       set.User.Budget,
			ReceiverCaps: set.Device.RenderCaps(),
		},
		Pool: pool,
		Failover: FailoverConfig{
			Enabled:           true,
			SatisfactionFloor: spec.Floor,
			JitterSeed:        spec.Seed,
			// Managed sessions run on a virtual clock; retries never
			// wall-clock sleep.
			Sleep: func(time.Duration) {},
			// The session's private counters stay authoritative (they are
			// part of the deterministic State/Fingerprint); the manager's
			// sink mirrors every write so daemon-wide registries see
			// failover.* activity too.
			Metrics: metrics.Fanout(counters, m.cfg.Counters),
		},
	})
	if err != nil {
		return nil, err
	}
	ms := &Managed{m: m, id: id, sess: sess, net: net, pool: pool, counters: counters}
	// The creation compose is the session's first SLO observation —
	// recorded here so live creates and replayed creates agree.
	ms.qosNoteLocked()
	return ms, nil
}

// journalCommand appends one command to the WAL and fsyncs (callers
// batching multiple commands rely on Log.Append's group commit), then
// compacts when due — in storm-attached mode not here but at the end of
// the command (snapshotIfDue), where the state is quiescent. Callers
// hold m.mu. A nil log is a no-op.
func (m *Manager) journalCommand(ev walEvent) error {
	if m.log == nil {
		return nil
	}
	data, err := json.Marshal(ev)
	if err != nil {
		return fmt.Errorf("session: encoding command: %w", err)
	}
	if _, err := m.log.Append(data); err != nil {
		return fmt.Errorf("%w: %w", ErrJournal, err)
	}
	m.eventsSince++
	if !m.cfg.Storm && m.snapshotDueLocked() {
		return m.snapshotLocked()
	}
	return nil
}

// snapshotDueLocked reports whether the compaction cadence has come
// round. Callers hold m.mu.
func (m *Manager) snapshotDueLocked() bool {
	return m.cfg.SnapshotEvery > 0 && m.eventsSince >= m.cfg.SnapshotEvery
}

// snapshotLocked publishes a compacting snapshot of the per-session
// histories (the default mode). Callers hold m.mu.
func (m *Manager) snapshotLocked() error {
	if m.log == nil {
		return nil
	}
	doc := snapshotDoc{Seq: m.seq, Sessions: m.histories}
	data, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("session: encoding snapshot: %w", err)
	}
	if err := m.log.Snapshot(data); err != nil {
		return fmt.Errorf("%w: %w", ErrJournal, err)
	}
	m.eventsSince = 0
	return nil
}

// Recovery returns the startup recovery report (empty for an in-memory
// manager).
func (m *Manager) Recovery() *RecoveryReport {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.recovery
}

// LastSeq returns the journal position (0 for an in-memory manager).
func (m *Manager) LastSeq() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.log == nil {
		return 0
	}
	return m.log.LastSeq()
}

// Persistent reports whether the manager journals its commands.
func (m *Manager) Persistent() bool { return m.log != nil }

// Create validates the spec, composes the session, and journals the
// creation. The session is live (state applied) even when journaling
// fails — the caller sees the error and the process is expected to die,
// exactly like a crash between apply and log.
func (m *Manager) Create(spec CreateSpec) (*Managed, error) {
	return m.CreateCtx(context.Background(), spec)
}

// CreateCtx is Create under a context: a trace carried by the context
// records the composition and journal-append spans of the creation.
func (m *Manager) CreateCtx(ctx context.Context, spec CreateSpec) (*Managed, error) {
	if m.cfg.Storm {
		return m.createAttachedCtx(ctx, spec)
	}
	ms, err := m.buildManagedCtx(ctx, "", spec)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.seq++
	ms.id = fmt.Sprintf("%ss%d", m.cfg.IDPrefix, m.seq)
	m.sessions[ms.id] = ms
	m.histories[ms.id] = &sessionHistory{Create: spec}
	if err := m.journalTraced(ctx, walEvent{Op: "create", ID: ms.id, Create: &spec}); err != nil {
		return ms, err
	}
	return ms, nil
}

// journalTraced wraps journalCommand in a "journal.append" span when the
// context carries a trace. Callers hold m.mu.
func (m *Manager) journalTraced(ctx context.Context, ev walEvent) error {
	sp := trace.FromContext(ctx).StartSpan("journal.append", trace.Str("op", ev.Op))
	err := m.journalCommand(ev)
	if err != nil {
		sp.End(trace.Str("outcome", "error"))
		return err
	}
	sp.End()
	return nil
}

// Get returns a session by ID.
func (m *Manager) Get(id string) (*Managed, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ms, ok := m.sessions[id]
	return ms, ok
}

// List returns every session, sorted by ID.
func (m *Manager) List() []*Managed {
	m.mu.Lock()
	all := make([]*Managed, 0, len(m.sessions))
	for _, ms := range m.sessions {
		all = append(all, ms)
	}
	m.mu.Unlock()
	sort.Slice(all, func(i, j int) bool { return all[i].id < all[j].id })
	return all
}

// Delete tears a session down, releasing its bandwidth holds, and
// journals the deletion. It reports whether the session existed.
func (m *Manager) Delete(id string) (bool, error) {
	if m.cfg.Storm {
		return m.deleteAttached(id)
	}
	m.mu.Lock()
	ms, ok := m.sessions[id]
	if !ok {
		m.mu.Unlock()
		return false, nil
	}
	delete(m.sessions, id)
	delete(m.histories, id)
	err := m.journalCommand(walEvent{Op: "delete", ID: id})
	m.mu.Unlock()
	ms.mu.Lock()
	ms.sess.Close()
	ms.qosDrop()
	ms.mu.Unlock()
	return true, err
}

// Close snapshots (compacting the journal to the live sessions) and
// closes the log. Sessions stay usable in memory. A storm-attached
// manager whose journal holds an unfinished storm skips the snapshot,
// so the next open resumes that storm.
func (m *Manager) Close() error {
	if m.log == nil {
		return nil
	}
	var err error
	if m.cfg.Storm {
		m.attachMu.Lock()
		defer m.attachMu.Unlock()
		err = m.snapshotStorm(true)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.cfg.Storm {
		err = m.snapshotLocked()
	}
	if cerr := m.log.Close(); err == nil {
		err = cerr
	}
	return err
}

// ID returns the session's identifier.
func (ms *Managed) ID() string { return ms.id }

// Counters returns the session's private failover counters.
func (ms *Managed) Counters() *metrics.Counters { return ms.counters }

// Net returns the session's private overlay.
func (ms *Managed) Net() *overlay.Network { return ms.net }

// Pool returns the session's private service pool.
func (ms *Managed) Pool() *fault.ServiceSet { return ms.pool }

// Held returns the session's live bandwidth reservations.
func (ms *Managed) Held() []overlay.Reservation {
	if ms.attached {
		v, _ := ms.m.storm.MemberState(ms.id)
		return v.Held
	}
	ms.mu.Lock()
	defer ms.mu.Unlock()
	return ms.sess.Held()
}

// ApplyFault injects one fault against the session's private overlay and
// pool, journaling it on success.
func (ms *Managed) ApplyFault(f fault.Fault) error {
	return ms.ApplyFaultCtx(context.Background(), f)
}

// ApplyFaultCtx is ApplyFault under a context carrying the request trace.
func (ms *Managed) ApplyFaultCtx(ctx context.Context, f fault.Fault) error {
	if ms.attached {
		return ms.applyFaultAttachedCtx(ctx, f)
	}
	ms.mu.Lock()
	defer ms.mu.Unlock()
	if err := ms.applyFault(f); err != nil {
		return err
	}
	ms.m.mu.Lock()
	defer ms.m.mu.Unlock()
	ev := walEvent{Op: "fault", ID: ms.id, Fault: &f}
	if h := ms.m.histories[ms.id]; h != nil {
		h.Events = append(h.Events, ev)
	}
	return ms.m.journalTraced(ctx, ev)
}

// applyFault mutates the overlay/pool. Callers hold ms.mu.
func (ms *Managed) applyFault(f fault.Fault) error {
	switch f.Kind {
	case fault.HostCrash:
		if err := ms.net.FailHost(f.Host); err != nil {
			return err
		}
		ms.pool.SetHostDown(f.Host, true)
	case fault.HostRecover:
		if err := ms.net.RecoverHost(f.Host); err != nil {
			return err
		}
		ms.pool.SetHostDown(f.Host, false)
	case fault.LinkDown:
		return ms.net.FailLink(f.From, f.To)
	case fault.LinkUp:
		return ms.net.RecoverLink(f.From, f.To)
	case fault.BandwidthCollapse:
		for _, l := range ms.net.Snapshot().Links {
			if l.From == f.From && l.To == f.To {
				return ms.net.SetBandwidth(f.From, f.To, l.BandwidthKbps*f.Factor)
			}
		}
		return fmt.Errorf("session: no link %s->%s", f.From, f.To)
	case fault.LossSpike:
		return ms.net.SetLoss(f.From, f.To, f.LossRate)
	case fault.DelaySpike:
		return ms.net.SetDelay(f.From, f.To, f.DelayMs)
	case fault.ServiceDown:
		ms.pool.SetServiceDown(f.Service, true)
	case fault.ServiceUp:
		ms.pool.SetServiceDown(f.Service, false)
	default:
		return fmt.Errorf("session: unsupported fault kind %q", f.Kind)
	}
	return nil
}

// Reevaluate advances the session one step and re-evaluates its chain,
// journaling the command. evalErr is the session-level outcome (part of
// the deterministic state machine, surfaced to the client); logErr is a
// durability failure.
func (ms *Managed) Reevaluate() (changed bool, evalErr, logErr error) {
	return ms.ReevaluateCtx(context.Background())
}

// ReevaluateCtx is Reevaluate under a context: a trace carried by the
// context records the re-composition's selection, failover and journal
// spans. The command is attributed to the "manual" reason; fault
// handling and the storm controller use ReevaluateReasonCtx.
func (ms *Managed) ReevaluateCtx(ctx context.Context) (changed bool, evalErr, logErr error) {
	return ms.ReevaluateReasonCtx(ctx, ReevalManual)
}

// ReevaluateReason is Reevaluate with an explicit cause attribution —
// one of ReevalManual, ReevalFault or ReevalStorm — journaled with the
// command and surfaced in the failover.reevaluate_* counters.
func (ms *Managed) ReevaluateReason(reason string) (changed bool, evalErr, logErr error) {
	return ms.ReevaluateReasonCtx(context.Background(), reason)
}

// ReevaluateReasonCtx is ReevaluateReason under a context.
func (ms *Managed) ReevaluateReasonCtx(ctx context.Context, reason string) (changed bool, evalErr, logErr error) {
	if ms.attached {
		return ms.reevaluateAttachedCtx(ctx, reason)
	}
	ms.mu.Lock()
	defer ms.mu.Unlock()
	ms.sess.Tick()
	ms.sess.NoteReevaluateReason(reason)
	changed, evalErr = ms.sess.ReevaluateCtx(ctx)
	ms.qosNoteLocked()
	ms.m.mu.Lock()
	defer ms.m.mu.Unlock()
	ev := walEvent{Op: "reevaluate", ID: ms.id, Reason: reason}
	if h := ms.m.histories[ms.id]; h != nil {
		h.Events = append(h.Events, ev)
	}
	logErr = ms.m.journalTraced(ctx, ev)
	return changed, evalErr, logErr
}

// State is the externally visible, deterministic state of one managed
// session — what /v1/sessions serves and what the crash harness compares
// byte-for-byte across a crash and recovery.
type State struct {
	ID             string             `json:"id"`
	Path           []string           `json:"path"`
	Formats        []string           `json:"formats"`
	Satisfaction   float64            `json:"satisfaction"`
	Cost           float64            `json:"cost"`
	Step           int                `json:"step"`
	Recompositions int                `json:"recompositions"`
	Failover       FailoverStatus     `json:"failover"`
	DownHosts      []string           `json:"downHosts,omitempty"`
	DownServices   []string           `json:"downServices,omitempty"`
	History        []Change           `json:"history,omitempty"`
	Reserved       map[string]float64 `json:"reserved,omitempty"`
	Counters       map[string]int64   `json:"counters,omitempty"`
}

// State snapshots the session.
func (ms *Managed) State() State {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	return ms.stateLocked()
}

func (ms *Managed) stateLocked() State {
	if ms.attached {
		return ms.attachedStateLocked()
	}
	res := ms.sess.Result()
	st := State{
		ID:             ms.id,
		Satisfaction:   res.Satisfaction,
		Cost:           res.Cost,
		Step:           ms.sess.CurrentStep(),
		Recompositions: ms.sess.Recompositions(),
		Failover:       ms.sess.FailoverStatus(),
		DownHosts:      ms.net.DownHosts(),
		History:        ms.sess.History(),
		Reserved:       ms.sess.Reserved(),
		Counters:       ms.counters.Snapshot(),
	}
	sort.Strings(st.DownHosts)
	for _, id := range res.Path {
		st.Path = append(st.Path, string(id))
	}
	for _, f := range res.Formats {
		st.Formats = append(st.Formats, f.String())
	}
	for _, id := range ms.pool.Down() {
		st.DownServices = append(st.DownServices, string(id))
	}
	sort.Strings(st.DownServices)
	return st
}

// Fingerprint renders the session state as canonical JSON — the
// byte-identity token the crash harness compares across restarts.
func (ms *Managed) Fingerprint() (string, error) {
	data, err := json.Marshal(ms.State())
	return string(data), err
}

// Reconcile sweeps every session after recovery: a session whose chain
// crosses a dead host or whose bandwidth holds sit on dead links is
// pushed through the ordinary failover re-composition, which releases
// the stale holds and re-reserves under the new chain (or degrades
// gracefully). The sweep's commands journal like any other, so a second
// crash replays the reconciled state. The report is also recorded on the
// recovery report.
func (m *Manager) Reconcile() *ReconcileReport {
	if m.cfg.Storm {
		return m.reconcileStorm()
	}
	rep := &ReconcileReport{}
	for _, ms := range m.List() {
		rep.Checked++
		ms.mu.Lock()
		stale := 0.0
		for _, r := range ms.sess.Held() {
			if !ms.net.Usable(r.From, r.To) {
				stale += r.Kbps
			}
		}
		broken := stale > 0
		if !broken {
			for _, h := range ms.sess.Hosts() {
				if ms.net.HostDown(h) {
					broken = true
					break
				}
			}
		}
		ms.mu.Unlock()
		if !broken {
			continue
		}
		ms.ReevaluateReason(ReevalFault) //nolint:errcheck // degraded outcomes land in the session state
		rep.Recomposed++
		rep.ReleasedKbps += stale
		rep.Sessions = append(rep.Sessions, ms.id)
		m.cfg.Counters.Inc(metrics.CounterRecoveryReconciled)
		if stale > 0 {
			m.cfg.Counters.Observe(metrics.SampleRecoveryReleasedKbps, stale)
		}
	}
	sort.Strings(rep.Sessions)
	m.mu.Lock()
	m.recovery.Reconcile = rep
	m.mu.Unlock()
	return rep
}
