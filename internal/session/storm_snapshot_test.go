package session

// storm_snapshot_test.go covers storm-attached durability at scale and
// under failure: snapshots are materialized live state (bounded by the
// live population, not by lifetime traffic), they are only cut at
// quiescent command boundaries, and every recovery path — reopen, crash
// at any journal failpoint, follower bootstrap, legacy ordered-log
// snapshots — lands on exactly the state the live manager had.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"qoschain/internal/fault"
	"qoschain/internal/journal"
	"qoschain/internal/metrics"
)

// stormState is everything a storm-attached manager's recovery must
// reproduce: each session's canonical state and the controller's.
type stormState struct {
	sessions map[string]string
	ctrl     string
}

func captureStorm(t *testing.T, m *Manager) stormState {
	t.Helper()
	ctrl, err := m.StormController().Fingerprint()
	if err != nil {
		t.Fatalf("controller fingerprint: %v", err)
	}
	return stormState{sessions: fingerprints(t, m), ctrl: ctrl}
}

// diff describes the first difference between two states ("" when equal).
func (a stormState) diff(b stormState) string {
	if len(a.sessions) != len(b.sessions) {
		return fmt.Sprintf("%d sessions vs %d", len(a.sessions), len(b.sessions))
	}
	for id, fp := range a.sessions {
		if b.sessions[id] != fp {
			return fmt.Sprintf("session %s:\n %s\n %s", id, fp, b.sessions[id])
		}
	}
	if a.ctrl != b.ctrl {
		return fmt.Sprintf("controller:\n %s\n %s", a.ctrl, b.ctrl)
	}
	return ""
}

// reopenStorm recovers a storm-attached manager from dir and runs its
// post-recovery sweep, failing on any replay error or leaked kbps.
func reopenStorm(t *testing.T, dir string) *Manager {
	t.Helper()
	m := newPersistent(t, dir, ManagerConfig{Storm: true, Counters: metrics.NewCounters()})
	m.Reconcile()
	if errs := m.Recovery().ReplayErrors; len(errs) != 0 {
		t.Fatalf("replay errors: %v", errs)
	}
	if leak := stormLeak(m); leak != 0 {
		t.Fatalf("recovered leak of %v kbps", leak)
	}
	return m
}

// crashImage copies m's state directory as a process death would leave
// it: every fsynced file, with nothing closed or snapshotted. It first
// waits out a snapshot write in flight, whose renames and deletions a
// file-by-file copy could otherwise straddle.
func crashImage(t *testing.T, m *Manager, dir string) string {
	t.Helper()
	m.publishing.Wait()
	dst := t.TempDir()
	if err := copyFiles(dir, dst); err != nil {
		t.Fatal(err)
	}
	return dst
}

// copyFiles copies the regular files of src into dst.
func copyFiles(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		in, err := os.Open(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		out, err := os.Create(filepath.Join(dst, e.Name()))
		if err == nil {
			_, err = io.Copy(out, in)
			out.Close()
		}
		in.Close()
		if err != nil {
			return err
		}
	}
	return nil
}

// TestStormFaultRacesCreateDelete faults the shared region while other
// goroutines create and delete sessions in it. Under -race it pins the
// storm report's member count to the controller lock; the ledger must
// balance and every survivor stay attached.
func TestStormFaultRacesCreateDelete(t *testing.T) {
	m, _ := newStormManager(t)
	anchor, err := m.Create(CreateSpec{Set: stormSet(), Floor: 0.3})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	const rounds, creators = 400, 4
	var wg sync.WaitGroup
	wg.Add(1 + creators)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			// Alternate the two proxies' uplinks so every class is hit.
			to := []string{"p1", "p2"}[i%2]
			f := fault.Fault{Kind: fault.LossSpike, From: "sender", To: to, LossRate: float64(i%4) / 100}
			if err := anchor.ApplyFault(f); err != nil {
				t.Errorf("fault: %v", err)
				return
			}
		}
	}()
	for g := 0; g < creators; g++ {
		go func(floor float64) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				ms, err := m.Create(CreateSpec{Set: stormSet(), Floor: floor})
				if err != nil {
					t.Errorf("create: %v", err)
					return
				}
				if ok, err := m.Delete(ms.ID()); !ok || err != nil {
					t.Errorf("delete: ok=%v err=%v", ok, err)
					return
				}
			}
		}(0.3 + 0.1*float64(g%3))
	}
	wg.Wait()
	if leak := stormLeak(m); leak != 0 {
		t.Fatalf("leak of %v kbps", leak)
	}
	if n := m.StormController().Sessions(); n != 1 {
		t.Fatalf("controller holds %d members, want only the anchor", n)
	}
}

// TestStormChurnBoundedState is the bounded-state gate: a durable
// manager at the default snapshot cadence churns 2000 create/delete
// pairs (with periodic loss faults and their inverses) around 8 live
// sessions. The snapshot and the replay a reopen does must stay the
// size the live population dictates — the same after 2000 pairs as
// after 200 — and every reopen must land on the live state exactly.
func TestStormChurnBoundedState(t *testing.T) {
	dir := t.TempDir()
	m := newPersistent(t, dir, ManagerConfig{Storm: true, Counters: metrics.NewCounters()})
	floors := []float64{0.3, 0.4, 0.5, 0.6}
	var live []*Managed
	for i := 0; i < 8; i++ {
		ms, err := m.Create(CreateSpec{Set: stormSet(), Floor: floors[i%len(floors)]})
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		live = append(live, ms)
	}
	pairs := 0
	churn := func(to int) {
		for ; pairs < to; pairs++ {
			if pairs%50 == 25 {
				for _, rate := range []float64{0.05, 0} {
					f := fault.Fault{Kind: fault.LossSpike, From: "sender", To: "p1", LossRate: rate}
					if err := live[pairs%len(live)].ApplyFault(f); err != nil {
						t.Fatalf("pair %d: fault: %v", pairs, err)
					}
				}
			}
			ms, err := m.Create(CreateSpec{Set: stormSet(), Floor: floors[pairs%len(floors)]})
			if err != nil {
				t.Fatalf("pair %d: create: %v", pairs, err)
			}
			if ok, err := m.Delete(ms.ID()); !ok || err != nil {
				t.Fatalf("pair %d: delete: ok=%v err=%v", pairs, ok, err)
			}
		}
	}
	// checkpoint compares a crash image and a clean reopen with the live
	// state, and returns the clean snapshot's payload size and the
	// clean reopen's replayed-record count. The manager continues from
	// the clean reopen.
	checkpoint := func() (payload, replayed int) {
		want := captureStorm(t, m)
		crashed := reopenStorm(t, crashImage(t, m, dir))
		if d := want.diff(captureStorm(t, crashed)); d != "" {
			t.Fatalf("after %d pairs, crash-image reopen diverged: %s", pairs, d)
		}
		// The journal suffix a crash leaves is bounded by the snapshot
		// cadence (plus one command's storm records), not by traffic.
		if n := crashed.Recovery().JournalRecords; n > 2*64 {
			t.Fatalf("after %d pairs, crash recovery replayed %d records", pairs, n)
		}
		crashed.Close()
		if err := m.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		snap, _, err := journal.LatestSnapshot(dir)
		if err != nil || snap == nil {
			t.Fatalf("latest snapshot: %v", err)
		}
		m = reopenStorm(t, dir)
		if d := want.diff(captureStorm(t, m)); d != "" {
			t.Fatalf("after %d pairs, reopen diverged: %s", pairs, d)
		}
		live = m.List()
		return len(snap.Data), m.Recovery().JournalRecords
	}

	churn(200)
	payload200, replayed200 := checkpoint()
	churn(2000)
	payload2000, replayed2000 := checkpoint()
	defer m.Close()
	within := func(a, b int) bool { return 10*abs(a-b) <= b }
	if !within(payload2000, payload200) {
		t.Errorf("snapshot payload grew with traffic: %d B after 200 pairs, %d B after 2000", payload200, payload2000)
	}
	if !within(replayed2000, replayed200) {
		t.Errorf("reopen replay grew with traffic: %d records after 200 pairs, %d after 2000", replayed200, replayed2000)
	}
}

func abs(n int) int {
	if n < 0 {
		return -n
	}
	return n
}

// stormCommand issues one seeded command against a storm-attached
// manager: create, a fault or its inverse (loss spike, bandwidth
// collapse, link down/up on one proxy's leg), reevaluate, or delete.
// The choice depends only on the rng and the manager's live state, so
// two managers in the same state fed the same rng stay in step. It
// returns the first error the command surfaced.
func stormCommand(m *Manager, rng *rand.Rand) error {
	list := m.List()
	op := rng.Intn(10)
	if len(list) < 2 {
		op = 0
	}
	switch {
	case op < 3:
		_, err := m.Create(CreateSpec{Set: stormSet(), Floor: []float64{0.3, 0.5}[rng.Intn(2)]})
		return err
	case op < 6:
		ms := list[rng.Intn(len(list))]
		faults := []fault.Fault{
			{Kind: fault.LossSpike, From: "sender", To: "p1", LossRate: 0.05},
			{Kind: fault.LossSpike, From: "sender", To: "p1", LossRate: 0},
			{Kind: fault.BandwidthCollapse, From: "sender", To: "p2", Factor: 0.5},
			{Kind: fault.BandwidthCollapse, From: "sender", To: "p2", Factor: 2},
			{Kind: fault.LinkDown, From: "p1", To: "d"},
			{Kind: fault.LinkUp, From: "p1", To: "d"},
		}
		return ms.ApplyFault(faults[rng.Intn(len(faults))])
	case op < 8:
		_, evalErr, logErr := list[rng.Intn(len(list))].ReevaluateReason(ReevalManual)
		return errors.Join(evalErr, logErr)
	default:
		_, err := m.Delete(list[rng.Intn(len(list))].ID())
		return err
	}
}

// TestStormCrashAtEveryFailpoint arms each journal failpoint at every
// hit a seeded storm-mode command stream reaches (snapshot cadence 5,
// so the snapshot points fire too), crashes there, and checks that the
// reopened manager equals a crash-free reference over the committed
// prefix: the crashed command counts when its own record reached the
// journal (an interrupted storm is finished by Reconcile), and not
// otherwise.
func TestStormCrashAtEveryFailpoint(t *testing.T) {
	const seed, commands, every = 7, 24, 5
	refDir := t.TempDir()
	counts := journal.NewFailPoints()
	ref := newPersistent(t, refDir, ManagerConfig{Storm: true, SnapshotEvery: every, FailPoints: counts})
	rng := rand.New(rand.NewSource(seed))
	states := []stormState{captureStorm(t, ref)}
	for i := 0; i < commands; i++ {
		if err := stormCommand(ref, rng); err != nil && errors.Is(err, ErrJournal) {
			t.Fatalf("reference command %d: %v", i, err)
		}
		states = append(states, captureStorm(t, ref))
	}
	hitsOf := map[journal.FailPoint]int{}
	for _, point := range journal.AllFailPoints {
		hitsOf[point] = counts.Hits(point)
	}
	ref.Close()

	for _, point := range journal.AllFailPoints {
		hits := hitsOf[point]
		if hits == 0 {
			t.Fatalf("failpoint %s never reached by the reference stream", point)
		}
		for hit := 1; hit <= hits; hit++ {
			dir := t.TempDir()
			fp := journal.NewFailPoints()
			fp.Arm(point, hit)
			m := newPersistent(t, dir, ManagerConfig{Storm: true, SnapshotEvery: every, FailPoints: fp})
			rng := rand.New(rand.NewSource(seed))
			crashedAt, committed := -1, uint64(0)
			for i := 0; i < commands; i++ {
				committed = m.LastSeq()
				if err := stormCommand(m, rng); journal.IsCrash(err) {
					crashedAt = i
					break
				}
			}
			if crashedAt < 0 {
				// A background snapshot write that crashed after the last
				// command surfaces at Close.
				committed = m.LastSeq()
				if err := m.Close(); journal.IsCrash(err) {
					crashedAt = commands
				}
			} else {
				m.Close() //nolint:errcheck // the journal is dead; this only releases files
			}
			if crashedAt < 0 {
				t.Fatalf("%s hit %d: failpoint never fired", point, hit)
			}
			back := reopenStorm(t, dir)
			want := states[crashedAt]
			if back.Recovery().LastSeq > committed {
				want = states[crashedAt+1]
			}
			if d := want.diff(captureStorm(t, back)); d != "" {
				t.Fatalf("%s hit %d (command %d): recovered state diverged: %s", point, hit, crashedAt, d)
			}
			back.Close()
		}
	}
}

// TestStormConcurrentSnapshotConsistency runs 8 goroutines cycling
// create → fault → reevaluate → inverse fault → delete (half of them
// through a BandwidthCollapse, which multiplies the current bandwidth
// and so exposes any snapshot cut between a fault's mutation and its
// append) on a durable manager that snapshots every 4 records. An
// auditor repeatedly takes the command lock, lets a snapshot write in
// flight finish, and copies the state directory: with no command in
// flight, each crash image must recover exactly the live state of that
// instant. After the run, a crash image
// and a clean reopen must both recover the final state.
func TestStormConcurrentSnapshotConsistency(t *testing.T) {
	dir := t.TempDir()
	m := newPersistent(t, dir, ManagerConfig{Storm: true, SnapshotEvery: 4, Counters: metrics.NewCounters()})
	const workers, cycles, audits = 8, 6, 24
	type audit struct {
		want stormState
		dir  string
	}
	var (
		wg      sync.WaitGroup
		audited []audit
	)
	done := make(chan struct{})
	auditRoot := t.TempDir()
	auditorDone := make(chan error, 1)
	go func() {
		for i := 0; i < audits; i++ {
			select {
			case <-done:
				auditorDone <- nil
				return
			case <-time.After(2 * time.Millisecond):
			}
			img := filepath.Join(auditRoot, fmt.Sprint(i))
			if err := os.Mkdir(img, 0o755); err != nil {
				auditorDone <- err
				return
			}
			m.attachMu.Lock()
			m.publishing.Wait()
			ctrl, err := m.StormController().Fingerprint()
			a := audit{want: stormState{sessions: map[string]string{}, ctrl: ctrl}, dir: img}
			for _, ms := range m.List() {
				if err == nil {
					a.want.sessions[ms.ID()], err = ms.Fingerprint()
				}
			}
			if err == nil {
				err = copyFiles(dir, img)
			}
			m.attachMu.Unlock()
			if err != nil {
				auditorDone <- err
				return
			}
			audited = append(audited, a)
		}
		auditorDone <- nil
	}()
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			hit, undo := fault.Fault{Kind: fault.LossSpike, From: "sender", To: "p1", LossRate: 0.05},
				fault.Fault{Kind: fault.LossSpike, From: "sender", To: "p1"}
			if g%2 == 0 {
				hit, undo = fault.Fault{Kind: fault.BandwidthCollapse, From: "sender", To: "p2", Factor: 0.5},
					fault.Fault{Kind: fault.BandwidthCollapse, From: "sender", To: "p2", Factor: 2}
			}
			for i := 0; i < cycles; i++ {
				ms, err := m.Create(CreateSpec{Set: stormSet(), Floor: 0.3 + 0.1*float64(g%3)})
				if err != nil {
					t.Errorf("create: %v", err)
					return
				}
				if err := ms.ApplyFault(hit); err != nil {
					t.Errorf("fault: %v", err)
					return
				}
				if _, _, logErr := ms.ReevaluateReason(ReevalManual); logErr != nil {
					t.Errorf("reevaluate: %v", logErr)
					return
				}
				if err := ms.ApplyFault(undo); err != nil {
					t.Errorf("inverse fault: %v", err)
					return
				}
				if i == cycles-1 {
					return // the last session of each worker stays live
				}
				if ok, err := m.Delete(ms.ID()); !ok || err != nil {
					t.Errorf("delete: ok=%v err=%v", ok, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(done)
	if err := <-auditorDone; err != nil {
		t.Fatalf("auditor: %v", err)
	}
	if t.Failed() {
		return
	}
	for i, a := range audited {
		back := reopenStorm(t, a.dir)
		if d := a.want.diff(captureStorm(t, back)); d != "" {
			t.Fatalf("audit %d: crash image diverged from the quiescent live state: %s", i, d)
		}
		back.Close()
	}
	want := captureStorm(t, m)
	if len(want.sessions) != workers {
		t.Fatalf("%d live sessions, want %d", len(want.sessions), workers)
	}
	crashed := reopenStorm(t, crashImage(t, m, dir))
	if d := want.diff(captureStorm(t, crashed)); d != "" {
		t.Fatalf("crash-image reopen diverged: %s", d)
	}
	crashed.Close()
	if err := m.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	back := reopenStorm(t, dir)
	defer back.Close()
	if d := want.diff(captureStorm(t, back)); d != "" {
		t.Fatalf("reopen diverged: %s", d)
	}
}

// TestStormReadShipFallsBackToSnapshot is the storm-mode follower
// catch-up: a follower whose offset was compacted away bootstraps from
// the shipped materialized snapshot plus the journal suffix and reaches
// the primary's session and controller fingerprints.
func TestStormReadShipFallsBackToSnapshot(t *testing.T) {
	primary := newPersistent(t, t.TempDir(), ManagerConfig{Storm: true, IDPrefix: "n1-", SnapshotEvery: 3})
	defer primary.Close()
	var all []*Managed
	for i := 0; i < 4; i++ {
		ms, err := primary.Create(CreateSpec{Set: stormSet(), Floor: []float64{0.3, 0.5}[i%2]})
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, ms)
	}
	if err := all[0].ApplyFault(fault.Fault{Kind: fault.BandwidthCollapse, From: "sender", To: "p1", Factor: 0.5}); err != nil {
		t.Fatal(err)
	}
	if _, _, logErr := all[1].Reevaluate(); logErr != nil {
		t.Fatal(logErr)
	}
	// One create after the last snapshot leaves a journal suffix.
	if _, err := primary.Create(CreateSpec{Set: stormSet(), Floor: 0.3}); err != nil {
		t.Fatal(err)
	}

	b, err := primary.ReadShip(0, 0)
	if err != nil {
		t.Fatalf("ReadShip after compaction: %v", err)
	}
	if b.Snapshot == nil || len(b.Records) == 0 {
		t.Fatalf("want a snapshot plus a suffix, got snapshot=%v records=%d", b.Snapshot != nil, len(b.Records))
	}
	var doc snapshotDoc
	if err := json.Unmarshal(b.Snapshot.Data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Storm == nil || doc.Ordered != nil {
		t.Fatalf("shipped snapshot is not materialized: storm=%v ordered=%d", doc.Storm != nil, len(doc.Ordered))
	}

	rdir := t.TempDir()
	if err := journal.Bootstrap(rdir, b.Snapshot); err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	replica := newPersistent(t, rdir, ManagerConfig{Storm: true, IDPrefix: "n1-", SnapshotEvery: -1})
	defer replica.Close()
	if _, err := replica.ApplyReplicated(b.Records); err != nil {
		t.Fatalf("apply post-snapshot records: %v", err)
	}
	if errs := replica.Recovery().ReplayErrors; len(errs) != 0 {
		t.Fatalf("replay errors: %v", errs)
	}
	if d := captureStorm(t, primary).diff(captureStorm(t, replica)); d != "" {
		t.Fatalf("follower diverged after snapshot bootstrap: %s", d)
	}
}

// TestStormLegacyOrderedSnapshotRecovers opens a state directory whose
// snapshot is the ordered command log earlier storm-mode managers
// wrote: recovery replays it, and the next snapshot is materialized.
func TestStormLegacyOrderedSnapshotRecovers(t *testing.T) {
	live, _ := newStormManager(t)
	var ordered []walEvent
	for i := 0; i < 3; i++ {
		spec := CreateSpec{Set: stormSet(), Floor: 0.3}
		ms, err := live.Create(spec)
		if err != nil {
			t.Fatal(err)
		}
		ordered = append(ordered, walEvent{Op: "create", ID: ms.ID(), Create: &spec})
	}
	data, err := json.Marshal(snapshotDoc{Seq: 3, Ordered: ordered})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := journal.Bootstrap(dir, &journal.Snapshot{Seq: uint64(len(ordered)), Data: data}); err != nil {
		t.Fatal(err)
	}
	m := reopenStorm(t, dir)
	if d := captureStorm(t, live).diff(captureStorm(t, m)); d != "" {
		t.Fatalf("legacy snapshot recovered a different state: %s", d)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	snap, _, err := journal.LatestSnapshot(dir)
	if err != nil || snap == nil {
		t.Fatalf("latest snapshot: %v", err)
	}
	var doc snapshotDoc
	if err := json.Unmarshal(snap.Data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Storm == nil || doc.Ordered != nil {
		t.Fatalf("snapshot after upgrade is not materialized: storm=%v ordered=%d", doc.Storm != nil, len(doc.Ordered))
	}
	back := reopenStorm(t, dir)
	defer back.Close()
	if d := captureStorm(t, live).diff(captureStorm(t, back)); d != "" {
		t.Fatalf("upgraded state dir recovered a different state: %s", d)
	}
}

// TestStormReevaluateCrashBeforeReplan kills the manager after a
// reevaluate's record is durable but before its class replan journals
// its storm-begin. The class was left on its failover proxy by a
// link-up no storm re-plans (the class no longer crosses the link), so
// the lost replan is the one that moves it back: Reconcile must run it,
// landing on the crash-free state.
func TestStormReevaluateCrashBeforeReplan(t *testing.T) {
	run := func(t *testing.T, crash bool) stormState {
		dir := t.TempDir()
		fp := journal.NewFailPoints()
		m := newPersistent(t, dir, ManagerConfig{Storm: true, FailPoints: fp, SnapshotEvery: -1})
		ms, err := m.Create(CreateSpec{Set: stormSet(), Floor: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		host, _ := chainProxy(t, ms)
		for _, kind := range []fault.Kind{fault.LinkDown, fault.LinkUp} {
			if err := ms.ApplyFault(fault.Fault{Kind: kind, From: host, To: "d"}); err != nil {
				t.Fatal(err)
			}
		}
		if moved, _ := chainProxy(t, ms); moved == host {
			t.Fatalf("class stayed on %s through its link failure", host)
		}
		if crash {
			// Hit +1 is the reevaluate record, +2 the replan's storm-begin.
			fp.Arm(journal.FPAppend, fp.Hits(journal.FPAppend)+2)
		}
		_, evalErr, logErr := ms.ReevaluateReason(ReevalManual)
		if !crash {
			if evalErr != nil || logErr != nil {
				t.Fatalf("reevaluate: eval=%v log=%v", evalErr, logErr)
			}
			if back, _ := chainProxy(t, ms); back != host {
				t.Fatalf("replan left the class on %s, want %s", back, host)
			}
			defer m.Close()
			return captureStorm(t, m)
		}
		if logErr != nil || !journal.IsCrash(evalErr) {
			t.Fatalf("want the replan to crash after a durable reevaluate: eval=%v log=%v", evalErr, logErr)
		}
		m.Close() //nolint:errcheck // the journal is dead; this only releases files
		back := reopenStorm(t, dir)
		defer back.Close()
		return captureStorm(t, back)
	}
	if d := run(t, false).diff(run(t, true)); d != "" {
		t.Fatalf("recovery lost the reevaluate's replan: %s", d)
	}
}
