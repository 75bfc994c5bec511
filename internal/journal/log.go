package journal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"qoschain/internal/metrics"
)

// Log manages one state directory: the newest snapshot plus a write-ahead
// journal of everything after it. Journal files are named by the
// sequence number they start after (wal-<baseSeq>.log), so recovery can
// order generations without trusting timestamps.
//
// Recovery algorithm (OpenLog):
//
//  1. Load the newest verifiable snapshot, skipping corrupt files and
//     abandoned temp files.
//  2. Scan every journal file in base-sequence order, verifying each
//     record's length, CRC32C and chain hash, truncating torn tails.
//  3. Replay only records with seq > snapshot seq, requiring exact
//     sequence continuity; a gap stops replay at the last trusted record.
//  4. Append into the newest journal file; delete the generations the
//     snapshot covers, and older snapshots, only after recovery fully
//     succeeded.
//
// A crash at any failpoint therefore loses at most the records that were
// never fsynced, never a committed one.
type Log struct {
	dir      string
	j        *Journal
	fp       *FailPoints
	counters *metrics.Counters
}

// Options tunes OpenLog.
type Options struct {
	// FailPoints injects deterministic crash sites; nil disables.
	FailPoints *FailPoints
	// Counters receives journal.* metrics; nil is a no-op sink.
	Counters *metrics.Counters
}

// Recovery reports what OpenLog reconstructed.
type Recovery struct {
	// SnapshotSeq is the sequence the loaded snapshot covers (0 without
	// a snapshot); SnapshotData is its payload (nil without one).
	SnapshotSeq  uint64
	SnapshotData []byte
	// Records is the journal suffix after the snapshot, in order.
	Records []Record
	// TruncatedBytes counts torn-tail bytes dropped across journal files.
	TruncatedBytes int64
	// Skipped names corrupt or stale files recovery ignored.
	Skipped []string
	// LastSeq is the sequence number the log resumes from.
	LastSeq uint64
}

// walName renders the canonical journal file name for a base sequence.
func walName(baseSeq uint64) string { return fmt.Sprintf("wal-%016d.log", baseSeq) }

// parseWalName extracts the base sequence from a journal file name.
func parseWalName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
		return 0, false
	}
	seq, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log"), 10, 64)
	return seq, err == nil
}

// OpenLog opens (or initializes) a state directory and recovers its
// contents. The returned Recovery is complete before any cleanup runs.
func OpenLog(dir string, opts Options) (*Log, *Recovery, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	rec := &Recovery{}

	snap, skipped, err := LatestSnapshot(dir)
	if err != nil {
		return nil, nil, err
	}
	rec.Skipped = skipped
	baseSeq, baseChain := uint64(0), Chain{}
	if snap != nil {
		rec.SnapshotSeq, rec.SnapshotData = snap.Seq, snap.Data
		baseSeq, baseChain = snap.Seq, snap.Chain
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	type wal struct {
		base uint64
		name string
	}
	var wals []wal
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if base, ok := parseWalName(e.Name()); ok {
			wals = append(wals, wal{base, e.Name()})
		}
	}
	sort.Slice(wals, func(i, j int) bool { return wals[i].base < wals[j].base })

	// Scan every generation oldest-first, replaying the suffix past the
	// snapshot with strict sequence continuity across files.
	lastSeq := baseSeq
	var lastValid string    // newest journal file that scanned cleanly
	var lastValidEnd uint64 // its last sequence
	var stale []string      // unreadable generations and ones the snapshot covers
	for _, w := range wals {
		path := filepath.Join(dir, w.name)
		sr, err := ScanFile(path)
		if err != nil {
			// A file whose header never hit the disk carries no records;
			// recovery notes and discards it.
			rec.Skipped = append(rec.Skipped, w.name)
			stale = append(stale, w.name)
			continue
		}
		rec.TruncatedBytes += sr.Truncated
		for _, r := range sr.Records {
			if r.Seq <= lastSeq {
				continue // already covered by the snapshot or a prior file
			}
			if r.Seq != lastSeq+1 {
				// A gap between generations: nothing after it can be
				// trusted to be complete.
				rec.Skipped = append(rec.Skipped, fmt.Sprintf("%s: gap at seq %d", w.name, r.Seq))
				break
			}
			rec.Records = append(rec.Records, r)
			lastSeq = r.Seq
		}
		// An older generation goes only once the snapshot covers it:
		// one rotated out before its snapshot was published still holds
		// records nothing else does.
		if lastValid != "" && lastValidEnd <= baseSeq {
			stale = append(stale, lastValid)
		}
		lastValid, lastValidEnd = w.name, sr.LastSeq
	}
	rec.LastSeq = lastSeq

	l := &Log{dir: dir, fp: opts.FailPoints, counters: opts.Counters}
	if lastValid != "" {
		j, sr, err := Open(filepath.Join(dir, lastValid), opts.FailPoints)
		if err != nil {
			return nil, nil, err
		}
		// The active file may end beyond the replayed suffix only if a
		// gap stopped replay; refuse to append after untrusted records.
		if sr.LastSeq != lastSeq {
			j.Close()
			return nil, nil, fmt.Errorf("%w: %s ends at seq %d but replay stopped at %d",
				ErrCorrupt, lastValid, sr.LastSeq, lastSeq)
		}
		l.j = j
	} else {
		j, err := Create(filepath.Join(dir, walName(baseSeq)), baseSeq, baseChain, opts.FailPoints)
		if err != nil {
			return nil, nil, err
		}
		l.j = j
	}

	// Cleanup after full recovery: stale generations, superseded
	// snapshots and abandoned temp files.
	for _, name := range stale {
		os.Remove(filepath.Join(dir, name))
	}
	l.removeStaleSnapshots(rec.SnapshotSeq)
	l.counters.Add(metrics.CounterJournalReplayed, int64(len(rec.Records)))
	l.counters.Add(metrics.CounterJournalTruncatedBytes, rec.TruncatedBytes)
	return l, rec, nil
}

// removeStaleSnapshots deletes snapshots older than keepSeq and
// abandoned temp files.
func (l *Log) removeStaleSnapshots(keepSeq uint64) {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			os.Remove(filepath.Join(l.dir, e.Name()))
			continue
		}
		if seq, ok := parseSnapshotName(e.Name()); ok && seq < keepSeq {
			os.Remove(filepath.Join(l.dir, e.Name()))
		}
	}
}

// Dir returns the state directory.
func (l *Log) Dir() string { return l.dir }

// LastSeq returns the last appended (not necessarily synced) sequence.
func (l *Log) LastSeq() uint64 { return l.j.LastSeq() }

// Append writes the given records and makes them durable with a single
// fsync — the group-commit point every caller batches through. It
// returns the sequence number of the last record.
func (l *Log) Append(records ...[]byte) (uint64, error) {
	start := time.Now()
	var last uint64
	for _, data := range records {
		seq, err := l.j.Append(data)
		if err != nil {
			return 0, err
		}
		last = seq
		l.counters.Inc(metrics.CounterJournalAppends)
	}
	syncStart := time.Now()
	if err := l.j.Sync(); err != nil {
		return 0, err
	}
	now := time.Now()
	l.counters.Inc(metrics.CounterJournalSyncs)
	l.counters.Observe(metrics.HistJournalFsyncMs, float64(now.Sub(syncStart))/float64(time.Millisecond))
	l.counters.Observe(metrics.HistJournalAppendMs, float64(now.Sub(start))/float64(time.Millisecond))
	return last, nil
}

// Cut is the journal position a snapshot covers: every record at or
// below Seq, ending at chain position Chain.
type Cut struct {
	Seq   uint64
	Chain Chain
}

// Snapshot durably publishes the state machine's full state at the
// current sequence: Rotate, then Publish. A failed Publish poisons the
// journal, so the owner stops like the process death it stands for.
func (l *Log) Snapshot(data []byte) error {
	cut, err := l.Rotate()
	if err != nil {
		return err
	}
	if err := l.Publish(cut, data); err != nil {
		l.Poison(err)
		return err
	}
	return nil
}

// Rotate starts a fresh journal generation at the current sequence and
// returns that position as the cut the next snapshot must cover. The
// previous generation stays on disk until Publish makes the snapshot
// durable, so a crash in between replays through it. The owner holds
// the lock it serializes Append with.
func (l *Log) Rotate() (Cut, error) {
	if err := l.j.Sync(); err != nil {
		return Cut{}, err
	}
	cut := Cut{Seq: l.j.LastSeq(), Chain: l.j.LastChain()}
	fresh, err := Create(filepath.Join(l.dir, walName(cut.Seq)), cut.Seq, cut.Chain, l.fp)
	if err != nil {
		// The rotation target already existing means no records were
		// appended since the last rotation: the current generation
		// already starts at the cut.
		if errors.Is(err, os.ErrExist) {
			return cut, nil
		}
		return Cut{}, err
	}
	l.j.Close()
	l.j = fresh
	return cut, nil
}

// Publish durably writes data as the snapshot for cut, then deletes the
// journal generations and snapshots it supersedes. It touches no live
// journal state, so the owner may run it without its lock, alongside
// Append — but one Publish at a time, and no Rotate until the previous
// Publish returned. A crash leaves the directory as that process death
// would: before the rename the old snapshot and every generation still
// replay; after it, the new snapshot and the generations past the cut.
func (l *Log) Publish(cut Cut, data []byte) error {
	if _, err := WriteSnapshot(l.dir, cut.Seq, cut.Chain, data, l.fp); err != nil {
		return err
	}
	if ce := l.fp.hit(FPSnapshotRename); ce != nil {
		return ce
	}
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	for _, e := range entries {
		if base, ok := parseWalName(e.Name()); ok && base < cut.Seq {
			os.Remove(filepath.Join(l.dir, e.Name()))
		}
	}
	l.removeStaleSnapshots(cut.Seq)
	if err := syncDir(l.dir); err != nil {
		return err
	}
	l.counters.Inc(metrics.CounterJournalSnapshots)
	return nil
}

// Poison stops the journal: every later Append fails with err. The
// owner calls it, holding its lock, when a Publish it ran outside the
// lock failed.
func (l *Log) Poison(err error) {
	if l.j.dead == nil {
		l.j.dead = err
	}
}

// Close syncs and closes the active journal.
func (l *Log) Close() error { return l.j.Close() }
