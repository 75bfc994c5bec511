package session

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// BenchmarkChurnRecovery measures what lifetime traffic leaves behind:
// a durable manager churns N create/delete pairs (zero live sessions at
// the end, snapshot every 50 records) and closes; each iteration then
// recovers a manager from the state directory and reconciles it. It
// reports the state directory's size and the recovery time, per mode:
//
//	go test -run XXX -bench ChurnRecovery -benchtime 3x ./internal/session/
func BenchmarkChurnRecovery(b *testing.B) {
	for _, storm := range []bool{false, true} {
		for _, pairs := range []int{200, 800, 10000} {
			mode := "default"
			if storm {
				mode = "storm"
			}
			b.Run(fmt.Sprintf("%s/pairs=%d", mode, pairs), func(b *testing.B) {
				dir := b.TempDir()
				m, err := NewManager(ManagerConfig{StateDir: dir, Storm: storm, SnapshotEvery: 50})
				if err != nil {
					b.Fatal(err)
				}
				for i := 0; i < pairs; i++ {
					ms, err := m.Create(CreateSpec{Set: stormSet(), Floor: 0.3})
					if err != nil {
						b.Fatal(err)
					}
					if _, err := m.Delete(ms.ID()); err != nil {
						b.Fatal(err)
					}
				}
				if err := m.Close(); err != nil {
					b.Fatal(err)
				}
				state := dirBytes(b, dir)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					// Each iteration recovers a fresh copy, so no close
					// snapshot changes what the next one reads.
					b.StopTimer()
					img := b.TempDir()
					if err := copyFiles(dir, img); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					m, err := NewManager(ManagerConfig{StateDir: img, Storm: storm, SnapshotEvery: -1})
					if err != nil {
						b.Fatal(err)
					}
					m.Reconcile()
					b.StopTimer()
					m.Close() //nolint:errcheck // the copy is discarded
					b.StartTimer()
				}
				b.ReportMetric(float64(state), "state_B")
			})
		}
	}
}

// dirBytes sums the sizes of the regular files in dir.
func dirBytes(b *testing.B, dir string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		b.Fatal(err)
	}
	var n int64
	for _, e := range entries {
		if info, err := os.Stat(filepath.Join(dir, e.Name())); err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n
}
