package durable

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"fpgasched/internal/task"
	"fpgasched/internal/timeunit"
)

func tk(name string, c, d, t int64, a int) task.Task {
	return task.Task{Name: name, C: timeunit.FromUnits(c), D: timeunit.FromUnits(d), T: timeunit.FromUnits(t), A: a}
}

func mustAppend(t *testing.T, s *Store, r Record) {
	t.Helper()
	if err := s.Append(r); err != nil {
		t.Fatalf("Append(%+v): %v", r, err)
	}
}

// seedHistory drives a small mixed history through the store and
// returns the state it should recover to.
func seedHistory(t *testing.T, s *Store) *Snapshot {
	t.Helper()
	mustAppend(t, s, Record{Op: OpCreateController, Controller: "alpha", Columns: 10, Tests: []string{"GN2"}})
	mustAppend(t, s, Record{Op: OpCreateController, Controller: "beta", Columns: 6, Tests: []string{"DP", "GN1"}})
	a1, a2 := tk("a1", 1, 4, 8, 2), tk("a2", 2, 6, 6, 3)
	mustAppend(t, s, Record{Op: OpAdmit, Controller: "alpha", Task: &a1})
	mustAppend(t, s, Record{Op: OpAdmit, Controller: "alpha", Task: &a2})
	b1 := tk("b1", 1, 5, 5, 1)
	mustAppend(t, s, Record{Op: OpAdmit, Controller: "beta", Task: &b1})
	mustAppend(t, s, Record{Op: OpRelease, Controller: "alpha", TaskName: "a1"})
	mustAppend(t, s, Record{Op: OpCreatePlacement, Controller: "grid", Width: 8, Height: 8, Heuristic: "bottom-left"})
	p1 := Task2D{Name: "p1", C: "1", D: "4", T: "8", W: 2, H: 3}
	mustAppend(t, s, Record{Op: OpPlace, Controller: "grid", Task2D: &p1, Rect: &Rect{X: 0, Y: 0, W: 2, H: 3}, ID: 1})
	p2 := Task2D{Name: "p2", C: "1", D: "4", T: "8", W: 1, H: 1}
	mustAppend(t, s, Record{Op: OpPlace, Controller: "grid", Task2D: &p2, Rect: &Rect{X: 2, Y: 0, W: 1, H: 1}, ID: 2})
	mustAppend(t, s, Record{Op: OpUnplace, Controller: "grid", TaskName: "p1"})
	mustAppend(t, s, Record{Op: OpCreatePlacement, Controller: "spare", Width: 4, Height: 4, Heuristic: "best-area"})
	mustAppend(t, s, Record{Op: OpDeletePlacement, Controller: "spare"})
	return &Snapshot{
		LastSeq: 12,
		Controllers: []ControllerState{
			{Name: "alpha", Columns: 10, Tests: []string{"GN2"}, Tasks: []task.Task{a2}},
			{Name: "beta", Columns: 6, Tests: []string{"DP", "GN1"}, Tasks: []task.Task{b1}},
		},
		Placements: []PlacementState{
			{Name: "grid", Width: 8, Height: 8, Heuristic: "bottom-left", NextID: 2,
				Tasks: []PlacedTask{{Task: p2, Rect: Rect{X: 2, Y: 0, W: 1, H: 1}, ID: 2}}},
		},
	}
}

// sameState compares two state images via their canonical JSON.
func sameState(t *testing.T, got, want *Snapshot) {
	t.Helper()
	gj, _ := json.MarshalIndent(got, "", " ")
	wj, _ := json.MarshalIndent(want, "", " ")
	if string(gj) != string(wj) {
		t.Fatalf("state mismatch:\ngot  %s\nwant %s", gj, wj)
	}
}

func TestRecoverReplaysHistory(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	want := seedHistory(t, s)
	// Abandon without Close: a crash leaves no chance to flush.
	s2, err := Open(Options{Dir: dir, Fsync: FsyncNever})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	sameState(t, s2.State(), want)
	m := s2.Metrics()
	if m.ReplayedRecords != 12 {
		t.Errorf("ReplayedRecords = %d, want 12", m.ReplayedRecords)
	}
	if m.ReplayTruncatedBytes != 0 || m.ReplaySkipped != 0 {
		t.Errorf("clean log replay reported truncation/skips: %+v", m)
	}
	// Appends continue the sequence: a third generation sees them all.
	g1 := tk("g1", 1, 3, 9, 1)
	mustAppend(t, s2, Record{Op: OpAdmit, Controller: "beta", Task: &g1})
	want.LastSeq = 13
	want.Controllers[1].Tasks = append(want.Controllers[1].Tasks, g1)
	s3, err := Open(Options{Dir: dir, Fsync: FsyncNever})
	if err != nil {
		t.Fatalf("second reopen: %v", err)
	}
	defer s3.Close()
	sameState(t, s3.State(), want)
}

func TestRecoverDiscardsTornTail(t *testing.T) {
	for name, tear := range map[string]func([]byte) []byte{
		"short-header":  func(b []byte) []byte { return append(b, 0x01, 0x02) },
		"short-payload": func(b []byte) []byte { return append(b, 0x20, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 'x') },
		"flipped-bit": func(b []byte) []byte {
			b[len(b)-1] ^= 0x40 // corrupt the last record's payload
			return b
		},
		"huge-length": func(b []byte) []byte {
			return append(b, 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0)
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(Options{Dir: dir, Fsync: FsyncNever})
			if err != nil {
				t.Fatal(err)
			}
			want := seedHistory(t, s)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			walPath := filepath.Join(dir, walFileName)
			data, err := os.ReadFile(walPath)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(walPath, tear(data), 0o644); err != nil {
				t.Fatal(err)
			}
			s2, err := Open(Options{Dir: dir, Fsync: FsyncNever})
			if err != nil {
				t.Fatalf("reopen over torn tail: %v", err)
			}
			defer s2.Close()
			m := s2.Metrics()
			if m.ReplayTruncatedBytes == 0 {
				t.Errorf("torn tail not reported: %+v", m)
			}
			if name == "flipped-bit" {
				// The damaged final record (delete of "spare") is
				// discarded: the recovered state still holds it.
				if got := len(s2.State().Placements); got != 2 {
					t.Fatalf("placements after discarding tail = %d, want 2 (spare delete was torn)", got)
				}
			} else {
				sameState(t, s2.State(), want)
			}
			// The truncation is physical: a third open sees a clean log.
			s2.Close()
			s3, err := Open(Options{Dir: dir, Fsync: FsyncNever})
			if err != nil {
				t.Fatalf("open after truncation: %v", err)
			}
			defer s3.Close()
			if m := s3.Metrics(); m.ReplayTruncatedBytes != 0 {
				t.Errorf("second open still truncating: %+v", m)
			}
		})
	}
}

func TestCompactionSnapshotsAndTruncates(t *testing.T) {
	dir := t.TempDir()
	// Tiny threshold: every append compacts almost immediately.
	s, err := Open(Options{Dir: dir, Fsync: FsyncNever, SnapshotBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	want := seedHistory(t, s)
	m := s.Metrics()
	if m.Snapshots == 0 {
		t.Fatalf("no compactions at a 256-byte threshold: %+v", m)
	}
	if m.WALBytes >= 1024 {
		t.Errorf("WAL not truncated by compaction: %d bytes", m.WALBytes)
	}
	if _, err := os.Stat(filepath.Join(dir, snapFileName)); err != nil {
		t.Fatalf("snapshot file missing: %v", err)
	}
	// Crash-reopen: snapshot + log tail must reproduce the state.
	s2, err := Open(Options{Dir: dir, Fsync: FsyncNever, SnapshotBytes: 256})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	sameState(t, s2.State(), want)
}

func TestReplaySkipsRecordsAbsorbedBySnapshot(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	want := seedHistory(t, s)
	// Simulate a crash between snapshot install and WAL truncation: the
	// snapshot absorbs everything, but the log still holds it all.
	s.mu.Lock()
	if err := writeSnapshot(dir, s.shadow.snapshot(s.seq)); err != nil {
		s.mu.Unlock()
		t.Fatal(err)
	}
	s.mu.Unlock()
	s.Close()
	s2, err := Open(Options{Dir: dir, Fsync: FsyncNever})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	sameState(t, s2.State(), want)
	m := s2.Metrics()
	if m.ReplayedRecords != 0 || m.ReplaySkipped != 12 {
		t.Errorf("replayed=%d skipped=%d, want 0/12 (snapshot absorbed all)", m.ReplayedRecords, m.ReplaySkipped)
	}
}

func TestAppendFailureLatchesDegraded(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mustAppend(t, s, Record{Op: OpCreateController, Controller: "x", Columns: 4, Tests: []string{"GN2"}})
	// Yank the file out from under the store: further writes fail.
	s.mu.Lock()
	s.f.Close()
	s.mu.Unlock()
	a := tk("a", 1, 2, 4, 1)
	if err := s.Append(Record{Op: OpAdmit, Controller: "x", Task: &a}); err == nil {
		t.Fatal("append to a closed file succeeded")
	}
	m := s.Metrics()
	if !m.Degraded || m.LastError == "" {
		t.Fatalf("failure not latched: %+v", m)
	}
	if err := s.Append(Record{Op: OpRelease, Controller: "x", TaskName: "a"}); err == nil {
		t.Fatal("degraded store accepted an append")
	}
}

// TestCompactionFailureAcknowledgesLoggedRecord blocks every compaction
// (a directory squats on the snapshot's temporary file): the append
// that crosses the threshold is logged before compaction runs, so it
// must succeed — it replays on recovery — while the store latches
// degraded and refuses the next append. Recovery yields exactly the
// acknowledged records.
func TestCompactionFailureAcknowledgesLoggedRecord(t *testing.T) {
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, snapTmpFileName), 0o755); err != nil {
		t.Fatal(err)
	}
	s, err := Open(Options{Dir: dir, Fsync: FsyncAlways, SnapshotBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, s, Record{Op: OpCreateController, Controller: "x", Columns: 10, Tests: []string{"GN2"}})
	var acked []task.Task
	for i := 0; !s.Metrics().Degraded; i++ {
		if i == 100 {
			t.Fatal("no compaction was attempted")
		}
		a := tk(fmt.Sprintf("t%d", i), 1, 8, 8, 1)
		if err := s.Append(Record{Op: OpAdmit, Controller: "x", Task: &a}); err != nil {
			t.Fatalf("append %d: %v (a logged record must be acknowledged)", i, err)
		}
		acked = append(acked, a)
	}
	last := tk("late", 1, 8, 8, 1)
	err = s.Append(Record{Op: OpAdmit, Controller: "x", Task: &last})
	if m := s.Metrics(); err == nil || err.Error() != m.LastError {
		t.Fatalf("append after a failed compaction returned %v, want the latched %q", err, m.LastError)
	}
	s.Close()
	s2, err := Open(Options{Dir: dir, Fsync: FsyncNever, SnapshotBytes: -1})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	sameState(t, s2.State(), &Snapshot{
		LastSeq:     uint64(1 + len(acked)),
		Controllers: []ControllerState{{Name: "x", Columns: 10, Tests: []string{"GN2"}, Tasks: acked}},
	})
}

// TestCompactionFailureStillFlushesWAL: under FsyncInterval, a failed
// compaction refuses later appends but leaves the WAL healthy, so the
// acknowledged records must still be synced — here by Close, since the
// hour-long interval never ticks.
func TestCompactionFailureStillFlushesWAL(t *testing.T) {
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, snapTmpFileName), 0o755); err != nil {
		t.Fatal(err)
	}
	s, err := Open(Options{Dir: dir, Fsync: FsyncInterval, FsyncInterval: time.Hour, SnapshotBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, s, Record{Op: OpCreateController, Controller: "x", Columns: 10, Tests: []string{"GN2"}})
	for i := 0; !s.Metrics().Degraded; i++ {
		if i == 100 {
			t.Fatal("no compaction was attempted")
		}
		a := tk(fmt.Sprintf("t%d", i), 1, 8, 8, 1)
		mustAppend(t, s, Record{Op: OpAdmit, Controller: "x", Task: &a})
	}
	if m := s.Metrics(); m.Fsyncs != 0 {
		t.Fatalf("fsyncs before Close = %d, want 0 (the interval never ticked)", m.Fsyncs)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if m := s.Metrics(); m.Fsyncs != 1 {
		t.Fatalf("fsyncs after Close = %d, want 1: the acknowledged records were never synced", m.Fsyncs)
	}
}

func TestFsyncPoliciesCount(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, s, Record{Op: OpCreateController, Controller: "x", Columns: 4, Tests: []string{"GN2"}})
	mustAppend(t, s, Record{Op: OpDeleteController, Controller: "x"})
	if m := s.Metrics(); m.Fsyncs != 2 {
		t.Errorf("always: fsyncs = %d, want 2", m.Fsyncs)
	}
	s.Close()

	s, err = Open(Options{Dir: t.TempDir(), Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, s, Record{Op: OpCreateController, Controller: "x", Columns: 4, Tests: []string{"GN2"}})
	if m := s.Metrics(); m.Fsyncs != 0 {
		t.Errorf("never: fsyncs = %d, want 0", m.Fsyncs)
	}
	s.Close()
}

func TestParseFsyncPolicy(t *testing.T) {
	for in, want := range map[string]FsyncPolicy{"": FsyncInterval, "interval": FsyncInterval, "always": FsyncAlways, "never": FsyncNever} {
		got, err := ParseFsyncPolicy(in)
		if err != nil || got != want {
			t.Errorf("ParseFsyncPolicy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Error("ParseFsyncPolicy accepted garbage")
	}
}

func TestCorruptSnapshotIsFatal(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Fsync: FsyncNever, SnapshotBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	seedHistory(t, s)
	s.Close()
	path := filepath.Join(dir, snapFileName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0x10
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir, Fsync: FsyncNever}); err == nil {
		t.Fatal("Open succeeded over a corrupt snapshot (would silently drop tenants)")
	}
}

func TestTask2DRoundTrip(t *testing.T) {
	in := Task2D{Name: "p", C: "1.5", D: "4", T: "8", W: 2, H: 3}
	m, err := in.Model()
	if err != nil {
		t.Fatal(err)
	}
	if got := Task2DFrom(m); !reflect.DeepEqual(got, in) {
		t.Errorf("round trip: got %+v, want %+v", got, in)
	}
}
