package core_test

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"fpgasched/internal/core"
	"fpgasched/internal/task"
	"fpgasched/internal/timeunit"
)

// decodeFuzzSet turns fuzz bytes into a small device and task set: the
// first byte picks the column count, and every following 4 bytes one
// task (at most 6), with implicit, constrained and post-period
// deadlines and the occasional area wider than the device.
func decodeFuzzSet(data []byte) (int, *task.Set) {
	if len(data) < 5 {
		return 0, nil
	}
	columns := 1 + int(data[0]%20)
	s := task.NewSet()
	for b := data[1:]; len(b) >= 4 && len(s.Tasks) < 6; b = b[4:] {
		c := timeunit.Time(1 + b[0]%16)
		d := c + timeunit.Time(b[1]%24)
		tp := timeunit.Time(1 + b[2]%32)
		if b[3]&0x80 != 0 {
			tp = d
		}
		s.Tasks = append(s.Tasks, task.Task{
			Name: fmt.Sprintf("t%d", len(s.Tasks)),
			C:    c, D: d, T: tp,
			A: 1 + int(b[3]&0x7f)%(columns+1),
		})
	}
	return columns, s
}

// FuzzNewcomerReject checks the admit states' newcomer-first stage on
// arbitrary small sets: a cold state (residents replayed, as after WAL
// recovery) asked about the set's last task must agree with Analyze —
// the same decision whenever it certifies one, a byte-identical
// certificate when it accepts — and must itself reject whenever
// Analyze's check of the newcomer fails.
func FuzzNewcomerReject(f *testing.F) {
	f.Add([]byte{9, 21, 0, 0, 0x87, 20, 0, 0, 0x87})
	f.Add([]byte{9, 12, 0, 0, 0x83, 4, 1, 1, 0x86, 2, 3, 7, 0x04})
	f.Add([]byte{99, 3, 9, 4, 0x02, 7, 20, 5, 0x11, 1, 0, 0, 0x85, 2, 2, 31, 0x01})
	f.Add([]byte{0, 1, 1, 1, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		columns, s := decodeFuzzSet(data)
		if s == nil || len(s.Tasks) == 0 {
			return
		}
		dev := core.NewDevice(columns)
		n := len(s.Tasks)
		newcomer := s.Tasks[n-1]
		for _, screen := range []bool{true, false} {
			ctx := core.WithScreen(context.Background(), screen)
			for _, test := range []core.IncrementalTest{core.DPTest{}, core.GN1Test{}, core.GN2Test{}} {
				st := test.NewAdmitState(dev)
				for _, tk := range s.Tasks[:n-1] {
					st.CommitReplay(tk)
				}
				v, ok := st.TryAdd(ctx, s, newcomer)
				want := test.Analyze(ctx, dev, s)
				label := fmt.Sprintf("%s screen=%v columns=%d %v", test.Name(), screen, columns, s.Tasks)
				newcomerFails := len(want.Checks) == n && !want.Checks[n-1].Satisfied
				if newcomerFails && (!ok || v.Schedulable) {
					t.Fatalf("%s: newcomer fails its own bound, yet TryAdd = (schedulable %v, certified %v)", label, v.Schedulable, ok)
				}
				if !ok {
					continue
				}
				if v.Schedulable != want.Schedulable {
					t.Fatalf("%s: TryAdd decides %v (%s), Analyze %v (%s)", label, v.Schedulable, v.Reason, want.Schedulable, want.Reason)
				}
				if v.Schedulable {
					a, _ := json.Marshal(v.Certificate())
					b, _ := json.Marshal(want.Certificate())
					if string(a) != string(b) {
						t.Fatalf("%s: certificates differ:\nTryAdd:  %s\nAnalyze: %s", label, a, b)
					}
				}
			}
		}
	})
}
