package admission

import (
	"context"
	"testing"

	"fpgasched/internal/task"
	"fpgasched/internal/timeunit"
)

func tk(name string, c, d, t int64, a int) task.Task {
	return task.Task{Name: name, C: timeunit.FromUnits(c), D: timeunit.FromUnits(d), T: timeunit.FromUnits(t), A: a}
}

// TestForceAdmitMatchesLiveOrder replays a live admit/release history
// through ForceAdmit and checks the resident sets match element for
// element — the invariant server recovery depends on for byte-identical
// resident responses.
func TestForceAdmitMatchesLiveOrder(t *testing.T) {
	live, err := NewNFController(16)
	if err != nil {
		t.Fatal(err)
	}
	pool := []task.Task{
		tk("a", 1, 8, 8, 2), tk("b", 2, 10, 10, 3), tk("c", 1, 6, 12, 1),
		tk("d", 3, 12, 12, 4), tk("e", 1, 9, 9, 2),
	}
	ctx := context.Background()
	for _, p := range pool {
		if d := live.Request(ctx, p); !d.Admitted {
			t.Fatalf("admit %s: %+v", p.Name, d)
		}
	}
	if !live.Release("b") {
		t.Fatal("release b")
	}
	replayed, err := NewNFController(16)
	if err != nil {
		t.Fatal(err)
	}
	for _, rt := range live.Resident().Tasks {
		if err := replayed.ForceAdmit(rt); err != nil {
			t.Fatalf("ForceAdmit(%s): %v", rt.Name, err)
		}
	}
	lr, rr := live.Resident(), replayed.Resident()
	if lr.Len() != rr.Len() {
		t.Fatalf("resident lengths differ: %d vs %d", lr.Len(), rr.Len())
	}
	for i := range lr.Tasks {
		if lr.Tasks[i] != rr.Tasks[i] {
			t.Errorf("resident[%d]: live %+v, replayed %+v", i, lr.Tasks[i], rr.Tasks[i])
		}
	}
	// The replayed controller keeps gating: a duplicate replay fails.
	if err := replayed.ForceAdmit(pool[0]); err == nil {
		t.Error("duplicate ForceAdmit accepted")
	}
	if err := replayed.ForceAdmit(task.Task{}); err == nil {
		t.Error("unnamed ForceAdmit accepted")
	}
}
