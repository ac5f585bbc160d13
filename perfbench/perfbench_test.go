package main

import (
	"context"
	"errors"
	"net/http/httptest"
	"reflect"
	"testing"

	"fpgasched/api"
	"fpgasched/client"
	"fpgasched/internal/durable"
	"fpgasched/internal/server"
	"fpgasched/internal/task"
	"fpgasched/internal/workload"
)

func TestPercentileAndSampleCount(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100 down to 1: newDist must sort
	}
	d := newDist(xs)
	for _, tc := range []struct {
		p      int
		v      float64
		beyond int
	}{{50, 50, 50}, {90, 90, 10}, {99, 99, 1}} {
		if v, beyond := d.pct(tc.p); v != tc.v || beyond != tc.beyond {
			t.Errorf("p%d of 1..100 = %v with %d beyond, want %v with %d", tc.p, v, beyond, tc.v, tc.beyond)
		}
	}
	if v, beyond := newDist([]float64{3, 1, 2, 5, 4}).pct(50); v != 3 || beyond != 2 {
		t.Errorf("median of 5 = %v with %d beyond, want 3 with 2", v, beyond)
	}
	if v, beyond := newDist([]float64{7}).pct(90); v != 7 || beyond != 0 {
		t.Errorf("p90 of one sample = %v with %d beyond, want 7 with 0", v, beyond)
	}
	if v, beyond := newDist(nil).pct(50); v != 0 || beyond != 0 {
		t.Errorf("p50 of no samples = %v with %d beyond, want 0 with 0", v, beyond)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	parent := span{Start: 0, End: 100}
	children := []span{
		{Start: 20, End: 50},
		{Start: 10, End: 30},  // overlaps the first
		{Start: 40, End: 45},  // inside the first
		{Start: 90, End: 120}, // runs past the parent's end
		{Start: -5, End: 2},   // starts before the parent
	}
	// Covered: [0,2) + [10,50) + [90,100) = 52.
	if got := selfTime(parent, children); got != 48 {
		t.Errorf("self time = %v, want 48ns", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("self time without children = %v, want 100ns", got)
	}
}

// failingStore accepts the first ok appends and fails every later one.
type failingStore struct{ ok int }

var errDiskGone = errors.New("write wal.log: no space left on device")

func (f *failingStore) Append(durable.Record) error {
	if f.ok == 0 {
		return errDiskGone
	}
	f.ok--
	return nil
}

func (f *failingStore) Metrics() durable.Metrics { return durable.Metrics{} }

func TestTimingStorePassesAppendErrors(t *testing.T) {
	tr := newTracer()
	ts := &timingStore{inner: &failingStore{}, tr: tr}
	if err := ts.Append(durable.Record{Op: durable.OpAdmit, Controller: "c"}); !errors.Is(err, errDiskGone) {
		t.Fatalf("Append = %v, want the inner store's error", err)
	}
	if n := len(tr.snapshot()); n != 1 {
		t.Errorf("failed append recorded %d spans, want 1", n)
	}

	// Behind a real server the error still reaches the handler: the
	// admit is rolled back and answered 503 store_failed.
	srv := server.New(server.Config{Store: &timingStore{inner: &failingStore{ok: 1}, tr: tr}})
	defer srv.Close()
	hs := httptest.NewServer(tr.handler(srv))
	defer hs.Close()
	cl, err := client.New(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := cl.CreateController(ctx, "c", api.ControllerRequest{Columns: 10}); err != nil {
		t.Fatal(err)
	}
	_, err = cl.Admit(ctx, "c", task.New("a", "2", "5", "5", 5))
	var ae *api.Error
	if !errors.As(err, &ae) || ae.Code != api.CodeStoreFailed {
		t.Fatalf("admit with a failing store = %v, want store_failed", err)
	}
	res, err := cl.Resident(ctx, "c")
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 0 {
		t.Errorf("resident after the rolled-back admit = %d, want 0", res.Count)
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	draw := func(seed uint64) (hot, cold []*task.Set, churn []task.Task) {
		pool := hotPool(seed)
		hs := newHotStream(seed, 1)
		for i := 0; i < 20; i++ {
			_, set := hs.next(pool)
			hot = append(hot, set)
		}
		for i := 0; i < 4; i++ {
			cold = append(cold, coldSet(seed, 1, i))
		}
		cs := newChurnStream(seed, 1)
		for i := 0; i < 20; i++ {
			tk, _ := cs.draw(workload.Heterogeneous(1))
			churn = append(churn, tk)
		}
		return hot, cold, churn
	}
	h1, c1, a1 := draw(7)
	h2, c2, a2 := draw(7)
	if !reflect.DeepEqual(h1, h2) || !reflect.DeepEqual(c1, c2) || !reflect.DeepEqual(a1, a2) {
		t.Fatal("the same seed gave different inputs")
	}
	h3, c3, a3 := draw(8)
	if reflect.DeepEqual(h1, h3) || reflect.DeepEqual(c1, c3) || reflect.DeepEqual(a1, a3) {
		t.Fatal("different seeds gave the same inputs")
	}
}

func TestCheckFiresOnCorruptedVerdict(t *testing.T) {
	ctx := context.Background()
	const seed = 3
	b := newHotBench(seed, nil, 16)
	for c := range b.recs {
		s := newHotStream(seed, c)
		for i := 0; i < 16; i++ {
			_, set := s.next(b.pool)
			want, _ := libraryAnswer(ctx, set)
			b.recs[c] = append(b.recs[c], want)
		}
	}
	if bad, err := b.check(ctx); err != nil || bad != 0 {
		t.Fatalf("check of library answers = %d mismatches, %v; want 0", bad, err)
	}
	b.recs[1][5].sched = !b.recs[1][5].sched
	if bad, err := b.check(ctx); err != nil || bad != 1 {
		t.Fatalf("check after corrupting one verdict = %d mismatches, %v; want 1", bad, err)
	}
}
