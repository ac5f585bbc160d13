package admission

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"

	"fpgasched/internal/core"
	"fpgasched/internal/sched"
	"fpgasched/internal/sim"
	"fpgasched/internal/task"
	"fpgasched/internal/timeunit"
	"fpgasched/internal/workload"
)

func TestConstructorValidation(t *testing.T) {
	if _, err := NewController(0, core.DPTest{}); err == nil {
		t.Error("zero columns must fail")
	}
	if _, err := NewController(10); err == nil {
		t.Error("no tests must fail")
	}
	if _, err := NewNFController(10); err != nil {
		t.Errorf("standard controller: %v", err)
	}
}

func TestAdmitAndReject(t *testing.T) {
	c, err := NewNFController(10)
	if err != nil {
		t.Fatal(err)
	}
	d := c.Request(context.Background(), task.New("light", "1", "10", "10", 3))
	if !d.Admitted || d.ProvedBy == "" {
		t.Fatalf("light task rejected: %+v", d)
	}
	// Every admission records its proof: the accepting test's
	// certificate over the new resident set.
	if d.Certificate == nil {
		t.Fatal("admission must carry a certificate")
	}
	if d.Certificate.Test != d.ProvedBy || !d.Certificate.Schedulable {
		t.Errorf("certificate = %+v, want accepting %s proof", d.Certificate, d.ProvedBy)
	}
	if len(d.Certificate.Checks) == 0 || d.Certificate.Checks[0].LHS == "" {
		t.Errorf("certificate lacks exact-rational checks: %+v", d.Certificate)
	}
	// An obviously impossible addition (saturating the whole device on
	// top of the resident task).
	d = c.Request(context.Background(), task.New("hog", "10", "10", "10", 10))
	if d.Admitted {
		t.Fatal("hog must be rejected")
	}
	if d.Certificate != nil {
		t.Error("rejection must not carry a certificate (sufficient tests prove schedulability only)")
	}
	if d.Reason == "" {
		t.Error("rejection must carry a reason")
	}
	if c.Len() != 1 {
		t.Errorf("resident count = %d, want 1", c.Len())
	}
}

func TestRequestValidation(t *testing.T) {
	c, _ := NewNFController(10)
	if d := c.Request(context.Background(), task.Task{C: 1, D: 1, T: 1, A: 1}); d.Admitted {
		t.Error("unnamed task must be rejected")
	}
	c.Request(context.Background(), task.New("x", "1", "10", "10", 2))
	if d := c.Request(context.Background(), task.New("x", "1", "10", "10", 2)); d.Admitted {
		t.Error("duplicate name must be rejected")
	}
	if d := c.Request(context.Background(), task.New("bad", "5", "4", "4", 2)); d.Admitted {
		t.Error("C > D must be rejected")
	}
}

func TestReleaseMakesRoom(t *testing.T) {
	c, _ := NewNFController(10)
	// Two 40%-utilization half-device tasks are provable (DP); a third
	// pushes US past every bound.
	if d := c.Request(context.Background(), task.New("a", "2", "5", "5", 5)); !d.Admitted {
		t.Fatalf("a: %+v", d)
	}
	if d := c.Request(context.Background(), task.New("b", "2", "5", "5", 5)); !d.Admitted {
		t.Fatalf("b: %+v", d)
	}
	if d := c.Request(context.Background(), task.New("c", "2", "5", "5", 5)); d.Admitted {
		t.Fatal("c must not be provable (US 6 beyond all bounds)")
	}
	if !c.Release("a") {
		t.Fatal("release failed")
	}
	if c.Release("a") {
		t.Error("double release returned true")
	}
	if d := c.Request(context.Background(), task.New("c", "2", "5", "5", 5)); !d.Admitted {
		t.Fatalf("c must fit after release: %+v", d)
	}
}

func TestReleaseReindexes(t *testing.T) {
	c, _ := NewNFController(100)
	for i := 0; i < 5; i++ {
		name := fmt.Sprintf("t%d", i)
		if d := c.Request(context.Background(), task.New(name, "1", "10", "10", 5)); !d.Admitted {
			t.Fatalf("%s: %+v", name, d)
		}
	}
	c.Release("t1")
	c.Release("t3")
	// Remaining tasks must still be individually releasable.
	for _, name := range []string{"t0", "t2", "t4"} {
		if !c.Release(name) {
			t.Errorf("release %s failed after reindexing", name)
		}
	}
	if c.Len() != 0 {
		t.Errorf("resident = %d, want 0", c.Len())
	}
}

func TestReleaseRemovesTheNamedTask(t *testing.T) {
	// Regression test for Release's index bookkeeping: after arbitrary
	// interleavings of admissions and releases, releasing a name must
	// remove exactly that task (not a neighbour whose index drifted).
	c, _ := NewNFController(1000)
	admit := func(name string, area int) {
		t.Helper()
		if d := c.Request(context.Background(), task.New(name, "1", "1000", "1000", area)); !d.Admitted {
			t.Fatalf("%s: %+v", name, d)
		}
	}
	admit("a", 1)
	admit("b", 2)
	admit("c", 3)
	admit("d", 4)
	c.Release("b") // middle removal shifts c and d down
	admit("e", 5)  // new admission reuses the freed tail index
	c.Release("c") // must remove the area-3 task, not a shifted neighbour
	want := map[string]int{"a": 1, "d": 4, "e": 5}
	resident := c.Resident()
	if resident.Len() != len(want) {
		t.Fatalf("resident = %v", resident)
	}
	for _, tk := range resident.Tasks {
		if want[tk.Name] != tk.A {
			t.Errorf("task %q has area %d, want %d", tk.Name, tk.A, want[tk.Name])
		}
	}
	// Every survivor must still release by name.
	for name := range want {
		if !c.Release(name) {
			t.Errorf("release %s failed", name)
		}
	}
	if c.Len() != 0 {
		t.Errorf("resident = %d, want 0", c.Len())
	}
}

func TestConcurrentRequestReleaseResident(t *testing.T) {
	// -race hammer for the documented concurrency safety: goroutines
	// admit, release and snapshot simultaneously; afterwards the
	// controller must be internally consistent (every resident task
	// releasable exactly once).
	c, _ := NewNFController(1000)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				name := fmt.Sprintf("h%d-%d", g, i)
				d := c.Request(context.Background(), task.New(name, "1", "100", "100", 1+i%7))
				switch {
				case d.Admitted && i%3 == 0:
					if !c.Release(name) {
						t.Errorf("release %s failed right after admission", name)
					}
				case i%5 == 0:
					// Snapshot and derived metrics race against writers.
					_ = c.Resident()
					_ = c.Len()
					_ = c.Utilization()
				}
			}
		}(g)
	}
	wg.Wait()
	resident := c.Resident()
	for _, tk := range resident.Tasks {
		if !c.Release(tk.Name) {
			t.Errorf("resident task %q not releasable", tk.Name)
		}
	}
	if c.Len() != 0 {
		t.Errorf("len = %d after releasing all residents", c.Len())
	}
}

func TestResidentIsACopy(t *testing.T) {
	c, _ := NewNFController(10)
	c.Request(context.Background(), task.New("a", "1", "10", "10", 2))
	snap := c.Resident()
	snap.Tasks[0].A = 99
	if c.Resident().Tasks[0].A == 99 {
		t.Error("Resident must return a copy")
	}
}

func TestAdmittedSetAlwaysSimulatesCleanly(t *testing.T) {
	// Stress: stream random requests and departures; after every change
	// the resident set must survive synchronous-release simulation —
	// the soundness guarantee the controller exists to provide.
	c, err := NewNFController(20)
	if err != nil {
		t.Fatal(err)
	}
	r := workload.Rand(17)
	names := []string{}
	for step := 0; step < 120; step++ {
		if r.IntN(3) == 0 && len(names) > 0 {
			i := r.IntN(len(names))
			c.Release(names[i])
			names = append(names[:i], names[i+1:]...)
		} else {
			period := timeunit.FromUnits(int64(4 + r.IntN(12)))
			tk := task.Task{
				Name: fmt.Sprintf("s%d", step),
				C:    timeunit.Time(1 + r.Int64N(int64(period))),
				D:    period,
				T:    period,
				A:    1 + r.IntN(12),
			}
			if d := c.Request(context.Background(), tk); d.Admitted {
				names = append(names, tk.Name)
			}
		}
		resident := c.Resident()
		if resident.Len() == 0 {
			continue
		}
		res, err := sim.Simulate(20, resident, sched.NextFit{}, sim.Options{
			HorizonCap: timeunit.FromUnits(150),
		})
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if res.Missed {
			t.Fatalf("step %d: admitted set missed a deadline\n%v", step, resident)
		}
	}
}

func TestConcurrentRequests(t *testing.T) {
	c, _ := NewNFController(100)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				name := fmt.Sprintf("g%d-%d", g, i)
				d := c.Request(context.Background(), task.New(name, "1", "20", "20", 2))
				if d.Admitted && i%2 == 0 {
					c.Release(name)
				}
			}
		}(g)
	}
	wg.Wait()
	// Final state must be self-consistent and provable.
	resident := c.Resident()
	if resident.Len() > 0 {
		v := core.ForNF().Analyze(context.Background(), core.NewDevice(100), resident)
		if !v.Schedulable {
			t.Errorf("final resident set not provable: %v", v)
		}
	}
}

func TestUtilizationString(t *testing.T) {
	c, _ := NewNFController(10)
	c.Request(context.Background(), task.New("a", "1", "10", "10", 5)) // US = 0.5
	if got := c.Utilization(); got != "0.500" {
		t.Errorf("Utilization = %q, want 0.500", got)
	}
}

// TestRequestCancelledIsNotARejection pins the abort contract: a
// cancelled admission analysis sets Decision.Err (so callers can
// retry) instead of masquerading as a definitive domain rejection,
// and leaves the resident set unchanged.
func TestRequestCancelledIsNotARejection(t *testing.T) {
	c, err := NewNFController(10)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	d := c.Request(ctx, task.New("a", "2", "5", "5", 5))
	if d.Admitted {
		t.Fatal("cancelled admission must not admit")
	}
	if !errors.Is(d.Err, context.Canceled) {
		t.Fatalf("Err = %v, want context.Canceled", d.Err)
	}
	if c.Len() != 0 {
		t.Errorf("resident = %d after cancelled admit, want 0", c.Len())
	}
	// The same task admits once the context is live again.
	if d := c.Request(context.Background(), task.New("a", "2", "5", "5", 5)); !d.Admitted {
		t.Fatalf("retry after cancellation rejected: %+v", d)
	}
}

// TestFailedLogLeavesControllerUnchanged: when the log step of a
// RequestLogged or ReleaseLogged fails, nothing is committed — the
// resident set, the admit states and every counter but Aborted are as
// before — so retrying the admission decides and certifies exactly as
// a controller that never saw the failure.
func TestFailedLogLeavesControllerUnchanged(t *testing.T) {
	errLog := errors.New("append failed")
	failLog := func() error { return errLog }
	ctx := context.Background()
	for _, test := range []core.Test{core.DPTest{}, core.GN1Test{}, core.GN2Test{}} {
		live, err := NewController(16, test)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := NewController(16, test)
		if err != nil {
			t.Fatal(err)
		}
		a, b, c := tk("a", 1, 8, 8, 2), tk("b", 2, 10, 10, 3), tk("c", 1, 6, 6, 1)
		for _, x := range []task.Task{a, b} {
			if d := live.Request(ctx, x); !d.Admitted {
				t.Fatalf("%s: admit %s: %+v", test.Name(), x.Name, d)
			}
			ref.Request(ctx, x)
		}
		if d, err := live.RequestLogged(ctx, c, failLog); !errors.Is(err, errLog) || d.Admitted {
			t.Errorf("%s: admit with failing log = %+v, %v; want not admitted, %v", test.Name(), d, err, errLog)
		}
		if resident, err := live.ReleaseLogged("b", failLog); !resident || !errors.Is(err, errLog) {
			t.Errorf("%s: release with failing log = %v, %v; want resident, %v", test.Name(), resident, err, errLog)
		}
		if got, want := fmt.Sprint(live.Resident().Tasks), fmt.Sprint(ref.Resident().Tasks); got != want {
			t.Errorf("%s: resident after failed logs = %s, want %s", test.Name(), got, want)
		}
		got, want := live.Request(ctx, c), ref.Request(ctx, c)
		gotCert, err := json.Marshal(got.Certificate)
		if err != nil {
			t.Fatal(err)
		}
		wantCert, err := json.Marshal(want.Certificate)
		if err != nil {
			t.Fatal(err)
		}
		if got.Admitted != want.Admitted || got.ProvedBy != want.ProvedBy || string(gotCert) != string(wantCert) {
			t.Errorf("%s: retried admit = %+v %s, want %+v %s", test.Name(), got, gotCert, want, wantCert)
		}
		st := live.Stats()
		if st.Aborted != 1 || st.Releases != 0 || st.Admitted != 3 || st.Requests != st.Admitted+st.Rejected+st.Aborted {
			t.Errorf("%s: stats after failed logs = %+v, want 1 aborted, 0 releases, 3 admitted", test.Name(), st)
		}
	}
}
