package admission

import (
	"context"
	"fmt"
	"slices"
	"testing"
	"time"

	"fpgasched/internal/core"
	"fpgasched/internal/durable"
	"fpgasched/internal/task"
	"fpgasched/internal/timeunit"
	"fpgasched/internal/workload"
)

// The admit/release benchmark series behind `make bench-admit`
// (bench-results/BENCH_admit.json). Each series measures one warm
// admit + release round trip against a GN2 controller — the loadgen
// admit-heavy configuration whose wal=* series in BENCH_serve.json is
// the from-scratch baseline — over three resident-set scales:
//
//	set=paper  10 tasks drawn from the paper's Figure-3b profile
//	           (Unconstrained(10) on the 100-column figure device)
//	set=n100   100 synthetic light residents
//	set=n200   200 synthetic light residents
//
// path=incremental uses the controller's persistent sweep state;
// path=scratch disables it (full re-analysis per request, the pre-
// incremental behavior). wal=interval pairs each mutation with a
// durable-store append under the interval fsync policy, mirroring the
// daemon's apply-then-log order, so the speedup is also measured with
// the durability cost in the loop.

// residentPool returns n tasks a GN2 controller on the figure device
// provably admits in order, plus a churn probe: one more task from the
// same population that is admissible on top of the residents and whose
// area lies inside the resident area range (the steady-state arrival
// the incremental path is built for — an area outside the resident
// range changes the hoisted Abnd/Amin invariants, which is a documented
// full-run fallback, measured separately by the scratch series).
func residentPool(b *testing.B, n int, paper bool) ([]task.Task, task.Task) {
	b.Helper()
	scratch, err := NewController(workload.FigureDeviceColumns, core.GN2Test{})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	pool := make([]task.Task, 0, n)
	if !paper {
		// Synthetic light residents with varied periods and areas so the
		// λ candidate list stays realistically large after dedup.
		mk := func(i int) task.Task {
			return task.Task{
				Name: fmt.Sprintf("r%d", i),
				C:    timeunit.FromUnits(int64(1 + i%5)),
				D:    timeunit.FromUnits(int64(2000 + 37*(i%29))),
				T:    timeunit.FromUnits(int64(2000 + 37*(i%29))),
				A:    1 + i%3,
			}
		}
		for i := 0; i < n; i++ {
			tk := mk(i)
			if !scratch.Request(ctx, tk).Admitted {
				b.Fatalf("synthetic resident %d rejected", i)
			}
			pool = append(pool, tk)
		}
		probe := mk(n + 1) // i%3 == 2 keeps A=3 inside the resident range
		probe.Name = "probe"
		if !scratch.Request(ctx, probe).Admitted {
			b.Fatal("synthetic probe rejected")
		}
		return pool, probe
	}
	// Draw from the paper's figure profile, keeping what admits, until
	// the resident set is paper-sized; then keep drawing for the probe.
	aMin, aMax := workload.FigureDeviceColumns, 0
	for seed := uint64(1); ; seed++ {
		if seed > 2000 {
			b.Fatalf("could not assemble %d admissible paper-profile tasks plus a probe", n)
		}
		s, _ := workload.Unconstrained(n).GenerateWithTargetUS(workload.Rand(seed), 0.35)
		for _, tk := range s.Tasks {
			if len(pool) == n && (tk.A < aMin || tk.A > aMax) {
				continue
			}
			tk.Name = fmt.Sprintf("r%d", len(pool))
			if !scratch.Request(ctx, tk).Admitted {
				continue
			}
			if len(pool) < n {
				pool = append(pool, tk)
				if tk.A < aMin {
					aMin = tk.A
				}
				if tk.A > aMax {
					aMax = tk.A
				}
				continue
			}
			tk.Name = "probe"
			return pool, tk
		}
	}
}

func BenchmarkAdmitRelease(b *testing.B) {
	sizes := []struct {
		name  string
		n     int
		paper bool
	}{
		{"paper", 10, true},
		{"n100", 100, false},
		{"n200", 200, false},
	}
	for _, sz := range sizes {
		resident, probe := residentPool(b, sz.n, sz.paper)
		for _, wal := range []string{"off", "interval"} {
			for _, path := range []string{"incremental", "scratch"} {
				b.Run(fmt.Sprintf("set=%s/wal=%s/path=%s", sz.name, wal, path), func(b *testing.B) {
					c, err := NewController(workload.FigureDeviceColumns, core.GN2Test{})
					if err != nil {
						b.Fatal(err)
					}
					if path == "scratch" {
						c.DisableIncremental()
					}
					var st *durable.Store
					if wal == "interval" {
						st, err = durable.Open(durable.Options{Dir: b.TempDir(), Fsync: durable.FsyncInterval})
						if err != nil {
							b.Fatal(err)
						}
						defer st.Close()
						rec(b, st, durable.Record{Op: durable.OpCreateController, Controller: "bench",
							Columns: workload.FigureDeviceColumns, Tests: []string{"GN2"}})
					}
					ctx := context.Background()
					for _, tk := range resident {
						if d := c.Request(ctx, tk); !d.Admitted {
							b.Fatalf("resident %s rejected: %s", tk.Name, d.Reason)
						}
						if st != nil {
							rec(b, st, durable.Record{Op: durable.OpAdmit, Controller: "bench", Task: &tk})
						}
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						d := c.Request(ctx, probe)
						if !d.Admitted {
							b.Fatalf("probe rejected: %s", d.Reason)
						}
						if st != nil {
							rec(b, st, durable.Record{Op: durable.OpAdmit, Controller: "bench", Task: &probe})
						}
						if !c.Release(probe.Name) {
							b.Fatal("probe release failed")
						}
						if st != nil {
							rec(b, st, durable.Record{Op: durable.OpRelease, Controller: "bench", TaskName: probe.Name})
						}
					}
					b.StopTimer()
					stats := c.Stats()
					if path == "incremental" && stats.IncrementalHits == 0 {
						b.Fatalf("incremental path never hit: %+v", stats)
					}
					if path == "scratch" && stats.IncrementalHits != 0 {
						b.Fatalf("scratch reference served incremental hits: %+v", stats)
					}
				})
			}
		}
	}
}

// BenchmarkAdmitChurn is the write path of perfbench's admit-churn
// workload, in process: a DP/GN1/GN2 controller on the 100-column
// figure device, filled with light Heterogeneous tasks to 30
// residents, then one operation per iteration — admit a fresh task
// from the full Heterogeneous profile (whose heavy draws are mostly
// rejected) and, when admitted, release the newcomer (even admits,
// LIFO) or a random older resident (odd admits), keeping 30 residents.
// Requests are timed separately by outcome: rejected-ns/op and
// admitted-ns/op are the mean Request latency of each, so the cost of
// a rejection is visible next to the admissions it is mixed with.
// path=scratch is the from-scratch reference (DisableIncremental).
func BenchmarkAdmitChurn(b *testing.B) {
	const residents = 30
	for _, path := range []string{"incremental", "scratch"} {
		b.Run("path="+path, func(b *testing.B) {
			c, err := NewNFController(workload.FigureDeviceColumns)
			if err != nil {
				b.Fatal(err)
			}
			if path == "scratch" {
				c.DisableIncremental()
			}
			ctx := context.Background()
			r := workload.Rand(7)
			drawn := 0
			draw := func(p workload.Profile) task.Task {
				tk := p.Generate(r).Tasks[0]
				tk.Name = fmt.Sprintf("c%d", drawn)
				drawn++
				return tk
			}
			light := workload.Heterogeneous(1)
			light.HeavyFraction = 0
			var live []string
			for len(live) < residents {
				if drawn > 2000 {
					b.Fatalf("only %d residents after %d draws", len(live), drawn)
				}
				if tk := draw(light); c.Request(ctx, tk).Admitted {
					live = append(live, tk.Name)
				}
			}
			var admitted, rejected int
			var admitNs, rejectNs time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tk := draw(workload.Heterogeneous(1))
				start := time.Now()
				d := c.Request(ctx, tk)
				took := time.Since(start)
				if !d.Admitted {
					rejected++
					rejectNs += took
					continue
				}
				admitted++
				admitNs += took
				victim := len(live)
				if admitted%2 == 0 {
					victim = r.IntN(len(live))
				}
				live = append(live, tk.Name)
				if !c.Release(live[victim]) {
					b.Fatalf("release %s failed", live[victim])
				}
				live = slices.Delete(live, victim, victim+1)
			}
			b.StopTimer()
			if rejected > 0 {
				b.ReportMetric(float64(rejectNs.Nanoseconds())/float64(rejected), "rejected-ns/op")
			}
			if admitted > 0 {
				b.ReportMetric(float64(admitNs.Nanoseconds())/float64(admitted), "admitted-ns/op")
			}
			b.ReportMetric(float64(rejected)/float64(b.N), "rejects/op")
		})
	}
}

func rec(b *testing.B, st *durable.Store, r durable.Record) {
	b.Helper()
	if err := st.Append(r); err != nil {
		b.Fatal(err)
	}
}
