package main

import (
	"context"
	"os"
	"slices"
	"strconv"
	"time"

	"fpgasched/internal/core"
	"fpgasched/internal/durable"
	"fpgasched/internal/engine"
	"fpgasched/internal/server"
	"fpgasched/internal/task"
)

// admitReplaySets bounds the analyze-* tasksets the traced run replays
// through the admission layer (each append is one fsync).
const admitReplaySets = 16

// layerMetrics derives the per-layer metrics of a traced phase. Layers
// the workload's requests cross are measured on them: runtime from
// process counters, client and server from spans, engine hits and
// evictions from engine.Stats deltas, and admit-churn's admission, api
// and durable layers from its shadow replay and the store wrapper. The
// task, engine-hit and core layers, and the admission, api and durable
// layers of the analyze-* workloads, are measured by replaying the
// workload's own tasksets through each layer's public functions.
func layerMetrics(ctx context.Context, cfg runConfig, ph *phase, tr *tracer) (map[string]metric, error) {
	m := make(map[string]metric)
	ops := len(ph.lat)
	n := float64(ops)
	b, a := ph.before, ph.after
	m["runtime.cpu_us_per_op"] = metric{Value: ratio(us(a.cpu-b.cpu), n), Unit: "us", samples: ops}
	m["runtime.alloc_kb_per_op"] = metric{Value: ratio(float64(a.mem.TotalAlloc-b.mem.TotalAlloc)/1024, n), Unit: "KB", samples: ops}
	m["runtime.gc_per_kop"] = metric{Value: ratio(float64(a.mem.NumGC-b.mem.NumGC)*1000, n), Unit: "count", samples: ops}

	hits, misses := a.eng.Hits-b.eng.Hits, a.eng.Misses-b.eng.Misses
	m["engine.hit_ratio"] = metric{Value: ratio(float64(hits), float64(hits+misses)), Unit: "ratio", samples: int(hits + misses)}
	m["engine.evictions_per_kop"] = metric{Value: ratio(float64(a.eng.Evictions-b.eng.Evictions)*1000, n), Unit: "count", samples: ops}

	sets := ph.b.layerSets()
	if err := replayEngine(ctx, ph.d.eng, sets, m); err != nil {
		return nil, err
	}
	replayFingerprint(sets, m)
	if err := replayCore(ctx, sets, m); err != nil {
		return nil, err
	}

	adm := ph.b.admission()
	appends, fsyncs := a.wal.Records-b.wal.Records, a.wal.Fsyncs-b.wal.Fsyncs
	if adm == nil {
		var err error
		adm, appends, fsyncs, err = replayAdmission(ctx, cfg.scratch, sets[:min(len(sets), admitReplaySets)], tr)
		if err != nil {
			return nil, err
		}
	}
	adm.metrics(m)
	m["durable.fsyncs_per_append"] = metric{Value: ratio(float64(fsyncs), float64(appends)), Unit: "count", samples: int(appends)}

	spanMetrics(tr.snapshot(), ph.b, m)
	return m, nil
}

// spanMetrics derives the client, server and durable metrics from spans.
func spanMetrics(spans []span, b bench, m map[string]metric) {
	byID := make(map[uint64]span, len(spans))
	kids := make(map[uint64][]span)
	for _, s := range spans {
		byID[s.ID] = s
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	var transport, handler, self, appends []float64
	for _, s := range spans {
		switch s.Name {
		case "durable.append":
			appends = append(appends, us(s.dur()))
		case "server":
			call, ok := byID[s.Parent]
			if !ok {
				continue // not a benchmark operation, e.g. check's /metrics read
			}
			handler = append(handler, us(s.dur()))
			transport = append(transport, us(call.dur()-s.dur()))
			if a, ok := b.analysis(s.Req, call.Name); ok {
				self = append(self, us(selfTime(s, kids[s.ID])-a))
			}
		}
	}
	h := newDist(handler)
	m["client.transport_us_p50"] = pctMetric(newDist(transport), 50, "us")
	m["server.handler_us_p50"] = pctMetric(h, 50, "us")
	m["server.handler_us_p90"] = pctMetric(h, 90, "us")
	m["server.self_us_p50"] = pctMetric(newDist(self), 50, "us")
	ap := newDist(appends)
	m["durable.append_us_p50"] = pctMetric(ap, 50, "us")
	m["durable.append_us_p99"] = pctMetric(ap, 99, "us")
}

// replayEngine times Engine.Analyze on cached keys: each set is analysed
// once untimed (a hit already on analyze-*, the analysis itself on
// admit-churn), then once timed. The analysis mean covers every analysis
// the engine ran since the daemon started.
func replayEngine(ctx context.Context, eng *engine.Engine, sets []*task.Set, m map[string]metric) error {
	nf := core.ForNF()
	lat := make([]float64, 0, len(sets))
	for _, set := range sets {
		req := engine.Request{Columns: columns, Set: set, Test: nf, OmitChecks: true}
		if _, err := eng.Analyze(ctx, req); err != nil {
			return err
		}
		start := time.Now()
		if _, err := eng.Analyze(ctx, req); err != nil {
			return err
		}
		lat = append(lat, us(time.Since(start)))
	}
	m["engine.hit_us_p50"] = pctMetric(newDist(lat), 50, "us")
	st := eng.Stats()
	m["engine.analysis_us_mean"] = metric{Value: ratio(float64(st.AnalysisNanos)/1e3, float64(st.Analyses)), Unit: "us", samples: int(st.Analyses)}
	return nil
}

// replayFingerprint times the engine's cache-key derivation.
func replayFingerprint(sets []*task.Set, m map[string]metric) {
	lat := make([]float64, 0, len(sets))
	for _, set := range sets {
		start := time.Now()
		_ = set.FingerprintFromPerm(set.CanonicalPerm())
		lat = append(lat, us(time.Since(start)))
	}
	m["task.fingerprint_us_p50"] = pctMetric(newDist(lat), 50, "us")
}

// replayCore runs every composite member on each set in canonical order,
// as the engine does, with the interval screen's counters attached.
func replayCore(ctx context.Context, sets []*task.Set, m map[string]metric) error {
	tests := make([]core.Test, len(members))
	for i, name := range members {
		t, err := core.TestByName(name)
		if err != nil {
			return err
		}
		tests[i] = t
	}
	var ss core.ScreenStats
	sctx := core.WithScreenStats(ctx, &ss)
	dev := core.NewDevice(columns)
	lat := make([][]float64, len(tests))
	accepted := 0
	for _, set := range sets {
		canon, _ := canonical(set)
		ok := false
		for i, t := range tests {
			start := time.Now()
			v := t.Analyze(sctx, dev, canon)
			lat[i] = append(lat[i], us(time.Since(start)))
			if v.Err != nil {
				return v.Err
			}
			ok = ok || v.Schedulable
		}
		if ok {
			accepted++
		}
	}
	n := float64(len(sets))
	decided, escalated := float64(ss.Decided.Load()), float64(ss.Escalated.Load())
	m["core.dp_us_p50"] = pctMetric(newDist(lat[0]), 50, "us")
	m["core.gn1_us_p50"] = pctMetric(newDist(lat[1]), 50, "us")
	gn2 := newDist(lat[2])
	m["core.gn2_us_p50"] = pctMetric(gn2, 50, "us")
	m["core.gn2_us_p90"] = pctMetric(gn2, 90, "us")
	m["core.screen_escalated_per_op"] = metric{Value: ratio(escalated, n), Unit: "count", samples: len(sets)}
	m["core.screen_decided_ratio"] = metric{Value: ratio(decided, decided+escalated), Unit: "ratio", samples: int(decided + escalated)}
	m["core.accepted_ratio"] = metric{Value: ratio(float64(accepted), n), Unit: "ratio", samples: len(sets)}
	return nil
}

// replayAdmission builds each set online on a fresh shadow controller,
// admitting its tasks one by one and then releasing them alternately
// newest and oldest first, with every mutation logged to a scratch WAL
// (fsync=always) through the timing store wrapper. It returns the
// admission timings and the WAL's append and fsync counts.
func replayAdmission(ctx context.Context, scratch string, sets []*task.Set, tr *tracer) (*admissionStats, uint64, uint64, error) {
	dir, err := os.MkdirTemp(scratch, "replay-")
	if err != nil {
		return nil, 0, 0, err
	}
	st, err := durable.Open(durable.Options{Dir: dir, Fsync: durable.FsyncAlways})
	if err != nil {
		return nil, 0, 0, err
	}
	stats, err := admitSets(ctx, sets, &timingStore{inner: st, tr: tr})
	wm := st.Metrics()
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	return stats, wm.Records, wm.Fsyncs, err
}

func admitSets(ctx context.Context, sets []*task.Set, store server.Store) (*admissionStats, error) {
	stats := newAdmissionStats()
	for i, set := range sets {
		name := "replay-" + strconv.Itoa(i)
		if err := store.Append(durable.Record{Op: durable.OpCreateController, Controller: name, Columns: columns, Tests: controllerTests}); err != nil {
			return nil, err
		}
		sh, err := newShadow(name, store, stats)
		if err != nil {
			return nil, err
		}
		var names []string
		for _, tk := range set.Tasks {
			rec, err := sh.admit(ctx, tk)
			if err != nil {
				return nil, err
			}
			if rec.admitted {
				names = append(names, tk.Name)
			}
		}
		for k := 0; len(names) > 0; k++ {
			j := len(names) - 1
			if k%2 == 1 {
				j = 0
			}
			if err := sh.release(ctx, names[j]); err != nil {
				return nil, err
			}
			names = slices.Delete(names, j, j+1)
		}
		stats.addController(sh.ctrl.Stats())
		if err := store.Append(durable.Record{Op: durable.OpDeleteController, Controller: name}); err != nil {
			return nil, err
		}
	}
	return stats, nil
}

// metrics reports the admission and api layer metrics.
func (s *admissionStats) metrics(m map[string]metric) {
	req := newDist(s.request)
	m["admission.request_us_p50"] = pctMetric(req, 50, "us")
	m["admission.request_us_p90"] = pctMetric(req, 90, "us")
	m["admission.release_us_p50"] = pctMetric(newDist(s.release), 50, "us")
	m["admission.incremental_hit_ratio"] = metric{Value: ratio(float64(s.hits), float64(s.hits+s.fullRuns)), Unit: "ratio", samples: int(s.hits + s.fullRuns)}
	m["admission.admitted_ratio"] = metric{Value: ratio(float64(s.admitted), float64(s.requests)), Unit: "ratio", samples: s.requests}
	m["api.certificate_encode_us_p50"] = pctMetric(newDist(s.encode), 50, "us")
}
