package main

import (
	"context"
	"math/rand/v2"
	"slices"
	"time"

	"fpgasched/api"
	"fpgasched/internal/core"
	"fpgasched/internal/engine"
	"fpgasched/internal/task"
	"fpgasched/internal/workload"
)

// columns is the device area of every workload: the paper's Figure 3–4
// device.
const columns = workload.FigureDeviceColumns

// Input stream tags for streamSeed.
const (
	streamHotPool = iota + 1
	streamHot
	streamCold
	streamColdSample
	streamChurn
)

const (
	// hotPoolSize sets fit the engine's default 4096-entry cache, so
	// every analyze-hot request after set-up is a cache hit.
	hotPoolSize = 512
	hotTasks    = 10 // the paper's set size
	coldTasks   = 30
	// Cold sets are rescaled to a total system utilization drawn from
	// [coldUSMin, coldUSMax], so some are accepted and some rejected.
	coldUSMin, coldUSMax = 10.0, 60.0
	// One cold operation in coldSampleEvery, chosen from the seed, is
	// checked against the library (a full check would take as long as
	// the timed phase).
	coldSampleEvery = 8
	// layerSetCap bounds the tasksets the traced run replays per layer.
	layerSetCap = 256
)

// members are the composite's tests, in the order they are tried.
var members = []string{"DP", "GN1", "GN2"}

// verdictSum is the part of an analyze verdict the check compares:
// schedulable, accepted_by and failing_task in the caller's task order.
type verdictSum struct {
	failing  int32 // -1 when absent
	accepted int8  // index into members; -1 when absent, -2 when unknown
	sched    bool
	ok       bool // false for an error or a malformed response
}

func summarize(v api.Verdict) verdictSum {
	s := verdictSum{failing: -1, accepted: -1, sched: v.Schedulable, ok: true}
	if v.FailingTask != nil {
		s.failing = int32(*v.FailingTask)
	}
	if v.AcceptedBy != "" {
		s.accepted = -2
		if i := slices.Index(members, v.AcceptedBy); i >= 0 {
			s.accepted = int8(i)
		}
	}
	return s
}

func summarizeResponse(resp *api.AnalyzeResponse, err error) verdictSum {
	if err != nil || resp == nil || resp.Result == nil || len(resp.Result.Verdicts) != 1 ||
		resp.Result.Schedulable != resp.Result.Verdicts[0].Schedulable {
		return verdictSum{}
	}
	return summarize(resp.Result.Verdicts[0])
}

// canonical returns set in canonical task order and the permutation that
// maps canonical positions back to set's indices.
func canonical(set *task.Set) (*task.Set, []int) {
	perm := set.CanonicalPerm()
	out := &task.Set{Tasks: make([]task.Task, len(perm))}
	for pos, orig := range perm {
		out.Tasks[pos] = set.Tasks[orig]
	}
	return out, perm
}

// libraryAnswer is what the library says about set in set's own task
// order, with the served semantics: the EDF-NF composite analyses the
// canonical order and the verdict is remapped to the caller's order, so
// every permutation of a set shares one analysis. It also returns the
// analysis time.
func libraryAnswer(ctx context.Context, set *task.Set) (verdictSum, time.Duration) {
	canon, perm := canonical(set)
	start := time.Now()
	v := core.ForNF().Analyze(ctx, core.NewDevice(columns), canon)
	took := time.Since(start)
	return remapped(v, perm), took
}

// remapped summarizes a canonical-order verdict in the order perm maps to.
func remapped(v core.Verdict, perm []int) verdictSum {
	return summarize(api.VerdictFromCore(engine.RemapVerdict(v, perm, true), false))
}

// analyzeCall sends one default-test analysis of set as client c.
func analyzeCall(ctx context.Context, d *daemon, c int, req uint64, set *task.Set) (time.Duration, verdictSum, error) {
	var resp *api.AnalyzeResponse
	lat, err := d.call(ctx, c, req, "client.analyze", func(ctx context.Context) (err error) {
		resp, err = d.clients[c].Analyze(ctx, api.AnalyzeRequest{Columns: columns, Taskset: set})
		return err
	})
	return lat, summarizeResponse(resp, err), err
}

// ---- analyze-hot ----

// hotBench sends paper-sized sets from a pool that set-up has analysed,
// each in a fresh task order: every request is a cache hit, so the time
// is HTTP, JSON, fingerprinting, the LRU lookup and verdict remapping.
type hotBench struct {
	d       *daemon
	seed    uint64
	pool    []*task.Set
	streams [clients]*hotStream
	recs    [clients][]verdictSum
}

func newHotBench(seed uint64, d *daemon, opsCap int) *hotBench {
	b := &hotBench{d: d, seed: seed, pool: hotPool(seed)}
	for c := range b.streams {
		b.streams[c] = newHotStream(seed, c)
		b.recs[c] = make([]verdictSum, 0, opsCap)
	}
	return b
}

func hotPool(seed uint64) []*task.Set {
	r := workload.Rand(streamSeed(seed, streamHotPool))
	prof := workload.Unconstrained(hotTasks)
	pool := make([]*task.Set, hotPoolSize)
	for i := range pool {
		pool[i] = prof.Generate(r)
	}
	return pool
}

// hotStream is one client's request sequence.
type hotStream struct{ r *rand.Rand }

func newHotStream(seed uint64, c int) *hotStream {
	return &hotStream{r: workload.Rand(streamSeed(seed, streamHot, uint64(c)))}
}

// next draws a pool set and returns its index and a copy in a fresh task
// order.
func (s *hotStream) next(pool []*task.Set) (int, *task.Set) {
	idx := s.r.IntN(len(pool))
	src := pool[idx].Tasks
	set := &task.Set{Tasks: make([]task.Task, len(src))}
	for i, j := range s.r.Perm(len(src)) {
		set.Tasks[i] = src[j]
	}
	return idx, set
}

func (b *hotBench) setup(ctx context.Context) error {
	return forClients(func(c int) error {
		for i := c; i < len(b.pool); i += clients {
			if _, err := b.d.clients[c].Analyze(ctx, api.AnalyzeRequest{Columns: columns, Taskset: b.pool[i]}); err != nil {
				return err
			}
		}
		return nil
	})
}

func (b *hotBench) op(ctx context.Context, c int) (time.Duration, error) {
	_, set := b.streams[c].next(b.pool)
	lat, sum, err := analyzeCall(ctx, b.d, c, opID(c, len(b.recs[c])), set)
	b.recs[c] = append(b.recs[c], sum)
	return lat, err
}

// check replays every client's stream and compares each answer with the
// library verdict of its pool set, remapped to the request's order.
func (b *hotBench) check(ctx context.Context) (int, error) {
	canon := make([]core.Verdict, len(b.pool))
	for i, set := range b.pool {
		cs, _ := canonical(set)
		canon[i] = core.ForNF().Analyze(ctx, core.NewDevice(columns), cs)
	}
	bad := 0
	for c := range b.recs {
		s := newHotStream(b.seed, c)
		for _, got := range b.recs[c] {
			idx, set := s.next(b.pool)
			if got != remapped(canon[idx], set.CanonicalPerm()) {
				bad++
			}
		}
	}
	return bad, nil
}

func (b *hotBench) layerSets() []*task.Set {
	var sets []*task.Set
	for c := range b.recs {
		s := newHotStream(b.seed, c)
		for i := 0; i < min(len(b.recs[c]), layerSetCap/clients); i++ {
			_, set := s.next(b.pool)
			sets = append(sets, set)
		}
	}
	return sets
}

// analysis is zero for every analyze-hot call: each one is a cache hit.
func (b *hotBench) analysis(uint64, string) (time.Duration, bool) { return 0, true }

func (b *hotBench) admission() *admissionStats { return nil }

// ---- analyze-cold ----

// coldBench sends 30-task sets that never repeat, generated one at a
// time from the seed: every request misses the cache and the DP, GN1 and
// GN2 kernels take most of its time.
type coldBench struct {
	d     *daemon
	seed  uint64
	recs  [clients][]verdictSum
	times [clients]map[uint64]time.Duration // library analysis time per checked operation
}

func newColdBench(seed uint64, d *daemon, opsCap int) *coldBench {
	b := &coldBench{d: d, seed: seed}
	for c := range b.recs {
		b.recs[c] = make([]verdictSum, 0, opsCap)
	}
	return b
}

// coldSet is client c's i-th set: alternately from the Unconstrained and
// Heterogeneous profiles, rescaled to a drawn total utilization.
func coldSet(seed uint64, c, i int) *task.Set {
	r := workload.Rand(streamSeed(seed, streamCold, uint64(c), uint64(i)))
	prof := workload.Unconstrained(coldTasks)
	if i%2 == 1 {
		prof = workload.Heterogeneous(coldTasks)
	}
	target := coldUSMin + r.Float64()*(coldUSMax-coldUSMin)
	set, _ := prof.GenerateWithTargetUS(r, target)
	return set
}

func coldSampled(seed uint64, c, i int) bool {
	return streamSeed(seed, streamColdSample, uint64(c), uint64(i))%coldSampleEvery == 0
}

func (b *coldBench) setup(context.Context) error { return nil }

func (b *coldBench) op(ctx context.Context, c int) (time.Duration, error) {
	i := len(b.recs[c])
	lat, sum, err := analyzeCall(ctx, b.d, c, opID(c, i), coldSet(b.seed, c, i))
	b.recs[c] = append(b.recs[c], sum)
	return lat, err
}

// check compares the sampled operations with the library; an operation
// outside the sample fails only if its response was malformed.
func (b *coldBench) check(ctx context.Context) (int, error) {
	var bad [clients]int
	err := forClients(func(c int) error {
		b.times[c] = make(map[uint64]time.Duration)
		for i, got := range b.recs[c] {
			if !coldSampled(b.seed, c, i) {
				if !got.ok {
					bad[c]++
				}
				continue
			}
			want, took := libraryAnswer(ctx, coldSet(b.seed, c, i))
			b.times[c][opID(c, i)] = took
			if got != want {
				bad[c]++
			}
		}
		return nil
	})
	return bad[0] + bad[1], err
}

// layerSets are the most recent checked sets, which are still cached.
func (b *coldBench) layerSets() []*task.Set {
	var sets []*task.Set
	for c := range b.recs {
		n := 0
		for i := len(b.recs[c]) - 1; i >= 0 && n < layerSetCap/clients; i-- {
			if coldSampled(b.seed, c, i) {
				sets = append(sets, coldSet(b.seed, c, i))
				n++
			}
		}
	}
	return sets
}

func (b *coldBench) analysis(req uint64, _ string) (time.Duration, bool) {
	c := clientOf(req)
	if c < 0 || c >= clients {
		return 0, false
	}
	d, ok := b.times[c][req]
	return d, ok
}

func (b *coldBench) admission() *admissionStats { return nil }
