// Package engine wraps the pure schedulability tests of internal/core in
// a concurrency-safe serving engine: a bounded worker pool so a flood of
// requests cannot spawn unbounded analysis goroutines, verdict
// memoization keyed by the canonical taskset fingerprint (internal/task),
// and coalescing of concurrent identical requests so a thundering herd on
// one taskset performs the analysis once.
//
// Every entry point takes a context.Context and honours cancellation at
// each wait (queueing for a pool slot, waiting on a coalesced in-flight
// analysis) and inside the analysis itself: the context is passed into
// core.Test.Analyze, where GN2's λ-candidate sweep polls it, so a
// cancelled request aborts even mid-analysis rather than pinning a
// worker slot until the O(N³) search finishes. An aborted analysis
// produces a verdict with Err set, which is never cached; completed
// work still lands in the cache, so a cancellation never corrupts or
// discards finished verdicts. When the owner of a coalesced analysis is
// cancelled — before a slot frees up or mid-run — one of the surviving
// waiters transparently takes over ownership and the analysis is
// neither lost nor duplicated.
//
// Verdicts are decided first and certified on demand. A miss whose
// request omits the checks (Request.OmitChecks: the server's
// non-explain path and experiment jobs) runs core.Decide, which
// evaluates every per-task bound but builds no exact certificate
// values, and caches a decision-only entry: the verdict, every task's
// Satisfied bit, and the test and canonical set needed to certify it
// later. An explain miss runs the full core.Test.Analyze and caches the
// certificate. The first request that needs the evidence of a
// decision-only entry — an explain request, or a peer's cache lookup
// (PeekCanonical with evidence) — pays one exact replay: a full Analyze
// that upgrades the entry in place, coalesced through the same
// in-flight machinery as any other analysis, and counted in
// Stats.Upgrades. Every later explain hit on that entry is free, with
// the index-bearing fields remapped to each caller's task order on
// return. A full entry is never downgraded, and a full in-flight
// analysis also serves waiting non-explain requests.
//
// The memoization is sound because every core.Test is a pure function of
// (device, taskset) and every analysis-relevant bit of the taskset is
// covered by task.Set.Fingerprint: task order and names are provably
// irrelevant to the verdicts (order-independence is property-tested in
// core). The cache key therefore is (test name, device columns,
// fingerprint).
//
// Because permuted copies of a taskset share one cache entry, the engine
// analyses the set in its canonical (fingerprint) order and remaps the
// index-bearing verdict fields — FailingTask and Checks[].TaskIndex —
// back to each caller's task order on every return, so two clients
// sending the same set in different orders each see indices that are
// correct for *their* ordering. Free-text Reason strings are produced
// once, from the canonically ordered set of whichever request ran the
// analysis, so any task index or name embedded in them reflects that
// canonical ordering. Returned verdicts share the cached *big.Rat values
// inside Checks and must treat them as read-only.
package engine

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fpgasched/internal/core"
	"fpgasched/internal/task"
)

// Config sizes an Engine. The zero value is usable: DefaultWorkers
// workers and DefaultCacheSize cache entries.
type Config struct {
	// Workers bounds the number of concurrently executing analyses.
	Workers int
	// CacheSize bounds the number of memoized verdicts; 0 means
	// DefaultCacheSize, negative disables caching entirely.
	CacheSize int
	// SweepWorkers bounds the per-analysis parallelism inside a single
	// test: GN2/GN2x's independent per-task λ sweeps are evaluated by
	// up to this many goroutines (core.WithSweepWorkers). 0 means
	// serial (the default: under heavy traffic the Workers pool already
	// saturates the CPUs, and serial sweeps keep per-request latency
	// predictable); negative means GOMAXPROCS, which minimises the
	// latency of one large analysis on an otherwise idle server. Total
	// CPU concurrency is up to Workers × SweepWorkers. Verdicts are
	// bit-for-bit identical for every setting — parallelism is
	// deliberately excluded from the cache key.
	SweepWorkers int
}

// Defaults for Config zero values.
const (
	DefaultWorkers   = 8
	DefaultCacheSize = 4096
)

// Stats is a point-in-time snapshot of the engine's counters.
type Stats struct {
	// Hits, Misses and Evictions count cache events. A coalesced request
	// (one that waited on an identical in-flight analysis) counts as a
	// hit: the verdict was served without running a test. A miss is
	// counted only once the analysis actually claims a worker slot, so a
	// request cancelled while queued counts neither a hit nor a miss.
	Hits, Misses, Evictions uint64
	// InFlight is the number of distinct analyses currently owned —
	// executing or queued for a slot (coalesced waiters share one entry).
	InFlight int
	// Analyses counts test executions actually performed.
	Analyses uint64
	// Upgrades counts the full analyses that replaced a cached
	// decision-only verdict with its certificate (the first explain
	// request or peer lookup on such an entry). They are also counted
	// in Misses and Analyses.
	Upgrades uint64
	// AnalysisNanos is the cumulative wall time of those executions.
	AnalysisNanos uint64
	// CacheLen and CacheCap describe the memoization cache occupancy.
	CacheLen, CacheCap int
	// Workers is the configured pool size.
	Workers int
	// SweepWorkers is the resolved per-analysis sweep parallelism
	// (Config.SweepWorkers; 1 means serial sweeps).
	SweepWorkers int
	// ScreenDecided and ScreenEscalated aggregate the kernels' interval
	// screen counters across completed analyses: bounds disposed of with
	// no exact arithmetic vs bounds that escalated to the exact kernel
	// (straddling enclosures and always-verified certificate values).
	// ScreenRangePruned is the part of ScreenDecided disposed of by GN2
	// range evaluations, ScreenEvals the interval evaluations run (see
	// core.ScreenStats). All stay zero when the screen is disabled.
	// Aborted analyses contribute nothing, mirroring the Analyses
	// counter.
	ScreenDecided, ScreenEscalated uint64
	ScreenRangePruned, ScreenEvals uint64
	// Tests breaks hits, misses and executed analyses down by test name
	// (the cache key's test component), so operators can see which
	// registry entries are hot and how well each one's verdicts memoize.
	// The map is a snapshot copy; nil when no analysis was ever requested.
	Tests map[string]TestStats
}

// TestStats is the per-test-name slice of the engine counters. The
// hit/miss/analysis semantics match the aggregate fields of Stats, and
// the screen counters the aggregate ScreenDecided/ScreenEscalated/
// ScreenRangePruned/ScreenEvals.
type TestStats struct {
	Hits, Misses, Analyses         uint64
	ScreenDecided, ScreenEscalated uint64
	ScreenRangePruned, ScreenEvals uint64
}

// Request names one analysis: a taskset against a device under a test.
type Request struct {
	// Columns is the device area A(H).
	Columns int
	// Set is the taskset; the engine never mutates it.
	Set *task.Set
	// Test is the schedulability test to run. Its Name() participates in
	// the cache key, so distinct configurations must carry distinct
	// names (all core test variants do).
	Test core.Test
	// OmitChecks drops the per-task bound checks from the returned
	// verdict. Callers that only need the verdict summary (the server's
	// non-explain path, experiment jobs) save the per-request check
	// remapping and, on a miss, the certificate itself: the analysis
	// runs core.Decide and caches a decision-only entry, which a later
	// request without OmitChecks upgrades with one full analysis.
	// FailingTask is the caller's lowest failing index either way.
	OmitChecks bool
}

// ErrClosed is returned by Analyze after Close.
var ErrClosed = errors.New("engine: closed")

// errAbandoned is published to coalesced waiters when the goroutine
// that owned an in-flight analysis was cancelled before the analysis
// ran. It never escapes the package: waiters observing it retry (their
// own contexts may still be live), so one caller's cancellation cannot
// fail an unrelated caller coalesced onto the same key.
var errAbandoned = errors.New("engine: analysis abandoned by cancelled owner")

// Engine is a concurrency-safe memoizing analysis service. Create with
// New; the zero value is not usable.
type Engine struct {
	sem          chan struct{} // worker pool: acquire to run an analysis
	closed       chan struct{}
	sweepWorkers int // resolved Config.SweepWorkers (>= 1)

	mu       sync.Mutex
	cache    *lru
	inflight map[flightKey]*call

	stats struct {
		sync.Mutex
		hits, misses, evictions        uint64
		analyses, nanos, upgrades      uint64
		screenDecided, screenEscalated uint64
		screenRangePruned, screenEvals uint64
		perTest                        map[string]*TestStats
	}
}

// call is one in-flight analysis that identical requests wait on.
type call struct {
	done    chan struct{}
	verdict core.Verdict
	err     error
}

// New returns an Engine with the given configuration.
func New(cfg Config) *Engine {
	if cfg.Workers <= 0 {
		cfg.Workers = DefaultWorkers
	}
	var cache *lru
	if cfg.CacheSize >= 0 {
		size := cfg.CacheSize
		if size == 0 {
			size = DefaultCacheSize
		}
		cache = newLRU(size)
	}
	sweep := cfg.SweepWorkers
	if sweep < 0 {
		sweep = runtime.GOMAXPROCS(0)
	}
	if sweep < 1 {
		sweep = 1
	}
	return &Engine{
		sem:          make(chan struct{}, cfg.Workers),
		closed:       make(chan struct{}),
		sweepWorkers: sweep,
		cache:        cache,
		inflight:     make(map[flightKey]*call),
	}
}

// Close shuts the engine down. Analyses already running complete;
// subsequent Analyze calls return ErrClosed. Close is idempotent.
func (e *Engine) Close() {
	e.mu.Lock()
	defer e.mu.Unlock()
	select {
	case <-e.closed:
	default:
		close(e.closed)
	}
}

// cacheKey is the comparable memoization key: (test name, device
// columns, taskset fingerprint). A struct key keeps the hot (cache-hit)
// path free of formatting and string allocation.
type cacheKey struct {
	test    string
	columns int
	fp      task.Fingerprint
}

// flightKey names one in-flight analysis: a full Analyze (evidence)
// and a Decide of the same key are distinct flights, since only the
// former can serve an explain request.
type flightKey struct {
	cacheKey
	evidence bool
}

// source is what the owner of a flight analyses: the test and the set,
// either in the caller's order with its canonical permutation (perm
// non-nil) or already canonical (a decision-only entry's stored set).
type source struct {
	test core.Test
	set  *task.Set
	perm []int
}

// key builds the memoization key for a request, reusing the caller's
// canonical permutation so the set is sorted only once per Analyze.
func key(r Request, perm []int) cacheKey {
	return cacheKey{test: r.Test.Name(), columns: r.Columns, fp: r.Set.FingerprintFromPerm(perm)}
}

// remapVerdict translates a canonical-order verdict into the caller's
// task order: Checks are re-attributed and re-sorted, FailingTask
// becomes the caller's first failing task (falling back to the direct
// index translation when no per-task checks are available), and
// composite SubVerdicts are remapped recursively so a cached
// certificate reads correctly in every caller's ordering. The Checks'
// *big.Rat values stay shared with the cached verdict. With omitChecks
// the copy and sort are skipped and Checks and SubVerdicts dropped
// (the caller asked for the summary only); FailingTask is still the
// caller's lowest failing index.
func remapVerdict(v core.Verdict, perm []int, omitChecks bool) core.Verdict {
	out := v
	if omitChecks {
		out.Checks = nil
		out.SubVerdicts = nil
		if v.FailingTask >= 0 && v.FailingTask < len(perm) {
			ft := perm[v.FailingTask]
			for _, chk := range v.Checks {
				if !chk.Satisfied && chk.TaskIndex >= 0 && chk.TaskIndex < len(perm) && perm[chk.TaskIndex] < ft {
					ft = perm[chk.TaskIndex]
				}
			}
			out.FailingTask = ft
		}
		return out
	}
	if len(v.Checks) > 0 {
		out.Checks = make([]core.BoundCheck, len(v.Checks))
		for i, chk := range v.Checks {
			if chk.TaskIndex >= 0 && chk.TaskIndex < len(perm) {
				chk.TaskIndex = perm[chk.TaskIndex]
			}
			out.Checks[i] = chk
		}
		sort.Slice(out.Checks, func(i, j int) bool {
			return out.Checks[i].TaskIndex < out.Checks[j].TaskIndex
		})
	}
	if v.FailingTask >= 0 && v.FailingTask < len(perm) {
		out.FailingTask = perm[v.FailingTask]
		for _, chk := range out.Checks {
			if !chk.Satisfied {
				out.FailingTask = chk.TaskIndex
				break
			}
		}
	}
	if len(v.SubVerdicts) > 0 {
		out.SubVerdicts = make([]core.Verdict, len(v.SubVerdicts))
		for i, sv := range v.SubVerdicts {
			out.SubVerdicts[i] = remapVerdict(sv, perm, false)
		}
	}
	return out
}

// Analyze runs (or recalls) one analysis. It blocks until a worker slot
// is free, the verdict is cached, an identical request already in
// flight completes, or ctx is done. Cancellation is honoured at every
// wait and inside the analysis: a request still queued for a pool slot
// (or waiting on a coalesced in-flight analysis) returns ctx.Err()
// promptly and releases nothing it did not own, and an analysis this
// caller owns aborts mid-run when the test polls the context (GN2's λ
// sweep) — the aborted partial verdict is never cached, and coalesced
// waiters with live contexts transparently re-run the analysis. The
// returned Verdict is shared with other callers of the same key and
// must be treated as read-only.
func (e *Engine) Analyze(ctx context.Context, r Request) (core.Verdict, error) {
	if r.Test == nil {
		return core.Verdict{}, errors.New("engine: nil test")
	}
	if r.Set == nil {
		return core.Verdict{}, errors.New("engine: nil taskset")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return core.Verdict{}, err
	}
	select {
	case <-e.closed:
		return core.Verdict{}, ErrClosed
	default:
	}
	perm := r.Set.CanonicalPerm()
	v, _, err := e.resolve(ctx, key(r, perm), !r.OmitChecks, &source{test: r.Test, set: r.Set, perm: perm}, false)
	if err != nil {
		return core.Verdict{}, err
	}
	return remapVerdict(v, perm, r.OmitChecks), nil
}

// resolve returns the canonical-order verdict for k: from the cache
// when the entry carries what is asked for (any entry without
// evidence; only a certified one with it), by joining an in-flight
// analysis that can serve the request, or by owning a new one. A
// decision-only entry asked for evidence is upgraded: the owner runs
// the full analysis of the entry's stored canonical set (src may be
// nil then). With probe set, a key with no cache entry at all is a
// miss (found = false) and nothing is analysed.
func (e *Engine) resolve(ctx context.Context, k cacheKey, evidence bool, src *source, probe bool) (v core.Verdict, found bool, err error) {
	// Loop: a coalesced wait can end with the owner abandoning the
	// analysis (its context was cancelled before a slot freed up). This
	// waiter's context may still be live, so it retries — finding the
	// key uncached and un-inflight, it becomes the new owner.
	for {
		e.mu.Lock()
		var ent *entry
		if e.cache != nil {
			ent = e.cache.get(k)
		}
		if ent != nil && (!evidence || !ent.decided) {
			v := ent.verdict
			e.mu.Unlock()
			e.countHit(k.test)
			return v, true, nil
		}
		if ent == nil && probe {
			e.mu.Unlock()
			return core.Verdict{}, false, nil
		}
		upgrade := ent != nil
		if upgrade {
			// Certify the stored canonical set: it is the one the
			// decision was made on, whatever order this caller sent.
			src = &source{test: ent.test, set: ent.set}
		}
		// A full analysis serves every request; a decision serves only
		// requests that do not need the evidence.
		c, ok := e.inflight[flightKey{k, true}]
		if !ok && !evidence {
			c, ok = e.inflight[flightKey{k, false}]
		}
		if ok {
			e.mu.Unlock()
			select {
			case <-c.done:
			case <-ctx.Done():
				return core.Verdict{}, false, ctx.Err()
			}
			if c.err != nil {
				if c.err == errAbandoned {
					if err := ctx.Err(); err != nil {
						return core.Verdict{}, false, err
					}
					continue
				}
				return core.Verdict{}, false, c.err
			}
			e.countHit(k.test)
			return c.verdict, true, nil
		}
		fk := flightKey{k, evidence}
		c = &call{done: make(chan struct{})}
		e.inflight[fk] = c
		e.mu.Unlock()
		v, err := e.own(ctx, *src, fk, c, upgrade)
		return v, err == nil, err
	}
}

// abandon withdraws an owned but never-run call: the inflight entry is
// removed and waiters are released with errAbandoned so they retry.
func (e *Engine) abandon(k flightKey, c *call) {
	c.err = errAbandoned
	e.mu.Lock()
	delete(e.inflight, k)
	e.mu.Unlock()
	close(c.done)
}

// own drives the call this goroutine created: acquire a pool slot, run
// the analysis, publish the canonical-order verdict, unblock waiters.
// Cancellation while queued abandons the call without consuming a
// slot.
func (e *Engine) own(ctx context.Context, src source, k flightKey, c *call, upgrade bool) (core.Verdict, error) {
	select {
	case e.sem <- struct{}{}:
	case <-ctx.Done():
		e.abandon(k, c)
		return core.Verdict{}, ctx.Err()
	case <-e.closed:
		c.err = ErrClosed
		e.mu.Lock()
		delete(e.inflight, k)
		e.mu.Unlock()
		close(c.done)
		return core.Verdict{}, ErrClosed
	}
	// A slot may have freed up only after the caller was cancelled; a
	// cancelled request must not burn it on work nobody wants.
	if err := ctx.Err(); err != nil {
		<-e.sem
		e.abandon(k, c)
		return core.Verdict{}, err
	}
	// The analysis is definitely running now: count the miss here, not
	// at ownership registration, so abandoned (cancelled-while-queued)
	// requests cannot inflate the miss rate with work that never ran.
	e.countMiss(k.test)
	// Analyze the canonically ordered copy so the cached verdict's
	// indices mean the same thing to every permutation of this set.
	canon := src.set
	if src.perm != nil {
		canon = src.set.CanonicalFromPerm(src.perm)
	}
	// One counter sink per analysis: harvested only on successful
	// completion (below), so aborted sweeps contribute no screen
	// counters, mirroring the Analyses counter.
	ss := new(core.ScreenStats)
	start := time.Now()
	v, runErr := e.runAnalysis(ctx, src.test, k, canon, ss)
	elapsed := time.Since(start)
	if runErr == nil && v.Err != nil {
		// The test aborted mid-analysis (the owner's context was
		// cancelled inside GN2's λ sweep). The verdict proves nothing:
		// never cache it. Waiters retry via errAbandoned — their own
		// contexts may still be live, and the re-run is correct because
		// the aborted partial work left no state behind. An aborted
		// upgrade leaves the decision-only entry in place.
		runErr = errAbandoned
	}
	if runErr != nil {
		// The test panicked or was aborted: release waiters with the
		// error (never a hang) and cache nothing.
		c.err = runErr
		e.mu.Lock()
		delete(e.inflight, k)
		e.mu.Unlock()
		close(c.done)
		if runErr == errAbandoned {
			// The owner reports its own cancellation, not the internal
			// retry sentinel.
			if err := ctx.Err(); err != nil {
				return core.Verdict{}, err
			}
			return core.Verdict{}, v.Err
		}
		return core.Verdict{}, runErr
	}

	e.stats.Lock()
	e.stats.analyses++
	e.stats.nanos += uint64(elapsed.Nanoseconds())
	if upgrade {
		e.stats.upgrades++
	}
	ts := e.perTestLocked(k.test)
	ts.Analyses++
	d, esc := ss.Decided.Load(), ss.Escalated.Load()
	rp, ev := ss.RangePruned.Load(), ss.Evals.Load()
	e.stats.screenDecided += d
	e.stats.screenEscalated += esc
	e.stats.screenRangePruned += rp
	e.stats.screenEvals += ev
	ts.ScreenDecided += d
	ts.ScreenEscalated += esc
	ts.ScreenRangePruned += rp
	ts.ScreenEvals += ev
	e.stats.Unlock()

	c.verdict = v
	ent := entry{key: k.cacheKey, verdict: v}
	if !k.evidence {
		ent.decided, ent.test, ent.set = true, src.test, canon
	}
	e.mu.Lock()
	e.addLocked(ent)
	delete(e.inflight, k)
	e.mu.Unlock()
	close(c.done)
	return v, nil
}

// addLocked caches ent, counting an eviction. Callers hold e.mu.
func (e *Engine) addLocked(ent entry) {
	if e.cache != nil && e.cache.add(ent) {
		e.stats.Lock()
		e.stats.evictions++
		e.stats.Unlock()
	}
}

// PeekCanonical returns the cached verdict for the memoization key
// (testName, columns, fp) in CANONICAL task order, without triggering,
// queueing or waiting for the analysis of an uncached key — a strict
// cache-hit-or-miss probe. It is the engine half of the cluster
// peer-fetch protocol: a node serving POST /v1/cache/lookup for a peer
// answers from here, so a lookup can never transfer cold analysis
// load; and a peer-mode node checks its own cache through it before
// routing to the fingerprint owner.
//
// With evidence, the verdict must carry its certificate: a
// decision-only entry is upgraded in place with one full analysis of
// its stored set (coalesced with any concurrent upgrade or explain
// request, and abandoned — reporting a miss, the entry left as it was —
// if ctx ends first). Without evidence any entry is returned, and a
// decision-only verdict's checks carry only their Satisfied bits.
// A verdict served from the cache counts as a hit; a miss counts
// nothing, mirroring Analyze's rule that misses are only counted when
// an analysis actually claims a worker slot. The returned verdict is
// shared and must be treated as read-only.
func (e *Engine) PeekCanonical(ctx context.Context, testName string, columns int, fp task.Fingerprint, evidence bool) (core.Verdict, bool) {
	if ctx == nil {
		ctx = context.Background()
	}
	v, found, err := e.resolve(ctx, cacheKey{test: testName, columns: columns, fp: fp}, evidence, nil, true)
	if err != nil {
		return core.Verdict{}, false
	}
	return v, found
}

// InsertCanonical seeds the cache with a verdict obtained elsewhere —
// in practice a certificate fetched from the fingerprint owner's cache
// in peer mode, reconstructed into canonical task order. The verdict
// must be in canonical (fingerprint) order, complete (Err == nil) and
// certified (a full analysis, as peer lookups always return); aborted
// verdicts are dropped, matching Analyze's never-cache-aborted rule.
// Insertion is sound for the same reason memoization is: every test is
// a pure function of (columns, fingerprint), so a verdict is valid
// wherever it was computed — cache keys are node-invariant.
func (e *Engine) InsertCanonical(testName string, columns int, fp task.Fingerprint, v core.Verdict) {
	if v.Err != nil {
		return
	}
	e.mu.Lock()
	e.addLocked(entry{key: cacheKey{test: testName, columns: columns, fp: fp}, verdict: v})
	e.mu.Unlock()
}

// RemapVerdict translates a canonical-order verdict into the caller's
// task order (see remapVerdict). Exported for the server's peer-mode
// analyze path, which obtains canonical-order verdicts from
// PeekCanonical and from peer fetches and must remap them exactly as
// Analyze remaps local cache hits.
func RemapVerdict(v core.Verdict, perm []int, omitChecks bool) core.Verdict {
	return remapVerdict(v, perm, omitChecks)
}

// AnalyzeAll fans a batch of requests across the worker pool and returns
// the verdicts in request order. At most Workers goroutines are spawned
// regardless of batch size (a huge batch must not allocate a goroutine
// per element just to queue on the pool semaphore). Errors (nil fields,
// Close, cancellation) are joined and returned with the partial
// results; verdicts at error positions are zero.
//
// Cancelling ctx mid-batch abandons all work promptly: every
// not-yet-started element fails with ctx.Err(), analyses waiting for a
// pool slot give up their place, and executing analyses abort at the
// test's next cancellation poll (aborted partial verdicts are never
// cached). The returned error then includes ctx.Err().
func (e *Engine) AnalyzeAll(ctx context.Context, reqs []Request) ([]core.Verdict, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	out := make([]core.Verdict, len(reqs))
	errs := make([]error, len(reqs))
	workers := cap(e.sem)
	if workers > len(reqs) {
		workers = len(reqs)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				// After cancellation, Analyze fails fast (its first check
				// is ctx.Err), so the remaining claims drain in
				// microseconds with every error position filled.
				out[i], errs[i] = e.Analyze(ctx, reqs[i])
			}
		}()
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

// runAnalysis executes the test inside a worker slot (already acquired
// by the caller), guaranteeing the slot is released and converting a
// test panic into an error so no waiter or slot is ever leaked. The
// owner's ctx reaches inside the test: GN2's λ sweep polls it, so a
// disconnected client aborts a long analysis mid-run instead of
// pinning the slot until the sweep finishes. A flight without evidence
// runs core.Decide, one with evidence the full Analyze.
func (e *Engine) runAnalysis(ctx context.Context, t core.Test, k flightKey, canon *task.Set, ss *core.ScreenStats) (v core.Verdict, err error) {
	defer func() { <-e.sem }()
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("engine: test %q panicked: %v", t.Name(), p)
		}
	}()
	// Thread the configured per-analysis parallelism to the test: GN2's
	// λ sweep fans its independent per-task checks across this many
	// goroutines (verdict-invariant, so it stays out of the cache key).
	ctx = core.WithSweepWorkers(ctx, e.sweepWorkers)
	// Attach this analysis's interval-screen counter sink.
	ctx = core.WithScreenStats(ctx, ss)
	dev := core.NewDevice(k.columns)
	if !k.evidence {
		return core.Decide(ctx, t, dev, canon), nil
	}
	return t.Analyze(ctx, dev, canon), nil
}

// Stats returns a snapshot of the engine counters.
func (e *Engine) Stats() Stats {
	e.stats.Lock()
	s := Stats{
		Hits:              e.stats.hits,
		Misses:            e.stats.misses,
		Evictions:         e.stats.evictions,
		Analyses:          e.stats.analyses,
		AnalysisNanos:     e.stats.nanos,
		Upgrades:          e.stats.upgrades,
		Workers:           cap(e.sem),
		SweepWorkers:      e.sweepWorkers,
		ScreenDecided:     e.stats.screenDecided,
		ScreenEscalated:   e.stats.screenEscalated,
		ScreenRangePruned: e.stats.screenRangePruned,
		ScreenEvals:       e.stats.screenEvals,
	}
	if len(e.stats.perTest) > 0 {
		s.Tests = make(map[string]TestStats, len(e.stats.perTest))
		for name, ts := range e.stats.perTest {
			s.Tests[name] = *ts
		}
	}
	e.stats.Unlock()
	e.mu.Lock()
	s.InFlight = len(e.inflight)
	if e.cache != nil {
		s.CacheLen = e.cache.len()
		s.CacheCap = e.cache.cap
	}
	e.mu.Unlock()
	return s
}

func (e *Engine) countHit(test string) {
	e.stats.Lock()
	e.stats.hits++
	e.perTestLocked(test).Hits++
	e.stats.Unlock()
}

func (e *Engine) countMiss(test string) {
	e.stats.Lock()
	e.stats.misses++
	e.perTestLocked(test).Misses++
	e.stats.Unlock()
}

// perTestLocked returns the mutable per-test counter row for a test
// name, creating it on first touch. Callers hold e.stats.
func (e *Engine) perTestLocked(test string) *TestStats {
	if e.stats.perTest == nil {
		e.stats.perTest = make(map[string]*TestStats)
	}
	ts := e.stats.perTest[test]
	if ts == nil {
		ts = &TestStats{}
		e.stats.perTest[test] = ts
	}
	return ts
}

// lru is a fixed-capacity least-recently-used verdict cache. Not safe for
// concurrent use; the Engine serialises access under its mutex.
type lru struct {
	cap   int
	order *list.List // front = most recent; values are *entry
	byKey map[cacheKey]*list.Element
}

// entry is one cached verdict. A decision-only entry (decided, from
// core.Decide) keeps its test and canonical set so it can be upgraded
// to a certified one later; a certified entry needs neither.
type entry struct {
	key     cacheKey
	verdict core.Verdict
	decided bool
	test    core.Test
	set     *task.Set
}

func newLRU(capacity int) *lru {
	return &lru{cap: capacity, order: list.New(), byKey: make(map[cacheKey]*list.Element)}
}

func (c *lru) len() int { return c.order.Len() }

// get returns the entry for k (nil when absent), marking it recent.
// The entry is owned by the cache: read it under the engine mutex.
func (c *lru) get(k cacheKey) *entry {
	el, ok := c.byKey[k]
	if !ok {
		return nil
	}
	c.order.MoveToFront(el)
	return el.Value.(*entry)
}

// add inserts (or refreshes) an entry and reports whether an eviction
// occurred. A decision never replaces a certified verdict of the same
// key (it would throw the certificate away); it only refreshes it.
func (c *lru) add(ent entry) (evicted bool) {
	if el, ok := c.byKey[ent.key]; ok {
		if cur := el.Value.(*entry); !ent.decided || cur.decided {
			*cur = ent
		}
		c.order.MoveToFront(el)
		return false
	}
	c.byKey[ent.key] = c.order.PushFront(&ent)
	if c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.byKey, oldest.Value.(*entry).key)
		return true
	}
	return false
}
