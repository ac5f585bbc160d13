package core

import (
	"context"
	"sync/atomic"
)

// The interval screen (DESIGN.md §6) is a certified float64 pre-filter
// in front of the exact kernels: each bound is first evaluated on
// directed-rounding intervals (internal/interval), and only bounds
// whose interval straddles the comparison escalate to internal/rat.
// The screen is verdict-invariant by construction — a strictly decided
// interval comparison is certified to agree with exact arithmetic, and
// every value that reaches a certificate is re-derived exactly — so,
// like sweep parallelism, it is carried on the context rather than on
// a Test field: it must never fragment the engine's verdict cache key.

// screenKey carries the screen on/off switch; screenStatsKey carries
// the optional counter sink.
type (
	screenKey      struct{}
	screenStatsKey struct{}
)

// ScreenStats counts what the interval screen did during one or more
// analyses: Decided is the number of bounds (GN2: λ candidates; GN1/DP:
// per-task inequalities) the screen disposed of with no exact
// arithmetic, Escalated the number that required the exact kernel —
// because the interval straddled the comparison, or because the bound
// decides a verdict or certificate and is therefore always re-verified
// exactly. RangePruned is the part of Decided disposed of by a GN2
// range evaluation (one enclosure over a whole run of candidates), and
// Evals the number of interval evaluations run, range and point alike
// (GN1/DP: one per screened bound). GN2's set-level stage counts one
// evaluation per run and, when it rejects the set, one decided and
// range-pruned bound per task (it never builds the candidate lists). The fields are atomics so parallel
// sweep workers can share one sink; kernels accumulate locally and
// flush once per task.
type ScreenStats struct {
	Decided     atomic.Uint64
	Escalated   atomic.Uint64
	RangePruned atomic.Uint64
	Evals       atomic.Uint64
}

// add flushes a local tally; nil-safe so kernels can call it
// unconditionally.
func (s *ScreenStats) add(c screenCounters) {
	if s == nil || c == (screenCounters{}) {
		return
	}
	s.Decided.Add(c.decided)
	s.Escalated.Add(c.escalated)
	s.RangePruned.Add(c.rangePruned)
	s.Evals.Add(c.evals)
}

// WithScreen returns a context that switches the kernels' interval
// pre-filter on or off. It is a test hook: the screen is always on in
// production, and the differential suites switch it off to prove it
// verdict-invariant (byte-identical to the screen-off path and the
// bigref build) and to benchmark the pure exact path.
func WithScreen(ctx context.Context, on bool) context.Context {
	return context.WithValue(ctx, screenKey{}, on)
}

// ScreenOn reports whether the interval screen is enabled on ctx
// (default true).
func ScreenOn(ctx context.Context) bool {
	if on, ok := ctx.Value(screenKey{}).(bool); ok {
		return on
	}
	return true
}

// WithScreenStats returns a context that directs the kernels' screen
// counters into s (the engine attaches one per analysis and surfaces
// the totals in its Stats and on /metrics). A nil s is allowed and
// equivalent to no sink.
func WithScreenStats(ctx context.Context, s *ScreenStats) context.Context {
	return context.WithValue(ctx, screenStatsKey{}, s)
}

// screenStatsFrom extracts the counter sink from ctx, or nil.
func screenStatsFrom(ctx context.Context) *ScreenStats {
	s, _ := ctx.Value(screenStatsKey{}).(*ScreenStats)
	return s
}

// screenCounters is a kernel-local, allocation-free tally; kernels
// accumulate into it during an analysis and flush once via
// ScreenStats.add. A nil *screenCounters doubles as "screen off".
type screenCounters struct {
	decided, escalated, rangePruned, evals uint64
}
