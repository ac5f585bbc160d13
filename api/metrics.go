package api

import (
	"fpgasched/internal/admission"
	"fpgasched/internal/durable"
	"fpgasched/internal/engine"
)

// EngineStats is the wire form of the analysis engine's counters, as
// published on GET /metrics.
type EngineStats struct {
	// Hits/Misses/Evictions count verdict-cache events; a coalesced
	// request (served by an identical in-flight analysis) is a hit.
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	// Analyses counts test executions actually performed; AnalysisNanos
	// is their cumulative wall time.
	Analyses      uint64 `json:"analyses"`
	AnalysisNanos uint64 `json:"analysis_nanos"`
	// EvidenceUpgrades counts the analyses that certified a cached
	// decision-only verdict: non-explain misses cache the decision
	// alone, and the first explain request or peer cache lookup on such
	// an entry replays the full analysis once (also counted in Misses
	// and Analyses). Omitted when zero (additive v1 field).
	EvidenceUpgrades uint64 `json:"evidence_upgrades,omitempty"`
	// InFlight is the number of distinct analyses currently owned —
	// executing or queued (coalesced waiters share one entry).
	InFlight int `json:"in_flight"`
	CacheLen int `json:"cache_len"`
	CacheCap int `json:"cache_cap"`
	Workers  int `json:"workers"`
	// Screen is deprecated and always true: the kernels' certified
	// interval pre-filter can no longer be switched off. It stays on the
	// wire so the v1 schema remains additive. ScreenDecided and
	// ScreenEscalated aggregate, over completed analyses, the bounds the
	// pre-filter disposed of without exact arithmetic vs the bounds
	// escalated to the exact kernel (additive v1 fields).
	Screen          bool   `json:"screen"`
	ScreenDecided   uint64 `json:"screen_decided,omitempty"`
	ScreenEscalated uint64 `json:"screen_escalated,omitempty"`
	// Tests breaks the cache and analysis counters down by test name, so
	// operators can see which registry entries are hot and how well each
	// memoizes. Keys are canonical registry identifiers. Absent until the
	// engine has served at least one analysis (additive v1 field).
	Tests map[string]TestCounters `json:"tests,omitempty"`
}

// TestCounters is the per-test-name slice of the engine counters: cache
// hits, misses, analyses actually executed, and the interval screen's
// decided/escalated bound counts for one registry entry.
type TestCounters struct {
	Hits            uint64 `json:"hits"`
	Misses          uint64 `json:"misses"`
	Analyses        uint64 `json:"analyses"`
	ScreenDecided   uint64 `json:"screen_decided,omitempty"`
	ScreenEscalated uint64 `json:"screen_escalated,omitempty"`
}

// EngineStatsFrom converts an engine snapshot to its wire form.
func EngineStatsFrom(s engine.Stats) EngineStats {
	out := EngineStats{
		Hits:             s.Hits,
		Misses:           s.Misses,
		Evictions:        s.Evictions,
		Analyses:         s.Analyses,
		AnalysisNanos:    s.AnalysisNanos,
		EvidenceUpgrades: s.Upgrades,
		InFlight:         s.InFlight,
		CacheLen:         s.CacheLen,
		CacheCap:         s.CacheCap,
		Workers:          s.Workers,
		Screen:           true,
		ScreenDecided:    s.ScreenDecided,
		ScreenEscalated:  s.ScreenEscalated,
	}
	if len(s.Tests) > 0 {
		out.Tests = make(map[string]TestCounters, len(s.Tests))
		for name, c := range s.Tests {
			out.Tests[name] = TestCounters{
				Hits:            c.Hits,
				Misses:          c.Misses,
				Analyses:        c.Analyses,
				ScreenDecided:   c.ScreenDecided,
				ScreenEscalated: c.ScreenEscalated,
			}
		}
	}
	return out
}

// RouteMetrics accumulates per-route HTTP counters.
type RouteMetrics struct {
	Requests uint64 `json:"requests"`
	// Errors counts responses with status >= 400.
	Errors     uint64 `json:"errors"`
	TotalNanos uint64 `json:"total_nanos"`
}

// MetricsResponse is the plain-JSON GET /metrics document
// (expvar-style: flat, counters only, no exposition-format dependency).
type MetricsResponse struct {
	Engine EngineStats             `json:"engine"`
	HTTP   map[string]RouteMetrics `json:"http"`
	// Cluster is the peer-mode section: per-peer fetch health and the
	// served-lookup counters. Absent on single-node daemons (additive
	// v1 field).
	Cluster *ClusterMetrics `json:"cluster,omitempty"`
	// WAL is the durability section: write-ahead-log and snapshot
	// counters plus what recovery replayed at startup. Absent when the
	// daemon runs without -state-dir (additive v1 field).
	WAL *WALMetrics `json:"wal,omitempty"`
	// Admission aggregates the admission controllers' counters across
	// all tenants, including how many analyses the persistent
	// incremental states served versus full from-scratch runs. Absent
	// until at least one controller exists (additive v1 field).
	Admission *AdmissionMetrics `json:"admission,omitempty"`
}

// AdmissionMetrics is the wire form of the admission counters, summed
// over every live controller. A request runs one or more test analyses;
// IncrementalHits counts analyses served by a test's persistent
// incremental state, FullRuns counts from-scratch analyses (no state,
// cold state, or delta logic unable to certify the verdict).
type AdmissionMetrics struct {
	Controllers     int    `json:"controllers"`
	Requests        uint64 `json:"requests"`
	Admitted        uint64 `json:"admitted"`
	Rejected        uint64 `json:"rejected"`
	Aborted         uint64 `json:"aborted,omitempty"`
	Releases        uint64 `json:"releases"`
	IncrementalHits uint64 `json:"incremental_hits"`
	FullRuns        uint64 `json:"full_runs"`
}

// Add folds one controller's counter snapshot into the aggregate.
func (m *AdmissionMetrics) Add(s admission.Stats) {
	m.Controllers++
	m.Requests += s.Requests
	m.Admitted += s.Admitted
	m.Rejected += s.Rejected
	m.Aborted += s.Aborted
	m.Releases += s.Releases
	m.IncrementalHits += s.IncrementalHits
	m.FullRuns += s.FullRuns
}

// WALMetrics is the wire form of the durable store's counters.
type WALMetrics struct {
	// Records and Bytes count appended mutation records since startup
	// (frame overhead included in Bytes); WALBytes is the current log
	// file size, which snapshot compaction resets.
	Records  uint64 `json:"records"`
	Bytes    uint64 `json:"bytes"`
	WALBytes uint64 `json:"wal_bytes"`
	// Fsyncs counts explicit flushes under the configured -fsync
	// policy; Snapshots counts compactions.
	Fsyncs    uint64 `json:"fsyncs"`
	Snapshots uint64 `json:"snapshots"`
	// ReplayedRecords/ReplaySkipped/TruncatedBytes/ReplayNanos describe
	// the startup recovery: log records applied, records skipped (below
	// the snapshot's sequence or referencing since-deleted
	// controllers), torn-tail bytes discarded via CRC, and wall clock
	// spent replaying.
	ReplayedRecords uint64 `json:"replayed_records"`
	ReplaySkipped   uint64 `json:"replay_skipped,omitempty"`
	TruncatedBytes  uint64 `json:"truncated_bytes,omitempty"`
	ReplayNanos     uint64 `json:"replay_nanos"`
	// Degraded reports that a disk write failed and the controllers are
	// read-only (mutations return store_failed); LastError describes
	// the failure.
	Degraded  bool   `json:"degraded,omitempty"`
	LastError string `json:"last_error,omitempty"`
}

// WALMetricsFrom converts a durable store snapshot to its wire form.
func WALMetricsFrom(m durable.Metrics) WALMetrics {
	return WALMetrics{
		Records:         m.Records,
		Bytes:           m.Bytes,
		WALBytes:        m.WALBytes,
		Fsyncs:          m.Fsyncs,
		Snapshots:       m.Snapshots,
		ReplayedRecords: m.ReplayedRecords,
		ReplaySkipped:   m.ReplaySkipped,
		TruncatedBytes:  m.ReplayTruncatedBytes,
		ReplayNanos:     m.ReplayNanos,
		Degraded:        m.Degraded,
		LastError:       m.LastError,
	}
}

// HealthResponse answers GET /healthz (liveness) and, on the ready
// path, GET /readyz (readiness): both are {"status":"ok"} with a 200.
// A not-ready node answers /readyz with a 503 Error document carrying
// code not_ready instead — load balancers key on the status code,
// fleet clients on the code — while /healthz stays 200 for as long as
// the process serves at all.
type HealthResponse struct {
	Status string `json:"status"`
}
