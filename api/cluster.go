package api

// The peer-mode (cluster) endpoint and metrics types (v1, additive): a
// fleet of fpgaschedd daemons shards verdict-cache ownership by
// consistent-hashing the canonical taskset fingerprint, and a non-owner
// fetches an owner's memoized verdict over this endpoint instead of
// re-running the analysis.
//
//	POST /v1/cache/lookup    CacheLookupRequest -> CacheLookupResponse
//
// The lookup has strict cache-hit-or-miss semantics: the serving node
// only consults its local verdict cache and NEVER starts an analysis on
// behalf of a peer, so a fetch can make a request faster but can never
// transfer analysis load. A miss is a normal 200 response with
// hit=false — the caller falls back to local cold analysis. This is
// what makes a dead or slow peer degrade gracefully to single-node
// behaviour: the worst case of the peer path is exactly the work the
// caller would have done anyway.

// CacheLookupRequest asks a peer whether its local verdict cache holds
// the analysis identified by the engine's memoization key. The taskset
// travels as its canonical fingerprint only (sort-normalized, name-free
// SHA-256 hex, see DESIGN.md §5.1) — the owner cannot and must not
// reconstruct the set, which is the structural guarantee that a lookup
// can never trigger remote cold analysis.
type CacheLookupRequest struct {
	// Columns is the device area A(H) of the analysis.
	Columns int `json:"columns"`
	// Test names the test the verdict was produced by: its registered
	// identifier ("any-nf") or the name its verdicts carry
	// ("any(DP|GN1|GN2)"), which is the one fleet peers send.
	Test string `json:"test"`
	// Fingerprint is the canonical taskset fingerprint, lowercase hex.
	Fingerprint string `json:"fingerprint"`
}

// CacheLookupResponse answers a cache lookup. On a hit the verdict is
// the full memoized certificate in the taskset's CANONICAL task order
// (the order the fingerprint hashes); the caller remaps the
// index-bearing fields into its own request order, exactly as the
// engine does for local cache hits.
type CacheLookupResponse struct {
	// Hit reports whether the serving node's cache held the verdict.
	Hit bool `json:"hit"`
	// Verdict is the canonical-order certificate; nil on a miss.
	Verdict *Verdict `json:"verdict,omitempty"`
}

// PeerMetrics counts one node's view of a single peer on the fetch
// path, as published under GET /metrics "cluster.peers".
type PeerMetrics struct {
	// FetchHits and FetchMisses count completed /v1/cache/lookup calls
	// to this peer by outcome.
	FetchHits   uint64 `json:"fetch_hits"`
	FetchMisses uint64 `json:"fetch_misses"`
	// FetchErrors counts failed calls (transport errors, timeouts,
	// non-2xx responses). Each failure feeds the per-peer breaker.
	FetchErrors uint64 `json:"fetch_errors"`
	// FetchNanos is the cumulative wall time of all fetch attempts.
	FetchNanos uint64 `json:"fetch_nanos"`
	// ConsecutiveFailures is the breaker's current failure streak; it
	// resets to zero on any success.
	ConsecutiveFailures int `json:"consecutive_failures,omitempty"`
	// BreakerOpen reports that the peer is currently skipped on the
	// fetch path (too many consecutive failures, cooldown not elapsed).
	BreakerOpen bool `json:"breaker_open,omitempty"`
}

// ClusterMetrics is the peer-mode section of GET /metrics, present only
// when the daemon runs with -peers.
type ClusterMetrics struct {
	// Self is this node's identity in the peer list.
	Self string `json:"self"`
	// LookupHits and LookupMisses count /v1/cache/lookup requests this
	// node SERVED for its peers, by outcome (the mirror image of the
	// peers' fetch counters).
	LookupHits   uint64 `json:"lookup_hits"`
	LookupMisses uint64 `json:"lookup_misses"`
	// RemoteHits counts analyses this node answered from a peer's cache
	// instead of running locally; RemoteFallbacks counts peer-path
	// attempts that degraded to local cold analysis (peer miss, error or
	// open breaker).
	RemoteHits      uint64 `json:"remote_hits"`
	RemoteFallbacks uint64 `json:"remote_fallbacks"`
	// Peers is this node's per-peer fetch accounting, keyed by peer
	// name. Self is not listed.
	Peers map[string]PeerMetrics `json:"peers"`
}
