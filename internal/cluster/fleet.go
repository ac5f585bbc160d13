package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"fpgasched/api"
	"fpgasched/internal/core"
	"fpgasched/internal/task"
)

// DefaultFetchTimeout bounds one peer cache fetch. It is deliberately
// tight: the fetch is an optimisation in front of local analysis, so a
// slow peer must cost less than the analysis it might have saved, and
// the caller's own request context still applies on top.
const DefaultFetchTimeout = 2 * time.Second

// Config describes a node's place in a static fleet.
type Config struct {
	// Self is this node's name; it must appear in Peers.
	Self string
	// Peers maps every fleet member's name (including Self) to its base
	// URL (e.g. "http://10.0.0.2:8080"). The name list — not the URL
	// list — is the hashing universe, so every node and client must
	// agree on the names.
	Peers map[string]string
	// FetchTimeout bounds one cache fetch; 0 means DefaultFetchTimeout.
	FetchTimeout time.Duration
	// BreakerThreshold and BreakerCooldown configure the per-peer
	// breaker; non-positive values select the cluster defaults.
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// HTTPClient overrides the fetch transport (tests inject
	// httptest-backed clients); nil means a dedicated http.Client.
	HTTPClient *http.Client
}

// peer is one remote fleet member's state on the fetch path.
type peer struct {
	name    string
	base    string
	breaker *Breaker

	hits, misses, errors, nanos atomic.Uint64
}

// Fleet is a node's view of its peer group: deterministic ownership
// plus the best-effort fetch path with per-peer breakers and counters.
// Create with New; safe for concurrent use.
type Fleet struct {
	self    string
	names   []string // every member incl. self, sorted (the hash universe)
	remotes map[string]*peer
	hc      *http.Client
	timeout time.Duration

	lookupHits, lookupMisses    atomic.Uint64 // lookups served to peers
	remoteHits, remoteFallbacks atomic.Uint64 // fetch path outcomes
}

// New validates the fleet description and returns a ready Fleet.
func New(cfg Config) (*Fleet, error) {
	if cfg.Self == "" {
		return nil, fmt.Errorf("cluster: self name is required")
	}
	if _, ok := cfg.Peers[cfg.Self]; !ok {
		return nil, fmt.Errorf("cluster: self %q is not in the peer list", cfg.Self)
	}
	f := &Fleet{
		self:    cfg.Self,
		remotes: make(map[string]*peer, len(cfg.Peers)-1),
		hc:      cfg.HTTPClient,
		timeout: cfg.FetchTimeout,
	}
	if f.hc == nil {
		f.hc = &http.Client{}
	}
	if f.timeout <= 0 {
		f.timeout = DefaultFetchTimeout
	}
	for name, base := range cfg.Peers {
		if name == "" {
			return nil, fmt.Errorf("cluster: empty peer name")
		}
		f.names = append(f.names, name)
		if name == cfg.Self {
			continue // own URL unused: local lookups go through the engine
		}
		u, err := url.Parse(base)
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") {
			return nil, fmt.Errorf("cluster: peer %q URL %q must be http or https", name, base)
		}
		f.remotes[name] = &peer{
			name:    name,
			base:    strings.TrimRight(u.String(), "/"),
			breaker: NewBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown),
		}
	}
	sort.Strings(f.names)
	return f, nil
}

// Self returns this node's name.
func (f *Fleet) Self() string { return f.self }

// Members returns the sorted member names (including self).
func (f *Fleet) Members() []string { return f.names }

// Owner returns the fleet member that owns fp.
func (f *Fleet) Owner(fp task.Fingerprint) string { return Owner(f.names, fp) }

// Fetch asks the named peer's cache for the verdict under the
// node-invariant memoization key (test, columns, fp). It returns the
// canonical-order verdict rebuilt from the peer's certificate
// (VerdictFromCertificate) and true only on a confirmed cache hit; a
// miss, a transport failure, a non-2xx response, a certificate that
// does not rebuild, or an open breaker all return (zero, false) — the
// caller falls back to local analysis either way, so the fetch path
// can never make a request fail, only make it faster. Outcomes land in
// the per-peer counters and breaker (a malformed certificate is a
// fetch error); RecordRemote aggregates the node-level hit/fallback
// tallies.
func (f *Fleet) Fetch(ctx context.Context, peerName string, columns int, test string, fp task.Fingerprint) (core.Verdict, bool) {
	p := f.remotes[peerName]
	if p == nil || !p.breaker.Allow() {
		return core.Verdict{}, false
	}
	body, err := json.Marshal(api.CacheLookupRequest{
		Columns:     columns,
		Test:        test,
		Fingerprint: fp.String(),
	})
	if err != nil {
		return core.Verdict{}, false
	}
	ctx, cancel := context.WithTimeout(ctx, f.timeout)
	defer cancel()
	start := time.Now()
	hit, verdict, err := f.lookup(ctx, p.base, body)
	p.nanos.Add(uint64(time.Since(start).Nanoseconds()))
	if err != nil {
		p.errors.Add(1)
		p.breaker.Failure()
		return core.Verdict{}, false
	}
	p.breaker.Success()
	if !hit {
		p.misses.Add(1)
		return core.Verdict{}, false
	}
	p.hits.Add(1)
	return verdict, true
}

// lookup performs one POST /v1/cache/lookup round trip and rebuilds a
// hit's certificate into its canonical-order verdict.
func (f *Fleet) lookup(ctx context.Context, base string, body []byte) (bool, core.Verdict, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/cache/lookup", bytes.NewReader(body))
	if err != nil {
		return false, core.Verdict{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := f.hc.Do(req)
	if err != nil {
		return false, core.Verdict{}, err
	}
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return false, core.Verdict{}, fmt.Errorf("cluster: lookup status %d", resp.StatusCode)
	}
	var out api.CacheLookupResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return false, core.Verdict{}, err
	}
	if !out.Hit || out.Verdict == nil {
		return false, core.Verdict{}, nil
	}
	v, err := VerdictFromCertificate(*out.Verdict)
	if err != nil {
		return false, core.Verdict{}, fmt.Errorf("cluster: lookup certificate: %w", err)
	}
	return true, v, nil
}

// RecordLookupServed counts one /v1/cache/lookup request this node
// answered for a peer.
func (f *Fleet) RecordLookupServed(hit bool) {
	if hit {
		f.lookupHits.Add(1)
	} else {
		f.lookupMisses.Add(1)
	}
}

// RecordRemote counts one peer-path outcome on this node's analyze
// path: hit (verdict served from a peer's cache) or fallback (the path
// degraded to local analysis).
func (f *Fleet) RecordRemote(hit bool) {
	if hit {
		f.remoteHits.Add(1)
	} else {
		f.remoteFallbacks.Add(1)
	}
}

// Metrics snapshots the cluster counters in wire form.
func (f *Fleet) Metrics() *api.ClusterMetrics {
	m := &api.ClusterMetrics{
		Self:            f.self,
		LookupHits:      f.lookupHits.Load(),
		LookupMisses:    f.lookupMisses.Load(),
		RemoteHits:      f.remoteHits.Load(),
		RemoteFallbacks: f.remoteFallbacks.Load(),
		Peers:           make(map[string]api.PeerMetrics, len(f.remotes)),
	}
	for name, p := range f.remotes {
		failures, open := p.breaker.Snapshot()
		m.Peers[name] = api.PeerMetrics{
			FetchHits:           p.hits.Load(),
			FetchMisses:         p.misses.Load(),
			FetchErrors:         p.errors.Load(),
			FetchNanos:          p.nanos.Load(),
			ConsecutiveFailures: failures,
			BreakerOpen:         open,
		}
	}
	return m
}

// ParsePeers parses the fpgaschedd -peers flag form
// "name=url,name=url,...": every fleet member including self, comma
// separated. Names must be unique and non-empty.
func ParsePeers(s string) (map[string]string, error) {
	peers := make(map[string]string)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, u, ok := strings.Cut(part, "=")
		if !ok || name == "" || u == "" {
			return nil, fmt.Errorf("cluster: peer %q must be name=url", part)
		}
		if _, dup := peers[name]; dup {
			return nil, fmt.Errorf("cluster: duplicate peer name %q", name)
		}
		peers[name] = u
	}
	if len(peers) == 0 {
		return nil, fmt.Errorf("cluster: empty peer list")
	}
	return peers, nil
}
