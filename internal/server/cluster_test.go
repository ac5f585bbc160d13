package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"fpgasched/api"
	"fpgasched/internal/cluster"
	"fpgasched/internal/core"
	"fpgasched/internal/engine"
	"fpgasched/internal/task"
	"fpgasched/internal/workload"
)

// fleetNode is one member of an in-process test fleet.
type fleetNode struct {
	name string
	srv  *Server
	ts   *httptest.Server
}

// newTestFleet wires n servers into a static fleet over httptest
// listeners: each node's analyze path owner-routes through the others,
// exactly as n separate fpgaschedd processes started with -peers would.
// The listeners come up before the servers exist, so each handler
// late-binds to its Server.
func newTestFleet(t testing.TB, n int) []*fleetNode {
	t.Helper()
	nodes := make([]*fleetNode, n)
	peers := make(map[string]string, n)
	for i := range nodes {
		node := &fleetNode{name: fmt.Sprintf("node%d", i)}
		node.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			node.srv.ServeHTTP(w, r)
		}))
		nodes[i] = node
		peers[node.name] = node.ts.URL
	}
	for _, node := range nodes {
		fleet, err := cluster.New(cluster.Config{
			Self:             node.name,
			Peers:            peers,
			FetchTimeout:     5 * time.Second,
			BreakerThreshold: 2,
			BreakerCooldown:  time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		node.srv = New(Config{
			EngineConfig: engine.Config{Workers: 2, CacheSize: 128},
			Fleet:        fleet,
		})
	}
	t.Cleanup(func() {
		for _, node := range nodes {
			node.ts.Close()
			node.srv.Close()
		}
	})
	return nodes
}

// ownerOf returns the fleet node owning the set's fingerprint.
func ownerOf(t testing.TB, nodes []*fleetNode, set *task.Set) (owner, other *fleetNode) {
	t.Helper()
	name := cluster.Owner([]string{nodes[0].name, nodes[1].name}, set.Fingerprint())
	for _, n := range nodes {
		if n.name == name {
			owner = n
		} else {
			other = n
		}
	}
	if owner == nil || other == nil {
		t.Fatalf("owner %q not found among the nodes", name)
	}
	return owner, other
}

// analyzeOn runs one explained single-set analysis against a node and
// returns the response.
func analyzeOn(t testing.TB, node *fleetNode, set *task.Set) api.AnalyzeResponse {
	t.Helper()
	body := fmt.Sprintf(`{"columns":10,"tests":["GN2"],"explain":true,"taskset":%s}`, setJSON(t, set))
	var out api.AnalyzeResponse
	if resp := doJSON(t, "POST", node.ts.URL+"/v1/analyze", body, &out); resp.StatusCode != 200 {
		t.Fatalf("analyze on %s: status %d", node.name, resp.StatusCode)
	}
	return out
}

// TestTwoPeerDistributedCache is the tentpole's end-to-end proof: a
// verdict analysed cold on its owner is served to a client of the other
// node with zero new analyses anywhere, byte-identical certificate
// JSON, and a writeback that makes the repeat a purely local hit.
func TestTwoPeerDistributedCache(t *testing.T) {
	nodes := newTestFleet(t, 2)
	set := workload.Table3()
	owner, other := ownerOf(t, nodes, set)

	// Cold analysis on the owner.
	coldResp := analyzeOn(t, owner, set)
	ownerStats := owner.srv.engine.Stats()
	if ownerStats.Analyses == 0 {
		t.Fatalf("owner ran no analyses: %+v", ownerStats)
	}

	// The same set through the other node: must be answered from the
	// owner's cache with zero new analyses on either engine.
	warmResp := analyzeOn(t, other, set)
	if got := owner.srv.engine.Stats().Analyses; got != ownerStats.Analyses {
		t.Fatalf("owner analyses grew %d -> %d on a peer fetch", ownerStats.Analyses, got)
	}
	if got := other.srv.engine.Stats().Analyses; got != 0 {
		t.Fatalf("non-owner ran %d analyses, want 0", got)
	}
	cold, err := json.Marshal(coldResp.Result.Verdicts)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := json.Marshal(warmResp.Result.Verdicts)
	if err != nil {
		t.Fatal(err)
	}
	if string(cold) != string(warm) {
		t.Fatalf("peer-served certificate differs from the owner's:\nowner: %s\npeer:  %s", cold, warm)
	}

	// The cluster counters agree: one remote hit on the non-owner, one
	// lookup served by the owner.
	var ownerMetrics, otherMetrics api.MetricsResponse
	doJSON(t, "GET", owner.ts.URL+"/metrics", "", &ownerMetrics)
	doJSON(t, "GET", other.ts.URL+"/metrics", "", &otherMetrics)
	if ownerMetrics.Cluster == nil || ownerMetrics.Cluster.LookupHits != 1 {
		t.Fatalf("owner cluster metrics = %+v, want 1 served lookup hit", ownerMetrics.Cluster)
	}
	if otherMetrics.Cluster == nil || otherMetrics.Cluster.RemoteHits != 1 {
		t.Fatalf("non-owner cluster metrics = %+v, want 1 remote hit", otherMetrics.Cluster)
	}
	if pm := otherMetrics.Cluster.Peers[owner.name]; pm.FetchHits != 1 || pm.FetchErrors != 0 {
		t.Fatalf("peer counters = %+v, want exactly 1 clean fetch hit", pm)
	}

	// The writeback seeded the non-owner's LRU: a repeat is local.
	analyzeOn(t, other, set)
	doJSON(t, "GET", other.ts.URL+"/metrics", "", &otherMetrics)
	if otherMetrics.Cluster.RemoteHits != 1 {
		t.Fatalf("repeat request went back to the network: %+v", otherMetrics.Cluster)
	}
}

// TestTwoPeerPermutedSetSharesVerdict sends a permuted copy of the set
// to the non-owner: the fingerprint is order-free, so it still hits the
// owner's cache, and the checks come back remapped to the caller's
// task order.
func TestTwoPeerPermutedSetSharesVerdict(t *testing.T) {
	nodes := newTestFleet(t, 2)
	set := workload.Table3()
	owner, other := ownerOf(t, nodes, set)
	analyzeOn(t, owner, set)

	perm := set.Clone()
	for i, j := 0, len(perm.Tasks)-1; i < j; i, j = i+1, j-1 {
		perm.Tasks[i], perm.Tasks[j] = perm.Tasks[j], perm.Tasks[i]
	}
	out := analyzeOn(t, other, perm)
	if got := other.srv.engine.Stats().Analyses; got != 0 {
		t.Fatalf("permuted set re-analysed (%d analyses), want a remote hit", got)
	}
	v := out.Result.Verdicts[0]
	if !v.Schedulable {
		t.Fatalf("verdict = %+v, want schedulable (Table 3 under GN2)", v)
	}
	if len(v.Checks) != perm.Len() {
		t.Fatalf("explained verdict carries %d checks, want %d", len(v.Checks), perm.Len())
	}
	for i, chk := range v.Checks {
		if chk.TaskIndex != i {
			t.Fatalf("checks not in caller order: %+v", v.Checks)
		}
	}
}

// TestTwoPeerDeadOwnerDegrades kills the owning node and verifies the
// survivor answers every request itself with no client-visible errors,
// recording the degradation in its peer counters.
func TestTwoPeerDeadOwnerDegrades(t *testing.T) {
	nodes := newTestFleet(t, 2)
	set := workload.Table3()
	owner, other := ownerOf(t, nodes, set)

	owner.ts.Close() // the owner dies before ever seeing the set

	out := analyzeOn(t, other, set)
	if !out.Result.Schedulable {
		t.Fatalf("degraded verdict = %+v, want schedulable", out.Result)
	}
	if got := other.srv.engine.Stats().Analyses; got == 0 {
		t.Fatal("survivor must have analysed locally")
	}
	var m api.MetricsResponse
	doJSON(t, "GET", other.ts.URL+"/metrics", "", &m)
	if m.Cluster.RemoteFallbacks == 0 {
		t.Fatalf("cluster metrics = %+v, want a recorded fallback", m.Cluster)
	}
	if pm := m.Cluster.Peers[owner.name]; pm.FetchErrors == 0 {
		t.Fatalf("peer counters = %+v, want a fetch error against the dead owner", pm)
	}

	// Repeats are served from the survivor's now-warm cache: no
	// further fetch attempts pile up against the corpse.
	analyzeOn(t, other, set)
	var m2 api.MetricsResponse
	doJSON(t, "GET", other.ts.URL+"/metrics", "", &m2)
	if m2.Cluster.Peers[owner.name].FetchErrors != m.Cluster.Peers[owner.name].FetchErrors {
		t.Fatalf("repeat of a locally cached set re-probed the dead owner")
	}
}

func TestCacheLookupEndpoint(t *testing.T) {
	srv, ts := newTestServer(t)
	set := workload.Table3()
	fp := set.Fingerprint().String()

	// A miss is a well-formed 200, and a lookup never analyses.
	body := fmt.Sprintf(`{"columns":10,"test":"GN2","fingerprint":%q}`, fp)
	var miss api.CacheLookupResponse
	if resp := doJSON(t, "POST", ts.URL+"/v1/cache/lookup", body, &miss); resp.StatusCode != 200 || miss.Hit {
		t.Fatalf("cold lookup = %d %+v, want 200 miss", resp.StatusCode, miss)
	}
	if st := srv.engine.Stats(); st.Analyses != 0 {
		t.Fatalf("lookup triggered %d analyses — must be structurally impossible", st.Analyses)
	}

	// Warm the cache through the analyze path, then hit.
	abody := fmt.Sprintf(`{"columns":10,"tests":["GN2"],"taskset":%s}`, setJSON(t, set))
	if resp := doJSON(t, "POST", ts.URL+"/v1/analyze", abody, nil); resp.StatusCode != 200 {
		t.Fatalf("analyze status %d", resp.StatusCode)
	}
	var hit api.CacheLookupResponse
	if resp := doJSON(t, "POST", ts.URL+"/v1/cache/lookup", body, &hit); resp.StatusCode != 200 || !hit.Hit {
		t.Fatalf("warm lookup = %d %+v, want hit", resp.StatusCode, hit)
	}
	if hit.Verdict == nil || !hit.Verdict.Schedulable || len(hit.Verdict.Checks) != set.Len() {
		t.Fatalf("lookup verdict = %+v, want the full canonical certificate", hit.Verdict)
	}

	// Error taxonomy.
	var e api.Error
	if resp := doJSON(t, "POST", ts.URL+"/v1/cache/lookup",
		fmt.Sprintf(`{"columns":10,"test":"nope","fingerprint":%q}`, fp), &e); resp.StatusCode != 400 || e.Code != api.CodeUnknownTest {
		t.Fatalf("unknown test = %d %+v", resp.StatusCode, e)
	}
	if resp := doJSON(t, "POST", ts.URL+"/v1/cache/lookup",
		`{"columns":10,"test":"GN2","fingerprint":"zz"}`, &e); resp.StatusCode != 400 || e.Code != api.CodeInvalidRequest {
		t.Fatalf("bad fingerprint = %d %+v", resp.StatusCode, e)
	}
	if resp := doJSON(t, "POST", ts.URL+"/v1/cache/lookup",
		fmt.Sprintf(`{"columns":0,"test":"GN2","fingerprint":%q}`, fp), &e); resp.StatusCode != 400 || e.Code != api.CodeInvalidDevice {
		t.Fatalf("bad columns = %d %+v", resp.StatusCode, e)
	}
}

func TestReadyzDraining(t *testing.T) {
	srv, ts := newTestServer(t)
	var out map[string]string
	if resp := doJSON(t, "GET", ts.URL+"/readyz", "", &out); resp.StatusCode != 200 || out["status"] != "ok" {
		t.Fatalf("readyz = %d %v, want 200 ok", resp.StatusCode, out)
	}
	srv.SetDraining()
	var e api.Error
	if resp := doJSON(t, "GET", ts.URL+"/readyz", "", &e); resp.StatusCode != 503 || e.Code != api.CodeNotReady {
		t.Fatalf("draining readyz = %d %+v, want 503 not_ready", resp.StatusCode, e)
	}
	// Liveness is unaffected: the process still serves.
	var h map[string]string
	if resp := doJSON(t, "GET", ts.URL+"/healthz", "", &h); resp.StatusCode != 200 || h["status"] != "ok" {
		t.Fatalf("healthz while draining = %d %v, want 200 ok", resp.StatusCode, h)
	}
}

// TestMetricsRouteCountersConcurrent hammers instrumented routes from
// many goroutines while concurrently reading /metrics; under -race this
// pins the route-counter path (statusRecorder + the mmu-guarded map) as
// data-race free, and afterwards the counters must account for every
// request exactly.
func TestMetricsRouteCountersConcurrent(t *testing.T) {
	_, ts := newTestServer(t)
	const workers, perWorker = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				resp, err := http.Get(ts.URL + "/healthz")
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				resp, err = http.Get(ts.URL + "/metrics")
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	var m api.MetricsResponse
	doJSON(t, "GET", ts.URL+"/metrics", "", &m)
	if got := m.HTTP["healthz"].Requests; got != workers*perWorker {
		t.Fatalf("healthz requests = %d, want %d", got, workers*perWorker)
	}
	// The final read observed all prior metrics requests plus itself.
	if got := m.HTTP["metrics"].Requests; got < workers*perWorker {
		t.Fatalf("metrics requests = %d, want at least %d", got, workers*perWorker)
	}
	if m.HTTP["healthz"].Errors != 0 {
		t.Fatalf("healthz errors = %d, want 0", m.HTTP["healthz"].Errors)
	}
}

// TestCacheLookupUpgradesDecision: a non-explain analysis caches only
// the decision, so a peer's lookup of that key — which must return a
// full certificate for the peer to cache — certifies it with one exact
// replay; an explain request afterwards is a plain cache hit.
func TestCacheLookupUpgradesDecision(t *testing.T) {
	srv, ts := newTestServer(t)
	set := workload.Table2()
	abody := fmt.Sprintf(`{"columns":10,"taskset":%s}`, setJSON(t, set))
	if resp := doJSON(t, "POST", ts.URL+"/v1/analyze", abody, nil); resp.StatusCode != 200 {
		t.Fatalf("analyze status %d", resp.StatusCode)
	}
	body := fmt.Sprintf(`{"columns":10,"test":"any-nf","fingerprint":%q}`, set.Fingerprint().String())
	var hit api.CacheLookupResponse
	if resp := doJSON(t, "POST", ts.URL+"/v1/cache/lookup", body, &hit); resp.StatusCode != 200 || !hit.Hit {
		t.Fatalf("lookup = %d %+v, want hit", resp.StatusCode, hit)
	}
	perm := set.CanonicalPerm()
	canon := &task.Set{Tasks: make([]task.Task, len(perm))}
	for pos, orig := range perm {
		canon.Tasks[pos] = set.Tasks[orig]
	}
	want, err := json.Marshal(api.VerdictFromCore(core.ForNF().Analyze(context.Background(), core.NewDevice(10), canon), true))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := json.Marshal(hit.Verdict); err != nil || string(got) != string(want) {
		t.Fatalf("lookup certificate:\n got %s\nwant %s", got, want)
	}
	if st := srv.engine.Stats(); st.Analyses != 2 || st.Upgrades != 1 {
		t.Fatalf("analyses=%d upgrades=%d, want 2 and 1", st.Analyses, st.Upgrades)
	}
	ebody := fmt.Sprintf(`{"columns":10,"explain":true,"taskset":%s}`, setJSON(t, set))
	if resp := doJSON(t, "POST", ts.URL+"/v1/analyze", ebody, nil); resp.StatusCode != 200 {
		t.Fatalf("explain status %d", resp.StatusCode)
	}
	var m api.MetricsResponse
	doJSON(t, "GET", ts.URL+"/metrics", "", &m)
	if m.Engine.Analyses != 2 || m.Engine.EvidenceUpgrades != 1 {
		t.Fatalf("metrics analyses=%d evidence_upgrades=%d, want 2 and 1", m.Engine.Analyses, m.Engine.EvidenceUpgrades)
	}
}
