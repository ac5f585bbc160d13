package server

// Server-level durability tests: the differential recovery pin (live
// state vs. state rebuilt from the WAL must be byte-identical on the
// wire), the torn-tail and compaction variants, the delete error
// taxonomy, degraded read-only mode, readiness gating, and the
// concurrent stress test that -race audits in CI.

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"fpgasched/api"
	"fpgasched/internal/durable"
	"fpgasched/internal/engine"
)

// newDurableServer opens a durable store in opts.Dir and serves with it
// attached from birth (the Config.Store path tests use). The store is
// deliberately NOT closed on cleanup — abandoning it simulates a crash,
// which is the point of most of these tests.
func newDurableServer(t testing.TB, opts durable.Options) (*Server, *httptest.Server, *durable.Store) {
	t.Helper()
	st, err := durable.Open(opts)
	if err != nil {
		t.Fatalf("durable.Open: %v", err)
	}
	srv := New(Config{EngineConfig: engine.Config{Workers: 4, CacheSize: 128}, Store: st})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return srv, ts, st
}

// recoverServer replays opts.Dir into a fresh server exactly the way
// fpgaschedd boots: born not-ready, Restore from the recovered image,
// attach the store, then mark ready.
func recoverServer(t testing.TB, opts durable.Options) (*Server, *httptest.Server, *durable.Store) {
	t.Helper()
	st, err := durable.Open(opts)
	if err != nil {
		t.Fatalf("durable.Open (recovery): %v", err)
	}
	srv := New(Config{EngineConfig: engine.Config{Workers: 4, CacheSize: 128}, StartNotReady: true})
	if err := srv.Restore(st.State()); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	srv.AttachStore(st)
	srv.MarkReady()
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return srv, ts, st
}

// driveDurableHistory runs a seeded mixed workload: two admission
// controllers and one placement controller surviving, with releases,
// a rejection, and a created-then-deleted controller of each kind mixed
// in so every record op appears in the log.
func driveDurableHistory(t testing.TB, url string) {
	t.Helper()
	mustStatus := func(method, path, body string, want int) {
		t.Helper()
		if resp := doJSON(t, method, url+path, body, nil); resp.StatusCode != want {
			t.Fatalf("%s %s = %d, want %d", method, path, resp.StatusCode, want)
		}
	}
	mustAdmit := func(path, body string, want bool) {
		t.Helper()
		var d api.AdmitResponse
		doJSON(t, "POST", url+path, body, &d)
		if d.Admitted != want {
			t.Fatalf("POST %s admitted = %v, want %v", path, d.Admitted, want)
		}
	}
	mustStatus("PUT", "/v1/controllers/edge0", `{"columns":10}`, 201)
	mustStatus("PUT", "/v1/controllers/edge1", `{"columns":6,"tests":["GN2"]}`, 201)
	mustAdmit("/v1/controllers/edge0/admit", `{"name":"a","c":"2","d":"5","t":"5","a":5}`, true)
	mustAdmit("/v1/controllers/edge0/admit", `{"name":"b","c":"2","d":"5","t":"5","a":5}`, true)
	mustAdmit("/v1/controllers/edge0/admit", `{"name":"c","c":"2","d":"5","t":"5","a":5}`, false)
	mustStatus("DELETE", "/v1/controllers/edge0/tasks/a", "", 204)
	mustAdmit("/v1/controllers/edge0/admit", `{"name":"c","c":"2","d":"5","t":"5","a":5}`, true)
	mustAdmit("/v1/controllers/edge1/admit", `{"name":"d","c":"1","d":"4","t":"4","a":3}`, true)
	mustStatus("PUT", "/v1/controllers/scratch", `{"columns":4}`, 201)
	mustStatus("DELETE", "/v1/controllers/scratch", "", 204)

	mustStatus("PUT", "/v1/placement/controllers/grid", `{"width":8,"height":8,"heuristic":"bottom-left"}`, 201)
	mustAdmit("/v1/placement/controllers/grid/admit", `{"name":"p1","c":"2","d":"9","t":"9","w":2,"h":3}`, true)
	mustAdmit("/v1/placement/controllers/grid/admit", `{"name":"p2","c":"2","d":"9","t":"9","w":1,"h":1}`, true)
	mustAdmit("/v1/placement/controllers/grid/admit", `{"name":"p3","c":"2","d":"9","t":"9","w":3,"h":3}`, true)
	mustStatus("DELETE", "/v1/placement/controllers/grid/tasks/p2", "", 204)
	mustStatus("PUT", "/v1/placement/controllers/spare", `{"width":4,"height":4,"heuristic":"best-area"}`, 201)
	mustStatus("DELETE", "/v1/placement/controllers/spare", "", 204)
}

// statePaths are the wire documents recovery must reproduce
// byte-for-byte after driveDurableHistory.
var statePaths = []string{
	"/v1/controllers",
	"/v1/controllers/edge0/resident",
	"/v1/controllers/edge1/resident",
	"/v1/placement/controllers",
	"/v1/placement/controllers/grid/resident",
}

// fetchBytes GETs one path and returns the raw body.
func fetchBytes(t testing.TB, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s = %d: %s", url, resp.StatusCode, data)
	}
	return data
}

func captureState(t testing.TB, url string) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte, len(statePaths))
	for _, p := range statePaths {
		out[p] = fetchBytes(t, url+p)
	}
	return out
}

// probeCertificate admits a probe task into edge0, captures the full
// admit response (certificate included), and releases the probe again.
// Admission analyses are deterministic, so a recovered controller must
// serve the identical bytes for the identical probe.
func probeCertificate(t testing.TB, url string) []byte {
	t.Helper()
	resp, err := http.Post(url+"/v1/controllers/edge0/admit", "application/json",
		strings.NewReader(`{"name":"probe","c":"1","d":"6","t":"6","a":2}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("probe admit = %d: %s", resp.StatusCode, data)
	}
	if resp := doJSON(t, "DELETE", url+"/v1/controllers/edge0/tasks/probe", "", nil); resp.StatusCode != 204 {
		t.Fatalf("probe release = %d", resp.StatusCode)
	}
	return data
}

func diffState(t *testing.T, want, got map[string][]byte) {
	t.Helper()
	for _, p := range statePaths {
		if string(want[p]) != string(got[p]) {
			t.Errorf("recovered %s differs:\nlive:      %s\nrecovered: %s", p, want[p], got[p])
		}
	}
}

func walMetrics(t testing.TB, url string) *api.WALMetrics {
	t.Helper()
	var m api.MetricsResponse
	if resp := doJSON(t, "GET", url+"/metrics", "", &m); resp.StatusCode != 200 {
		t.Fatalf("metrics = %d", resp.StatusCode)
	}
	return m.WAL
}

func TestRecoveryDifferential(t *testing.T) {
	dir := t.TempDir()
	_, live, _ := newDurableServer(t, durable.Options{Dir: dir, Fsync: durable.FsyncNever})
	driveDurableHistory(t, live.URL)
	want := captureState(t, live.URL)
	wantCert := probeCertificate(t, live.URL)
	live.Close() // crash: the store is abandoned un-Closed

	_, rec, _ := recoverServer(t, durable.Options{Dir: dir, Fsync: durable.FsyncNever})
	diffState(t, want, captureState(t, rec.URL))
	if got := probeCertificate(t, rec.URL); string(got) != string(wantCert) {
		t.Errorf("recovered probe certificate differs:\nlive:      %s\nrecovered: %s", wantCert, got)
	}
	wal := walMetrics(t, rec.URL)
	if wal == nil || wal.ReplayedRecords == 0 {
		t.Errorf("wal metrics after recovery = %+v, want replayed_records > 0", wal)
	}
	// Deleted-in-history tenants must not be resurrected.
	for _, gone := range []string{"/v1/controllers/scratch/resident", "/v1/placement/controllers/spare/resident"} {
		if resp := doJSON(t, "GET", rec.URL+gone, "", nil); resp.StatusCode != 404 {
			t.Errorf("GET %s after recovery = %d, want 404", gone, resp.StatusCode)
		}
	}
}

func TestRecoveryDiscardsTornTail(t *testing.T) {
	dir := t.TempDir()
	_, live, _ := newDurableServer(t, durable.Options{Dir: dir, Fsync: durable.FsyncNever})
	driveDurableHistory(t, live.URL)
	want := captureState(t, live.URL)
	live.Close()

	// A crash mid-append leaves a torn frame at the tail; recovery must
	// discard exactly it and keep every intact record.
	f, err := os.OpenFile(filepath.Join(dir, "wal.log"), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x40, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 'x', 'y'}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	_, rec, _ := recoverServer(t, durable.Options{Dir: dir, Fsync: durable.FsyncNever})
	diffState(t, want, captureState(t, rec.URL))
	wal := walMetrics(t, rec.URL)
	if wal == nil || wal.TruncatedBytes == 0 {
		t.Errorf("wal metrics = %+v, want truncated_bytes > 0", wal)
	}
}

func TestRecoveryAfterCompaction(t *testing.T) {
	dir := t.TempDir()
	// A tiny threshold forces snapshot compaction mid-history, so
	// recovery exercises the snapshot-then-log path.
	opts := durable.Options{Dir: dir, Fsync: durable.FsyncNever, SnapshotBytes: 256}
	_, live, st := newDurableServer(t, opts)
	driveDurableHistory(t, live.URL)
	if st.Metrics().Snapshots == 0 {
		t.Fatal("history did not trigger compaction; lower SnapshotBytes")
	}
	want := captureState(t, live.URL)
	live.Close()

	_, rec, _ := recoverServer(t, opts)
	diffState(t, want, captureState(t, rec.URL))
}

// failingStore fails every Append after the first okAppends, letting
// tests drive the server into degraded mode at a chosen mutation.
type failingStore struct {
	mu        sync.Mutex
	okAppends int
	appended  int
}

var errDiskGone = errors.New("write wal.log: no space left on device")

func (f *failingStore) Append(durable.Record) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.appended >= f.okAppends {
		return errDiskGone
	}
	f.appended++
	return nil
}

func (f *failingStore) Metrics() durable.Metrics {
	f.mu.Lock()
	defer f.mu.Unlock()
	return durable.Metrics{Records: uint64(f.appended)}
}

func newFailingServer(t testing.TB, okAppends int) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(Config{EngineConfig: engine.Config{Workers: 2, CacheSize: 128}, Store: &failingStore{okAppends: okAppends}})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return srv, ts
}

func TestDeleteErrorTaxonomy(t *testing.T) {
	// Unknown controller: 404 not_found, on both surfaces.
	_, plain := newTestServer(t)
	var e api.Error
	if resp := doJSON(t, "DELETE", plain.URL+"/v1/controllers/ghost", "", &e); resp.StatusCode != 404 || e.Code != api.CodeNotFound {
		t.Errorf("1-D unknown delete = %d %q, want 404 not_found", resp.StatusCode, e.Code)
	}
	e = api.Error{}
	if resp := doJSON(t, "DELETE", plain.URL+"/v1/placement/controllers/ghost", "", &e); resp.StatusCode != 404 || e.Code != api.CodeNotFound {
		t.Errorf("2-D unknown delete = %d %q, want 404 not_found", resp.StatusCode, e.Code)
	}

	// Store failure on delete: 503 store_failed — distinct from 404, so
	// an SDK retry loop can tell "already gone" from "not recorded" —
	// and the tenant must survive (the delete was rolled back).
	_, ts := newFailingServer(t, 2) // two creates succeed, then the disk dies
	if resp := doJSON(t, "PUT", ts.URL+"/v1/controllers/edge0", `{"columns":10}`, nil); resp.StatusCode != 201 {
		t.Fatalf("create = %d", resp.StatusCode)
	}
	if resp := doJSON(t, "PUT", ts.URL+"/v1/placement/controllers/grid", `{"width":4,"height":4,"heuristic":"bottom-left"}`, nil); resp.StatusCode != 201 {
		t.Fatalf("placement create = %d", resp.StatusCode)
	}
	e = api.Error{}
	if resp := doJSON(t, "DELETE", ts.URL+"/v1/controllers/edge0", "", &e); resp.StatusCode != 503 || e.Code != api.CodeStoreFailed {
		t.Errorf("1-D delete with dead store = %d %q, want 503 store_failed", resp.StatusCode, e.Code)
	}
	e = api.Error{}
	if resp := doJSON(t, "DELETE", ts.URL+"/v1/placement/controllers/grid", "", &e); resp.StatusCode != 503 || e.Code != api.CodeStoreFailed {
		t.Errorf("2-D delete with dead store = %d %q, want 503 store_failed", resp.StatusCode, e.Code)
	}
	// Both tenants rolled back into existence; reads are not gated.
	if resp := doJSON(t, "GET", ts.URL+"/v1/controllers/edge0/resident", "", nil); resp.StatusCode != 200 {
		t.Errorf("resident after failed delete = %d, want 200", resp.StatusCode)
	}
	if resp := doJSON(t, "GET", ts.URL+"/v1/placement/controllers/grid/resident", "", nil); resp.StatusCode != 200 {
		t.Errorf("placement resident after failed delete = %d, want 200", resp.StatusCode)
	}
}

func TestStoreFailureLatchesReadOnly(t *testing.T) {
	_, ts := newFailingServer(t, 1) // the create succeeds, the admit does not
	if resp := doJSON(t, "PUT", ts.URL+"/v1/controllers/edge0", `{"columns":10}`, nil); resp.StatusCode != 201 {
		t.Fatalf("create = %d", resp.StatusCode)
	}
	var e api.Error
	if resp := doJSON(t, "POST", ts.URL+"/v1/controllers/edge0/admit", `{"name":"a","c":"2","d":"5","t":"5","a":5}`, &e); resp.StatusCode != 503 || e.Code != api.CodeStoreFailed {
		t.Fatalf("admit with dead store = %d %q, want 503 store_failed", resp.StatusCode, e.Code)
	}
	// The admission was rolled back: nothing resident.
	var res api.ResidentResponse
	doJSON(t, "GET", ts.URL+"/v1/controllers/edge0/resident", "", &res)
	if res.Count != 0 {
		t.Errorf("resident after rolled-back admit = %d tasks, want 0", res.Count)
	}
	// Degraded latched: every further mutation 503s without touching
	// state, including ones that never reach the store.
	e = api.Error{}
	if resp := doJSON(t, "PUT", ts.URL+"/v1/controllers/other", `{"columns":4}`, &e); resp.StatusCode != 503 || e.Code != api.CodeStoreFailed {
		t.Errorf("create while degraded = %d %q, want 503 store_failed", resp.StatusCode, e.Code)
	}
	// Reads and analyses still serve.
	if resp := doJSON(t, "GET", ts.URL+"/v1/controllers", "", nil); resp.StatusCode != 200 {
		t.Errorf("list while degraded = %d, want 200", resp.StatusCode)
	}
	if resp := doJSON(t, "POST", ts.URL+"/v1/analyze", `{"columns":10,"tests":["DP"],"taskset":{"tasks":[{"c":"1","d":"2","t":"2","a":1}]}}`, nil); resp.StatusCode != 200 {
		t.Errorf("analyze while degraded = %d, want 200", resp.StatusCode)
	}
	// /metrics reports the latch even though the fake store does not.
	wal := walMetrics(t, ts.URL)
	if wal == nil || !wal.Degraded {
		t.Errorf("wal metrics = %+v, want degraded", wal)
	}
}

// admissionMetrics fetches the /metrics admission section.
func admissionMetrics(t testing.TB, url string) api.AdmissionMetrics {
	t.Helper()
	var m api.MetricsResponse
	doJSON(t, "GET", url+"/metrics", "", &m)
	if m.Admission == nil {
		t.Fatal("/metrics has no admission section")
	}
	return *m.Admission
}

// TestStoreFailureRollbackCounters: a mutation rolled back because its
// WAL append failed leaves the admission counters as if it had never
// been admitted or released. A rolled-back admit answered 503, so it
// counts as aborted — neither admitted nor rejected — and neither
// rollback counts a release; Requests stays Admitted+Rejected+Aborted.
func TestStoreFailureRollbackCounters(t *testing.T) {
	const admit = `{"name":"a","c":"2","d":"5","t":"5","a":5}`
	check := func(label string, got, want api.AdmissionMetrics) {
		t.Helper()
		got.IncrementalHits, got.FullRuns = 0, 0
		if got != want {
			t.Errorf("%s: admission metrics = %+v, want %+v", label, got, want)
		}
		if got.Requests != got.Admitted+got.Rejected+got.Aborted {
			t.Errorf("%s: requests %d != admitted %d + rejected %d + aborted %d",
				label, got.Requests, got.Admitted, got.Rejected, got.Aborted)
		}
	}

	// The create is logged, the admit's append fails.
	_, ts := newFailingServer(t, 1)
	if resp := doJSON(t, "PUT", ts.URL+"/v1/controllers/edge0", `{"columns":10}`, nil); resp.StatusCode != 201 {
		t.Fatalf("create = %d", resp.StatusCode)
	}
	var e api.Error
	if resp := doJSON(t, "POST", ts.URL+"/v1/controllers/edge0/admit", admit, &e); resp.StatusCode != 503 || e.Code != api.CodeStoreFailed {
		t.Fatalf("admit with dead store = %d %q, want 503 store_failed", resp.StatusCode, e.Code)
	}
	check("rolled-back admit", admissionMetrics(t, ts.URL), api.AdmissionMetrics{Controllers: 1, Requests: 1, Aborted: 1})

	// The create and the admit are logged, the release's append fails.
	_, ts = newFailingServer(t, 2)
	if resp := doJSON(t, "PUT", ts.URL+"/v1/controllers/edge0", `{"columns":10}`, nil); resp.StatusCode != 201 {
		t.Fatalf("create = %d", resp.StatusCode)
	}
	var ar api.AdmitResponse
	if resp := doJSON(t, "POST", ts.URL+"/v1/controllers/edge0/admit", admit, &ar); resp.StatusCode != 200 || !ar.Admitted {
		t.Fatalf("admit = %d %+v, want 200 admitted", resp.StatusCode, ar)
	}
	e = api.Error{}
	if resp := doJSON(t, "DELETE", ts.URL+"/v1/controllers/edge0/tasks/a", "", &e); resp.StatusCode != 503 || e.Code != api.CodeStoreFailed {
		t.Fatalf("release with dead store = %d %q, want 503 store_failed", resp.StatusCode, e.Code)
	}
	var res api.ResidentResponse
	doJSON(t, "GET", ts.URL+"/v1/controllers/edge0/resident", "", &res)
	if res.Count != 1 {
		t.Errorf("resident after rolled-back release = %d tasks, want 1", res.Count)
	}
	check("rolled-back release", admissionMetrics(t, ts.URL), api.AdmissionMetrics{Controllers: 1, Requests: 1, Admitted: 1})
}

func TestReadinessGatesControllers(t *testing.T) {
	srv := New(Config{EngineConfig: engine.Config{Workers: 2, CacheSize: 128}, StartNotReady: true})
	ts := httptest.NewServer(srv)
	defer func() { ts.Close(); srv.Close() }()

	var e api.Error
	if resp := doJSON(t, "GET", ts.URL+"/readyz", "", &e); resp.StatusCode != 503 || e.Code != api.CodeNotReady {
		t.Errorf("readyz while replaying = %d %q, want 503 not_ready", resp.StatusCode, e.Code)
	}
	for _, probe := range []struct{ method, path, body string }{
		{"GET", "/v1/controllers", ""},
		{"PUT", "/v1/controllers/x", `{"columns":10}`},
		{"POST", "/v1/controllers/x/admit", `{"name":"a","c":"1","d":"2","t":"2","a":1}`},
		{"DELETE", "/v1/controllers/x/tasks/a", ""},
		{"GET", "/v1/controllers/x/resident", ""},
		{"GET", "/v1/placement/controllers", ""},
		{"PUT", "/v1/placement/controllers/y", `{"width":4,"height":4,"heuristic":"bottom-left"}`},
		{"GET", "/v1/placement/controllers/y/resident", ""},
	} {
		e = api.Error{}
		if resp := doJSON(t, probe.method, ts.URL+probe.path, probe.body, &e); resp.StatusCode != 503 || e.Code != api.CodeNotReady {
			t.Errorf("%s %s while replaying = %d %q, want 503 not_ready", probe.method, probe.path, resp.StatusCode, e.Code)
		}
	}
	// Liveness and the stateless surfaces are unaffected.
	if resp := doJSON(t, "GET", ts.URL+"/healthz", "", nil); resp.StatusCode != 200 {
		t.Errorf("healthz while replaying = %d, want 200", resp.StatusCode)
	}
	if resp := doJSON(t, "POST", ts.URL+"/v1/analyze", `{"columns":10,"tests":["DP"],"taskset":{"tasks":[{"c":"1","d":"2","t":"2","a":1}]}}`, nil); resp.StatusCode != 200 {
		t.Errorf("analyze while replaying = %d, want 200", resp.StatusCode)
	}

	srv.MarkReady()
	if resp := doJSON(t, "GET", ts.URL+"/readyz", "", nil); resp.StatusCode != 200 {
		t.Errorf("readyz after MarkReady = %d, want 200", resp.StatusCode)
	}
	if resp := doJSON(t, "PUT", ts.URL+"/v1/controllers/x", `{"columns":10}`, nil); resp.StatusCode != 201 {
		t.Errorf("create after MarkReady = %d, want 201", resp.StatusCode)
	}
}

func TestMetricsOmitsWALWithoutStore(t *testing.T) {
	_, ts := newTestServer(t)
	if wal := walMetrics(t, ts.URL); wal != nil {
		t.Errorf("wal section without a store = %+v, want absent", wal)
	}
}

func TestMetricsWALCounters(t *testing.T) {
	dir := t.TempDir()
	_, ts, _ := newDurableServer(t, durable.Options{Dir: dir, Fsync: durable.FsyncAlways})
	driveDurableHistory(t, ts.URL)
	wal := walMetrics(t, ts.URL)
	if wal == nil {
		t.Fatal("wal section absent with a store attached")
	}
	// driveDurableHistory performs exactly 16 successful mutations.
	if wal.Records != 16 {
		t.Errorf("wal.records = %d, want 16", wal.Records)
	}
	if wal.Fsyncs != wal.Records {
		t.Errorf("wal.fsyncs = %d under -fsync always, want %d", wal.Fsyncs, wal.Records)
	}
	if wal.Bytes == 0 || wal.WALBytes == 0 {
		t.Errorf("wal byte counters = %+v, want nonzero", wal)
	}
}

// parkingStore holds every controller and placement-controller delete
// at the store until the test releases it, so a request can race a
// delete whose record is not yet logged.
type parkingStore struct {
	*durable.Store
	parked  chan struct{}
	release chan struct{}
}

func (p *parkingStore) Append(r durable.Record) error {
	if r.Op == durable.OpDeleteController || r.Op == durable.OpDeletePlacement {
		p.parked <- struct{}{}
		<-p.release
	}
	return p.Store.Append(r)
}

// TestDeleteRecreateRecovers: a PUT racing a DELETE of the same name
// must not win before the delete is logged. If it did, its create
// record would land ahead of the delete's, recovery would skip the
// create as a duplicate and then apply the delete, and a controller
// the client saw created (201) would be gone after a restart. Under
// write-ahead the name stays taken until the delete is durable, so the
// racing PUT answers 409 and the recovered registries equal the live
// ones on both surfaces.
func TestDeleteRecreateRecovers(t *testing.T) {
	dir := t.TempDir()
	opts := durable.Options{Dir: dir, Fsync: durable.FsyncNever}
	st, err := durable.Open(opts)
	if err != nil {
		t.Fatalf("durable.Open: %v", err)
	}
	ps := &parkingStore{Store: st, parked: make(chan struct{}), release: make(chan struct{})}
	srv := New(Config{EngineConfig: engine.Config{Workers: 2, CacheSize: 128}, Store: ps})
	live := httptest.NewServer(srv)
	t.Cleanup(func() { live.Close(); srv.Close() })

	for _, c := range []struct{ path, body string }{
		{"/v1/controllers/x", `{"columns":4}`},
		{"/v1/placement/controllers/x", `{"width":4,"height":4,"heuristic":"bottom-left"}`},
	} {
		if resp := doJSON(t, "PUT", live.URL+c.path, c.body, nil); resp.StatusCode != 201 {
			t.Fatalf("PUT %s = %d, want 201", c.path, resp.StatusCode)
		}
		deleted := make(chan error, 1)
		go func() {
			code, body, err := rawDo("DELETE", live.URL+c.path, "")
			if err == nil && code != 204 {
				err = fmt.Errorf("DELETE %s = %d %s, want 204", c.path, code, body)
			}
			deleted <- err
		}()
		select {
		case <-ps.parked:
		case <-time.After(10 * time.Second):
			t.Fatalf("DELETE %s never reached the store", c.path)
		}
		var e api.Error
		resp := doJSON(t, "PUT", live.URL+c.path, c.body, &e)
		ps.release <- struct{}{}
		if resp.StatusCode != 409 || e.Code != api.CodeConflict {
			t.Errorf("PUT %s while its delete is unlogged = %d %q, want 409 conflict (the name stays taken until the delete is durable)",
				c.path, resp.StatusCode, e.Code)
		}
		if err := <-deleted; err != nil {
			t.Error(err)
		}
	}
	want := map[string][]byte{
		"/v1/controllers":           fetchBytes(t, live.URL+"/v1/controllers"),
		"/v1/placement/controllers": fetchBytes(t, live.URL+"/v1/placement/controllers"),
	}
	if n := st.Metrics().ReplaySkipped; n != 0 {
		t.Errorf("live store skipped %d records, want 0", n)
	}
	live.Close()
	_, rec, _ := recoverServer(t, opts)
	for p, w := range want {
		if got := fetchBytes(t, rec.URL+p); string(got) != string(w) {
			t.Errorf("recovered %s differs:\nlive:      %s\nrecovered: %s", p, w, got)
		}
	}
}

// TestConcurrentDurableMutations is the -race stress (CI runs this
// package under -race): concurrent admit/release/resident/delete
// traffic over one admission and one placement controller with a real
// store, plus two workers racing create/delete of one side controller
// name on each surface, then a recovery pass proving the log stayed
// consistent with whatever interleaving won. Under write-ahead every
// live record applies cleanly, so the store must have skipped none.
func TestConcurrentDurableMutations(t *testing.T) {
	dir := t.TempDir()
	_, ts, st := newDurableServer(t, durable.Options{Dir: dir, Fsync: durable.FsyncNever})
	if resp := doJSON(t, "PUT", ts.URL+"/v1/controllers/c1", `{"columns":32,"tests":["GN2"]}`, nil); resp.StatusCode != 201 {
		t.Fatalf("create = %d", resp.StatusCode)
	}
	if resp := doJSON(t, "PUT", ts.URL+"/v1/placement/controllers/g1", `{"width":16,"height":16,"heuristic":"bottom-left"}`, nil); resp.StatusCode != 201 {
		t.Fatalf("placement create = %d", resp.StatusCode)
	}

	// Every status a racing mutation may legitimately observe; anything
	// else (a 5xx other than the gated 503, a decode error) fails.
	okStatus := func(code int) bool {
		switch code {
		case 200, 201, 204, 404, 409:
			return true
		}
		return false
	}
	const workers = 8
	const iters = 25
	var wg sync.WaitGroup
	errs := make(chan error, workers*iters*10) // at most one per op
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				task := fmt.Sprintf("w%d-%d", w, i)
				ops := []struct{ method, path, body string }{
					{"POST", "/v1/controllers/c1/admit", fmt.Sprintf(`{"name":%q,"c":"1","d":"8","t":"8","a":1}`, task)},
					{"GET", "/v1/controllers/c1/resident", ""},
					{"DELETE", "/v1/controllers/c1/tasks/" + task, ""},
					{"POST", "/v1/placement/controllers/g1/admit", fmt.Sprintf(`{"name":%q,"c":"1","d":"8","t":"8","w":2,"h":2}`, task)},
					{"GET", "/v1/placement/controllers/g1/resident", ""},
					{"DELETE", "/v1/placement/controllers/g1/tasks/" + task, ""},
				}
				// Two workers also churn delete/recreate of one side
				// controller name per surface, racing each other.
				if w < 2 {
					ops = append(ops,
						struct{ method, path, body string }{"PUT", "/v1/controllers/churn", `{"columns":4}`},
						struct{ method, path, body string }{"PUT", "/v1/placement/controllers/churn", `{"width":4,"height":4,"heuristic":"bottom-left"}`},
						struct{ method, path, body string }{"DELETE", "/v1/controllers/churn", ""},
						struct{ method, path, body string }{"DELETE", "/v1/placement/controllers/churn", ""})
				}
				for _, op := range ops {
					resp := doJSON(t, op.method, ts.URL+op.path, op.body, nil)
					if !okStatus(resp.StatusCode) {
						errs <- fmt.Errorf("%s %s = %d", op.method, op.path, resp.StatusCode)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// The log must describe exactly the state the race left behind.
	want := map[string][]byte{}
	for _, p := range []string{
		"/v1/controllers",
		"/v1/controllers/c1/resident",
		"/v1/placement/controllers",
		"/v1/placement/controllers/g1/resident",
	} {
		want[p] = fetchBytes(t, ts.URL+p)
	}
	if n := st.Metrics().ReplaySkipped; n != 0 {
		t.Errorf("live store skipped %d records, want 0 (a logged mutation its predecessors did not allow)", n)
	}
	ts.Close()
	_, rec, _ := recoverServer(t, durable.Options{Dir: dir, Fsync: durable.FsyncNever})
	for p, w := range want {
		if got := fetchBytes(t, rec.URL+p); string(got) != string(w) {
			t.Errorf("recovered %s differs:\nlive:      %s\nrecovered: %s", p, w, got)
		}
	}
}
