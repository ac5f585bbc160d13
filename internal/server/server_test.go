package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"fpgasched/api"
	"fpgasched/internal/core"
	"fpgasched/internal/engine"
	"fpgasched/internal/task"
	"fpgasched/internal/workload"
)

// newTestServer returns a server over httptest plus a cleanup.
// rawDo sends one request and returns its status and body. Unlike
// doJSON it reports failures as an error, so goroutines other than the
// test's own can use it.
func rawDo(method, url, body string) (int, []byte, error) {
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

func newTestServer(t testing.TB) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(Config{EngineConfig: engine.Config{Workers: 4, CacheSize: 128}})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// doJSON issues a request with a JSON body and decodes the JSON response.
func doJSON(t testing.TB, method, url string, body string, out any) *http.Response {
	t.Helper()
	var rdr io.Reader
	if body != "" {
		rdr = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rdr)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && len(data) > 0 {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, url, data, err)
		}
	}
	return resp
}

// setJSON marshals a taskset into the request wire form.
func setJSON(t testing.TB, s *task.Set) string {
	t.Helper()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t)
	var out map[string]string
	resp := doJSON(t, "GET", ts.URL+"/healthz", "", &out)
	if resp.StatusCode != 200 || out["status"] != "ok" {
		t.Errorf("healthz = %d %v", resp.StatusCode, out)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content-type = %q", ct)
	}
}

func TestAnalyzeSingle(t *testing.T) {
	_, ts := newTestServer(t)
	body := fmt.Sprintf(`{"columns":10,"tests":["DP","GN1","GN2"],"taskset":%s}`, setJSON(t, workload.Table3()))
	var out api.AnalyzeResponse
	resp := doJSON(t, "POST", ts.URL+"/v1/analyze", body, &out)
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if out.Result == nil || len(out.Result.Verdicts) != 3 {
		t.Fatalf("result = %+v", out)
	}
	// Table 3 is the GN2-only set: DP and GN1 reject, GN2 accepts.
	if out.Result.Verdicts[0].Schedulable || out.Result.Verdicts[1].Schedulable || !out.Result.Verdicts[2].Schedulable {
		t.Errorf("verdicts = %+v, want reject/reject/accept", out.Result.Verdicts)
	}
	if !out.Result.Schedulable {
		t.Error("aggregate schedulable must be true (GN2 accepts)")
	}
}

func TestAnalyzeDefaultsToCompositeNF(t *testing.T) {
	_, ts := newTestServer(t)
	body := fmt.Sprintf(`{"columns":10,"taskset":%s}`, setJSON(t, workload.Table1()))
	var out api.AnalyzeResponse
	if resp := doJSON(t, "POST", ts.URL+"/v1/analyze", body, &out); resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if out.Result == nil || len(out.Result.Verdicts) != 1 || !out.Result.Schedulable {
		t.Fatalf("result = %+v", out)
	}
	if !strings.HasPrefix(out.Result.Verdicts[0].Test, "any(") {
		t.Errorf("default test = %q, want composite", out.Result.Verdicts[0].Test)
	}
}

func TestAnalyzeBatch(t *testing.T) {
	_, ts := newTestServer(t)
	body := fmt.Sprintf(`{"columns":10,"tests":["GN2"],"tasksets":[%s,%s,%s]}`,
		setJSON(t, workload.Table1()), setJSON(t, workload.Table2()), setJSON(t, workload.Table3()))
	var out api.AnalyzeResponse
	if resp := doJSON(t, "POST", ts.URL+"/v1/analyze", body, &out); resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if out.Result != nil || len(out.Results) != 3 {
		t.Fatalf("batch result = %+v", out)
	}
	// GN2 accepts Table 3 (its showcase set).
	if !out.Results[2].Schedulable {
		t.Error("table 3 must be GN2-schedulable")
	}
}

func TestAnalyzeDetailChecks(t *testing.T) {
	_, ts := newTestServer(t)
	body := fmt.Sprintf(`{"columns":10,"tests":["DP"],"taskset":%s,"detail":true}`, setJSON(t, workload.Table1()))
	var out api.AnalyzeResponse
	doJSON(t, "POST", ts.URL+"/v1/analyze", body, &out)
	if len(out.Result.Verdicts[0].Checks) == 0 {
		t.Fatal("detail=true must include per-task checks")
	}
	if out.Result.Verdicts[0].Checks[0].LHS == "" {
		t.Error("checks must carry exact LHS strings")
	}
}

func TestAnalyzeErrors(t *testing.T) {
	_, ts := newTestServer(t)
	t3 := setJSON(t, workload.Table3())
	cases := []struct {
		name, body string
		status     int
		code       api.ErrorCode
	}{
		{"malformed JSON", `{"columns":10,`, 400, api.CodeInvalidJSON},
		{"unknown field", `{"columns":10,"tasket":{}}`, 400, api.CodeInvalidJSON},
		{"both shapes", fmt.Sprintf(`{"columns":10,"taskset":%s,"tasksets":[%s]}`, t3, t3), 400, api.CodeInvalidRequest},
		{"neither shape", `{"columns":10}`, 400, api.CodeInvalidRequest},
		{"zero columns", fmt.Sprintf(`{"taskset":%s}`, t3), 400, api.CodeInvalidDevice},
		{"null batch element", `{"columns":10,"tasksets":[null]}`, 400, api.CodeInvalidRequest},
		{"unknown test", fmt.Sprintf(`{"columns":10,"tests":["XX"],"taskset":%s}`, t3), 400, api.CodeUnknownTest},
		{"empty test list", fmt.Sprintf(`{"columns":10,"tests":[""],"taskset":%s}`, t3), 400, api.CodeInvalidRequest},
		{"bad duration", `{"columns":10,"taskset":{"tasks":[{"name":"x","c":"oops","d":"1","t":"1","a":1}]}}`, 400, api.CodeInvalidJSON},
		{"unknown field in task", `{"columns":10,"taskset":{"tasks":[{"name":"x","c":"1","d":"5","t":"5","a":2,"priority":9}]}}`, 400, api.CodeInvalidJSON},
		{"invalid task (zero deadline)", `{"columns":10,"taskset":{"tasks":[{"name":"x","c":"1","d":"0","t":"5","a":1}]}}`, 400, api.CodeInvalidTaskset},
		{"task wider than device", `{"columns":2,"taskset":{"tasks":[{"name":"x","c":"1","d":"5","t":"5","a":7}]}}`, 400, api.CodeInvalidDevice},
		{"empty taskset", `{"columns":10,"taskset":{"tasks":[]}}`, 400, api.CodeInvalidTaskset},
		{"unknown field in taskset", `{"columns":10,"taskset":{"tasksX":[]}}`, 400, api.CodeInvalidJSON},
		{"trailing garbage", fmt.Sprintf(`{"columns":10,"taskset":%s} trailing`, t3), 400, api.CodeInvalidJSON},
	}
	for _, tc := range cases {
		var out api.Error
		resp := doJSON(t, "POST", ts.URL+"/v1/analyze", tc.body, &out)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status = %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
		if out.Message == "" {
			t.Errorf("%s: missing error message", tc.name)
		}
		if out.Code != tc.code {
			t.Errorf("%s: code = %q, want %q", tc.name, out.Code, tc.code)
		}
	}
}

// TestErrorCodesCarryDetail is the regression test for the structured
// 400 taxonomy of the two boundary validations the SDK switches on:
// invalid_device and unknown_test must name the offender in detail.
func TestErrorCodesCarryDetail(t *testing.T) {
	_, ts := newTestServer(t)
	var out api.Error
	body := fmt.Sprintf(`{"columns":10,"tests":["GN2","nope"],"taskset":%s}`, setJSON(t, workload.Table3()))
	if resp := doJSON(t, "POST", ts.URL+"/v1/analyze", body, &out); resp.StatusCode != 400 {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	if out.Code != api.CodeUnknownTest || out.Detail["test"] != "nope" {
		t.Errorf("unknown test error = %+v, want code unknown_test with detail.test=nope", out)
	}
	out = api.Error{}
	body = `{"columns":3,"taskset":{"tasks":[{"name":"w","c":"1","d":"5","t":"5","a":9}]}}`
	if resp := doJSON(t, "POST", ts.URL+"/v1/analyze", body, &out); resp.StatusCode != 400 {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	if out.Code != api.CodeInvalidDevice || out.Detail["task_index"] != "0" {
		t.Errorf("wide task error = %+v, want code invalid_device with detail.task_index=0", out)
	}
	// The simulate endpoint shares the boundary validation and codes.
	out = api.Error{}
	if resp := doJSON(t, "POST", ts.URL+"/v1/simulate", body, &out); resp.StatusCode != 400 {
		t.Fatalf("simulate status = %d, want 400", resp.StatusCode)
	}
	if out.Code != api.CodeInvalidDevice {
		t.Errorf("simulate wide task code = %q, want invalid_device", out.Code)
	}
}

func TestTestsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	var out api.TestsResponse
	if resp := doJSON(t, "GET", ts.URL+"/v1/tests", "", &out); resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if len(out.Tests) == 0 {
		t.Fatal("no tests advertised")
	}
	found := map[string]bool{}
	for _, n := range out.Tests {
		found[n] = true
	}
	for _, want := range []string{"DP", "GN1", "GN2", "any-nf", "any-fkf"} {
		if !found[want] {
			t.Errorf("registry response missing %q (got %v)", want, out.Tests)
		}
	}
	// The advertised list is exactly the resolvable one: every name must
	// be accepted by an analyze request.
	body := fmt.Sprintf(`{"columns":10,"tests":[%q],"taskset":%s}`, out.Tests[0], setJSON(t, workload.Table3()))
	if resp := doJSON(t, "POST", ts.URL+"/v1/analyze", body, nil); resp.StatusCode != 200 {
		t.Errorf("advertised test %q rejected: %d", out.Tests[0], resp.StatusCode)
	}
}

func TestAnalyzeUsesCacheAcrossPermutations(t *testing.T) {
	srv, ts := newTestServer(t)
	s := workload.Table3()
	for by := 0; by < s.Len(); by++ {
		perm := s.Clone()
		perm.Tasks = append(perm.Tasks[by:len(perm.Tasks):len(perm.Tasks)], perm.Tasks[:by]...)
		body := fmt.Sprintf(`{"columns":10,"tests":["GN2"],"taskset":%s}`, setJSON(t, perm))
		if resp := doJSON(t, "POST", ts.URL+"/v1/analyze", body, nil); resp.StatusCode != 200 {
			t.Fatalf("status = %d", resp.StatusCode)
		}
	}
	st := srv.engine.Stats()
	if st.Analyses != 1 {
		t.Errorf("analyses = %d, want 1 (permutations must share one cache entry)", st.Analyses)
	}
}

func TestSimulate(t *testing.T) {
	_, ts := newTestServer(t)
	body := fmt.Sprintf(`{"columns":10,"scheduler":"nf","taskset":%s,"horizon":"70"}`, setJSON(t, workload.Table3()))
	var out api.SimulateResponse
	resp := doJSON(t, "POST", ts.URL+"/v1/simulate", body, &out)
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if out.Missed {
		t.Errorf("GN2-proven set missed under EDF-NF: %+v", out)
	}
	if out.Policy == "" || out.Completed == 0 {
		t.Errorf("result = %+v", out)
	}
	if out.Horizon != "70" {
		t.Errorf("horizon = %q, want 70", out.Horizon)
	}
}

func TestSimulateErrors(t *testing.T) {
	_, ts := newTestServer(t)
	t3 := setJSON(t, workload.Table3())
	cases := []struct{ name, body string }{
		{"malformed", `{`},
		{"missing taskset", `{"columns":10}`},
		{"bad scheduler", fmt.Sprintf(`{"columns":10,"scheduler":"rr","taskset":%s}`, t3)},
		{"bad horizon", fmt.Sprintf(`{"columns":10,"taskset":%s,"horizon":"x"}`, t3)},
		{"task wider than device", fmt.Sprintf(`{"columns":2,"taskset":%s}`, t3)},
	}
	for _, tc := range cases {
		if resp := doJSON(t, "POST", ts.URL+"/v1/simulate", tc.body, nil); resp.StatusCode != 400 {
			t.Errorf("%s: status = %d, want 400", tc.name, resp.StatusCode)
		}
	}
}

func TestControllerLifecycle(t *testing.T) {
	_, ts := newTestServer(t)
	base := ts.URL + "/v1/controllers/edge0"

	// Create.
	var info api.ControllerInfo
	resp := doJSON(t, "PUT", base, `{"columns":10}`, &info)
	if resp.StatusCode != 201 || info.Columns != 10 || info.Name != "edge0" {
		t.Fatalf("create = %d %+v", resp.StatusCode, info)
	}
	// Duplicate create conflicts.
	if resp := doJSON(t, "PUT", base, `{"columns":10}`, nil); resp.StatusCode != 409 {
		t.Errorf("duplicate create = %d, want 409", resp.StatusCode)
	}

	// Admit two tasks; the third must be rejected (same shape as the
	// admission package's own TestReleaseMakesRoom).
	var d api.AdmitResponse
	doJSON(t, "POST", base+"/admit", `{"name":"a","c":"2","d":"5","t":"5","a":5}`, &d)
	if !d.Admitted || d.ProvedBy == "" {
		t.Fatalf("admit a = %+v", d)
	}
	doJSON(t, "POST", base+"/admit", `{"name":"b","c":"2","d":"5","t":"5","a":5}`, &d)
	if !d.Admitted {
		t.Fatalf("admit b = %+v", d)
	}
	doJSON(t, "POST", base+"/admit", `{"name":"c","c":"2","d":"5","t":"5","a":5}`, &d)
	if d.Admitted || d.Reason == "" {
		t.Fatalf("admit c = %+v, want rejection with reason", d)
	}

	// Resident snapshot.
	var res api.ResidentResponse
	doJSON(t, "GET", base+"/resident", "", &res)
	if res.Count != 2 || res.Taskset.Len() != 2 || res.UtilizationS != "4.0000" {
		t.Errorf("resident = %+v", res)
	}

	// Release one, then c fits.
	if resp := doJSON(t, "DELETE", base+"/tasks/a", "", nil); resp.StatusCode != 204 {
		t.Errorf("release = %d, want 204", resp.StatusCode)
	}
	if resp := doJSON(t, "DELETE", base+"/tasks/a", "", nil); resp.StatusCode != 404 {
		t.Errorf("double release = %d, want 404", resp.StatusCode)
	}
	doJSON(t, "POST", base+"/admit", `{"name":"c","c":"2","d":"5","t":"5","a":5}`, &d)
	if !d.Admitted {
		t.Errorf("admit c after release = %+v", d)
	}

	// List includes the tenant.
	var list api.ControllerList
	doJSON(t, "GET", ts.URL+"/v1/controllers", "", &list)
	if len(list.Controllers) != 1 || list.Controllers[0].Resident != 2 {
		t.Errorf("list = %+v", list)
	}

	// Delete, then everything 404s.
	if resp := doJSON(t, "DELETE", base, "", nil); resp.StatusCode != 204 {
		t.Errorf("delete = %d, want 204", resp.StatusCode)
	}
	for _, probe := range []struct{ method, url, body string }{
		{"DELETE", base, ""},
		{"POST", base + "/admit", `{"name":"x","c":"1","d":"5","t":"5","a":1}`},
		{"DELETE", base + "/tasks/x", ""},
		{"GET", base + "/resident", ""},
	} {
		if resp := doJSON(t, probe.method, probe.url, probe.body, nil); resp.StatusCode != 404 {
			t.Errorf("%s %s after delete = %d, want 404", probe.method, probe.url, resp.StatusCode)
		}
	}
}

func TestControllerErrors(t *testing.T) {
	_, ts := newTestServer(t)
	base := ts.URL + "/v1/controllers/x"
	if resp := doJSON(t, "PUT", base, `{"columns":0}`, nil); resp.StatusCode != 400 {
		t.Errorf("zero columns = %d, want 400", resp.StatusCode)
	}
	if resp := doJSON(t, "PUT", base, `{"columns":10,"tests":["XX"]}`, nil); resp.StatusCode != 400 {
		t.Errorf("unknown test = %d, want 400", resp.StatusCode)
	}
	if resp := doJSON(t, "PUT", base, `{columns}`, nil); resp.StatusCode != 400 {
		t.Errorf("malformed JSON = %d, want 400", resp.StatusCode)
	}
	doJSON(t, "PUT", base, `{"columns":10}`, nil)
	if resp := doJSON(t, "POST", base+"/admit", `{"name":"x","c":"bad"}`, nil); resp.StatusCode != 400 {
		t.Errorf("malformed task = %d, want 400", resp.StatusCode)
	}
}

func TestMetrics(t *testing.T) {
	_, ts := newTestServer(t)
	doJSON(t, "POST", ts.URL+"/v1/analyze", fmt.Sprintf(`{"columns":10,"tests":["DP"],"taskset":%s}`, setJSON(t, workload.Table1())), nil)
	doJSON(t, "POST", ts.URL+"/v1/analyze", `{"broken`, nil)
	var out api.MetricsResponse
	if resp := doJSON(t, "GET", ts.URL+"/metrics", "", &out); resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	m := out.HTTP["analyze"]
	if m.Requests != 2 || m.Errors != 1 {
		t.Errorf("analyze metrics = %+v, want 2 requests 1 error", m)
	}
	if out.Engine.Misses != 1 || out.Engine.Workers == 0 {
		t.Errorf("engine stats = %+v", out.Engine)
	}
	if out.Admission != nil {
		t.Errorf("admission section present with no controllers: %+v", out.Admission)
	}
}

// TestMetricsAdmissionSection drives admit/release traffic through a
// tenant and checks the aggregated admission counters on /metrics,
// including that the incremental analysis path actually served hits.
func TestMetricsAdmissionSection(t *testing.T) {
	_, ts := newTestServer(t)
	base := ts.URL + "/v1/controllers/m"
	doJSON(t, "PUT", base, `{"columns":100,"tests":["GN2"]}`, nil)
	for i := 0; i < 6; i++ {
		body := fmt.Sprintf(`{"name":"t%d","c":"1","d":"50","t":"50","a":2}`, i)
		if resp := doJSON(t, "POST", base+"/admit", body, nil); resp.StatusCode != 200 {
			t.Fatalf("admit %d = %d", i, resp.StatusCode)
		}
	}
	// One rejection (oversized area) and one release.
	doJSON(t, "POST", base+"/admit", `{"name":"big","c":"1","d":"50","t":"50","a":101}`, nil)
	doJSON(t, "DELETE", base+"/tasks/t0", "", nil)

	var out api.MetricsResponse
	if resp := doJSON(t, "GET", ts.URL+"/metrics", "", &out); resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	am := out.Admission
	if am == nil {
		t.Fatal("admission section missing")
	}
	if am.Controllers != 1 || am.Requests != 7 || am.Admitted != 6 || am.Rejected != 1 || am.Releases != 1 {
		t.Errorf("admission metrics = %+v", am)
	}
	if am.Requests != am.Admitted+am.Rejected+am.Aborted {
		t.Errorf("admission counters don't balance: %+v", am)
	}
	if am.IncrementalHits == 0 {
		t.Errorf("expected incremental hits on a warm GN2 controller: %+v", am)
	}
	if am.FullRuns == 0 {
		t.Errorf("expected at least the cold first admit as a full run: %+v", am)
	}
}

func TestBodyLimit(t *testing.T) {
	srv := New(Config{MaxBodyBytes: 64, EngineConfig: engine.Config{Workers: 1}})
	ts := httptest.NewServer(srv)
	defer func() { ts.Close(); srv.Close() }()
	big := `{"columns":10,"taskset":{"tasks":[` + strings.Repeat(`{"c":"1","d":"2","t":"2","a":1},`, 100) + `]}}`
	resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader([]byte(big)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body = %d, want 413", resp.StatusCode)
	}
	// Negative disables the cap, like the sibling limits.
	open := New(Config{MaxBodyBytes: -1, EngineConfig: engine.Config{Workers: 1}})
	ts2 := httptest.NewServer(open)
	defer func() { ts2.Close(); open.Close() }()
	valid := `{"columns":10,"taskset":{"tasks":[` +
		strings.TrimSuffix(strings.Repeat(`{"c":"1","d":"2","t":"2","a":1},`, 100), ",") + `]}}`
	resp, err = http.Post(ts2.URL+"/v1/analyze", "application/json", strings.NewReader(valid))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("uncapped body = %d, want 200", resp.StatusCode)
	}
}

func TestAdmitCapacityAndControllerLimit(t *testing.T) {
	srv := New(Config{MaxTasks: 2, MaxControllers: 2, EngineConfig: engine.Config{Workers: 1}})
	ts := httptest.NewServer(srv)
	defer func() { ts.Close(); srv.Close() }()
	doJSON(t, "PUT", ts.URL+"/v1/controllers/a", `{"columns":100}`, nil)
	// Resident capacity: third admit is refused before analysis.
	for i, want := range []int{200, 200, 409} {
		body := fmt.Sprintf(`{"name":"t%d","c":"1","d":"100","t":"100","a":1}`, i)
		if resp := doJSON(t, "POST", ts.URL+"/v1/controllers/a/admit", body, nil); resp.StatusCode != want {
			t.Errorf("admit %d = %d, want %d", i, resp.StatusCode, want)
		}
	}
	// Releasing frees capacity again.
	doJSON(t, "DELETE", ts.URL+"/v1/controllers/a/tasks/t0", "", nil)
	if resp := doJSON(t, "POST", ts.URL+"/v1/controllers/a/admit", `{"name":"t9","c":"1","d":"100","t":"100","a":1}`, nil); resp.StatusCode != 200 {
		t.Errorf("admit after release = %d, want 200", resp.StatusCode)
	}
	// Controller count cap.
	doJSON(t, "PUT", ts.URL+"/v1/controllers/b", `{"columns":10}`, nil)
	var out api.Error
	if resp := doJSON(t, "PUT", ts.URL+"/v1/controllers/c", `{"columns":10}`, &out); resp.StatusCode != 409 {
		t.Errorf("third controller = %d, want 409", resp.StatusCode)
	}
	if out.Code != api.CodeLimitExceeded || !strings.Contains(out.Message, "limit of 2") {
		t.Errorf("error = %+v, want limit_exceeded naming the limit", out)
	}
}

// TestAdmitCapacityExact: the resident cap is checked under the tenant
// lock, so concurrent admits cannot overshoot it, and every refused
// admit answers the same 409 limit_exceeded document.
func TestAdmitCapacityExact(t *testing.T) {
	const maxTasks, admits = 4, 8
	srv := New(Config{MaxTasks: maxTasks, EngineConfig: engine.Config{Workers: 2}})
	ts := httptest.NewServer(srv)
	defer func() { ts.Close(); srv.Close() }()
	if resp := doJSON(t, "PUT", ts.URL+"/v1/controllers/cap", `{"columns":100,"tests":["DP"]}`, nil); resp.StatusCode != 201 {
		t.Fatalf("create = %d", resp.StatusCode)
	}
	type result struct {
		code int
		body []byte
		err  error
	}
	start := make(chan struct{})
	results := make(chan result, admits)
	var wg sync.WaitGroup
	for i := 0; i < admits; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			body := fmt.Sprintf(`{"name":"t%d","c":"1","d":"100","t":"100","a":1}`, i)
			code, data, err := rawDo("POST", ts.URL+"/v1/controllers/cap/admit", body)
			results <- result{code, data, err}
		}(i)
	}
	close(start)
	wg.Wait()
	close(results)
	const capDoc = `{
  "code": "limit_exceeded",
  "error": "controller \"cap\" is at the 4-task resident capacity",
  "detail": {
    "limit": "4"
  }
}
`
	admitted := 0
	for r := range results {
		switch {
		case r.err != nil:
			t.Error(r.err)
		case r.code == 200:
			admitted++
		case r.code != 409 || string(r.body) != capDoc:
			t.Errorf("refused admit = %d %s, want 409 %s", r.code, r.body, capDoc)
		}
	}
	var res api.ResidentResponse
	doJSON(t, "GET", ts.URL+"/v1/controllers/cap/resident", "", &res)
	if res.Count > maxTasks || res.Count != admitted {
		t.Errorf("%d concurrent admits left %d residents (%d answered 200), want at most %d", admits, res.Count, admitted, maxTasks)
	}
}

func TestTaskCountLimit(t *testing.T) {
	srv := New(Config{MaxTasks: 3, EngineConfig: engine.Config{Workers: 1}})
	ts := httptest.NewServer(srv)
	defer func() { ts.Close(); srv.Close() }()
	tasks := strings.TrimSuffix(strings.Repeat(`{"c":"1","d":"8","t":"8","a":1},`, 4), ",")
	over := fmt.Sprintf(`{"columns":10,"taskset":{"tasks":[%s]}}`, tasks)
	var out api.Error
	if resp := doJSON(t, "POST", ts.URL+"/v1/analyze", over, &out); resp.StatusCode != 400 {
		t.Errorf("analyze over cap = %d, want 400", resp.StatusCode)
	}
	if out.Code != api.CodeLimitExceeded || !strings.Contains(out.Message, "limit of 3") {
		t.Errorf("error = %+v, want limit_exceeded naming the limit", out)
	}
	if resp := doJSON(t, "POST", ts.URL+"/v1/simulate", over, nil); resp.StatusCode != 400 {
		t.Errorf("simulate over cap = %d, want 400", resp.StatusCode)
	}
	// Batch shape is capped per set too.
	batch := fmt.Sprintf(`{"columns":10,"tasksets":[{"tasks":[%s]}]}`, tasks)
	if resp := doJSON(t, "POST", ts.URL+"/v1/analyze", batch, nil); resp.StatusCode != 400 {
		t.Errorf("batch over cap = %d, want 400", resp.StatusCode)
	}
	// At the cap is fine.
	atCap := fmt.Sprintf(`{"columns":10,"taskset":{"tasks":[%s]}}`,
		strings.TrimSuffix(strings.Repeat(`{"c":"1","d":"8","t":"8","a":1},`, 3), ","))
	if resp := doJSON(t, "POST", ts.URL+"/v1/analyze", atCap, nil); resp.StatusCode != 200 {
		t.Errorf("analyze at cap = %d, want 200", resp.StatusCode)
	}
}

func TestBatchAnalysisLimit(t *testing.T) {
	srv := New(Config{MaxBatch: 4, EngineConfig: engine.Config{Workers: 1}})
	ts := httptest.NewServer(srv)
	defer func() { ts.Close(); srv.Close() }()
	set := `{"tasks":[{"c":"1","d":"8","t":"8","a":1}]}`
	sets := strings.TrimSuffix(strings.Repeat(set+",", 3), ",")
	// 3 sets x 2 tests = 6 > 4.
	over := fmt.Sprintf(`{"columns":10,"tests":["DP","GN2"],"tasksets":[%s]}`, sets)
	var out api.Error
	if resp := doJSON(t, "POST", ts.URL+"/v1/analyze", over, &out); resp.StatusCode != 400 {
		t.Errorf("over batch cap = %d, want 400", resp.StatusCode)
	}
	if out.Code != api.CodeLimitExceeded || !strings.Contains(out.Message, "limit of 4") {
		t.Errorf("error = %+v, want limit_exceeded naming the limit", out)
	}
	// 3 sets x 1 test = 3 <= 4.
	under := fmt.Sprintf(`{"columns":10,"tests":["DP"],"tasksets":[%s]}`, sets)
	if resp := doJSON(t, "POST", ts.URL+"/v1/analyze", under, nil); resp.StatusCode != 200 {
		t.Errorf("under batch cap = %d, want 200", resp.StatusCode)
	}
}

func TestControllerEchoesOnlyResolvedTests(t *testing.T) {
	_, ts := newTestServer(t)
	var info api.ControllerInfo
	resp := doJSON(t, "PUT", ts.URL+"/v1/controllers/x", `{"columns":10,"tests":["", " DP ",""]}`, &info)
	if resp.StatusCode != 201 {
		t.Fatalf("create = %d", resp.StatusCode)
	}
	if len(info.Tests) != 1 || info.Tests[0] != "DP" {
		t.Errorf("tests = %v, want [DP] (blank entries must not be echoed)", info.Tests)
	}
}

func TestSimulateHorizonLimit(t *testing.T) {
	_, ts := newTestServer(t)
	t3 := setJSON(t, workload.Table3())
	body := fmt.Sprintf(`{"columns":10,"taskset":%s,"horizon":"999999"}`, t3)
	var out api.Error
	if resp := doJSON(t, "POST", ts.URL+"/v1/simulate", body, &out); resp.StatusCode != 400 {
		t.Errorf("huge horizon = %d, want 400", resp.StatusCode)
	}
	if out.Code != api.CodeLimitExceeded || !strings.Contains(out.Message, "server limit") {
		t.Errorf("error = %+v, want limit_exceeded naming the limit", out)
	}
	body = fmt.Sprintf(`{"columns":10,"taskset":%s,"horizon_cap":"999999"}`, t3)
	if resp := doJSON(t, "POST", ts.URL+"/v1/simulate", body, nil); resp.StatusCode != 400 {
		t.Errorf("huge horizon_cap = %d, want 400", resp.StatusCode)
	}
	// At the limit is accepted.
	body = fmt.Sprintf(`{"columns":10,"taskset":%s,"horizon":"%d"}`, t3, DefaultMaxSimHorizon)
	if resp := doJSON(t, "POST", ts.URL+"/v1/simulate", body, nil); resp.StatusCode != 200 {
		t.Errorf("horizon at limit = %d, want 200", resp.StatusCode)
	}
}

func TestSimulateRejectsNonPositiveHorizon(t *testing.T) {
	_, ts := newTestServer(t)
	t3 := setJSON(t, workload.Table3())
	for _, h := range []string{"-5", "0"} {
		body := fmt.Sprintf(`{"columns":10,"taskset":%s,"horizon":%q}`, t3, h)
		if resp := doJSON(t, "POST", ts.URL+"/v1/simulate", body, nil); resp.StatusCode != 400 {
			t.Errorf("horizon %q: status = %d, want 400", h, resp.StatusCode)
		}
		body = fmt.Sprintf(`{"columns":10,"taskset":%s,"horizon_cap":%q}`, t3, h)
		if resp := doJSON(t, "POST", ts.URL+"/v1/simulate", body, nil); resp.StatusCode != 400 {
			t.Errorf("horizon_cap %q: status = %d, want 400", h, resp.StatusCode)
		}
	}
}

func TestMethodAndRouteMismatch(t *testing.T) {
	_, ts := newTestServer(t)
	if resp := doJSON(t, "GET", ts.URL+"/v1/analyze", "", nil); resp.StatusCode != 405 {
		t.Errorf("GET /v1/analyze = %d, want 405", resp.StatusCode)
	}
	if resp := doJSON(t, "GET", ts.URL+"/nope", "", nil); resp.StatusCode != 404 {
		t.Errorf("unknown route = %d, want 404", resp.StatusCode)
	}
}

// table3Replicated tiles the paper's Table 3 pair k times (with distinct
// names) for a 10k-column device: every task keeps Table 3's exact
// parameters, but the analysis runs at production scale. The k=10 set is
// GN2-schedulable on 100 columns, so GN2 evaluates every per-task bound.
func table3Replicated(k int) (*task.Set, int) {
	s := task.NewSet()
	for i := 0; i < k; i++ {
		for _, tk := range workload.Table3().Tasks {
			tk.Name = fmt.Sprintf("%s-%d", tk.Name, i)
			s.Tasks = append(s.Tasks, tk)
		}
	}
	return s, 10 * k
}

// TestWarmSpeedup is the acceptance check for the verdict cache, gated
// where the cache acts: an engine hit on a permutation of a 60-task set
// must be at least 10x faster than the cold analysis it replaces. The
// served round trip is checked deterministically instead: every warm
// POST /v1/analyze of a permutation is a cache hit and runs no
// analysis. Its cold/warm time ratio is only logged, because a cold
// request is now cheap enough that the fixed request-serving cost
// (decode, encode, HTTP) bounds the served ratio well below 10x.
// Timing-based, so it uses totals over several rounds to stay robust on
// loaded CI.
func TestWarmSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	if raceEnabled {
		t.Skip("race instrumentation distorts the analysis/hit ratio")
	}
	srv := New(Config{EngineConfig: engine.Config{Workers: 2, CacheSize: 256}})
	defer srv.Close()
	// A diverse 60-task workload: distinct utilizations give GN2's λ
	// sweep a full-size candidate set (a tiled taskset's candidate set
	// collapses after dedup, which would make the cold path trivial).
	s := workload.Unconstrained(60).Generate(workload.Rand(1))
	cols := workload.FigureDeviceColumns
	const rounds = 20
	permuted := func(i int) *task.Set {
		perm := s.Clone()
		by := i % perm.Len()
		perm.Tasks = append(perm.Tasks[by:len(perm.Tasks):len(perm.Tasks)], perm.Tasks[:by]...)
		return perm
	}

	// The engine, as the server calls it for a non-explain analyze.
	// Cold: distinct device widths defeat the cache, so every call runs
	// a full GN2 analysis. Warm: permutations of one set on one width.
	analyze := func(set *task.Set, columns int) time.Duration {
		start := time.Now()
		if _, err := srv.engine.Analyze(context.Background(), engine.Request{
			Columns: columns, Set: set, Test: core.GN2Test{}, OmitChecks: true,
		}); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	var cold, warm time.Duration
	for i := 0; i < rounds; i++ {
		cold += analyze(s, cols+1+i)
	}
	analyze(s, cols)
	before := srv.engine.Stats()
	for i := 0; i < rounds; i++ {
		warm += analyze(permuted(i), cols)
	}
	if st := srv.engine.Stats(); st.Hits-before.Hits != rounds || st.Analyses != before.Analyses {
		t.Fatalf("warm engine calls: %d hits, %d analyses; want %d hits, 0 analyses",
			st.Hits-before.Hits, st.Analyses-before.Analyses, rounds)
	}
	if warm*10 > cold {
		t.Errorf("engine hit %v not >=10x faster than cold analysis %v", warm/rounds, cold/rounds)
	}

	// The same shape over HTTP, on widths the engine phase did not use.
	post := func(set *task.Set, columns int) time.Duration {
		body := fmt.Sprintf(`{"columns":%d,"tests":["GN2"],"taskset":%s}`, columns, setJSON(t, set))
		req := httptest.NewRequest("POST", "/v1/analyze", strings.NewReader(body))
		rec := httptest.NewRecorder()
		start := time.Now()
		srv.ServeHTTP(rec, req)
		elapsed := time.Since(start)
		if rec.Code != 200 {
			t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
		}
		return elapsed
	}
	var httpCold, httpWarm time.Duration
	for i := 0; i < rounds; i++ {
		httpCold += post(s, cols+1+rounds+i)
	}
	post(s, cols+1+2*rounds)
	before = srv.engine.Stats()
	for i := 0; i < rounds; i++ {
		httpWarm += post(permuted(i), cols+1+2*rounds)
	}
	st := srv.engine.Stats()
	if st.Hits-before.Hits != rounds || st.Misses != before.Misses || st.Analyses != before.Analyses {
		t.Fatalf("warm POSTs: %d hits, %d misses, %d analyses; want %d hits, 0 misses, 0 analyses",
			st.Hits-before.Hits, st.Misses-before.Misses, st.Analyses-before.Analyses, rounds)
	}
	t.Logf("engine: cold %v, hit %v (%.1fx); HTTP: cold %v, warm %v (%.1fx)",
		cold/rounds, warm/rounds, float64(cold)/float64(warm),
		httpCold/rounds, httpWarm/rounds, float64(httpCold)/float64(httpWarm))
}

// BenchmarkAnalyzeEndpointCold/Warm expose the end-to-end POST latency
// with and without the verdict cache.
func BenchmarkAnalyzeEndpointCold(b *testing.B) {
	srv := New(Config{EngineConfig: engine.Config{Workers: 1, CacheSize: -1}})
	defer srv.Close()
	s, cols := table3Replicated(10)
	body := fmt.Sprintf(`{"columns":%d,"tests":["GN2"],"taskset":%s}`, cols, setJSON(b, s))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("POST", "/v1/analyze", strings.NewReader(body))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != 200 {
			b.Fatalf("status = %d", rec.Code)
		}
	}
}

func BenchmarkAnalyzeEndpointWarm(b *testing.B) {
	srv := New(Config{EngineConfig: engine.Config{Workers: 1, CacheSize: 64}})
	defer srv.Close()
	s, cols := table3Replicated(10)
	bodies := make([]string, s.Len())
	for by := range bodies {
		perm := s.Clone()
		perm.Tasks = append(perm.Tasks[by:len(perm.Tasks):len(perm.Tasks)], perm.Tasks[:by]...)
		bodies[by] = fmt.Sprintf(`{"columns":%d,"tests":["GN2"],"taskset":%s}`, cols, setJSON(b, perm))
	}
	// Prime the cache.
	req := httptest.NewRequest("POST", "/v1/analyze", strings.NewReader(bodies[0]))
	srv.ServeHTTP(httptest.NewRecorder(), req)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("POST", "/v1/analyze", strings.NewReader(bodies[i%len(bodies)]))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != 200 {
			b.Fatalf("status = %d", rec.Code)
		}
	}
}
