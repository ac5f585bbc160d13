package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fpgasched/api"
	"fpgasched/internal/engine"
	"fpgasched/internal/workload"
)

// streamLine renders one NDJSON request line.
func streamLine(t testing.TB, columns int, tests []string) string {
	t.Helper()
	req := api.StreamRequest{Columns: columns, Tests: tests, Taskset: workload.Table3()}
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return string(data) + "\n"
}

// parseStream decodes every NDJSON result line.
func parseStream(t testing.TB, body io.Reader) []api.StreamResult {
	t.Helper()
	var out []api.StreamResult
	dec := json.NewDecoder(body)
	for {
		var res api.StreamResult
		if err := dec.Decode(&res); err == io.EOF {
			return out
		} else if err != nil {
			t.Fatalf("decoding stream: %v", err)
		}
		out = append(out, res)
	}
}

func TestAnalyzeStreamBasic(t *testing.T) {
	_, ts := newTestServer(t)
	var body strings.Builder
	body.WriteString(streamLine(t, 10, []string{"GN2"}))                                                           // 0: schedulable
	body.WriteString("\n")                                                                                         // blank: skipped, not indexed
	body.WriteString(streamLine(t, 10, []string{"DP"}))                                                            // 1: rejected
	body.WriteString(`{"columns":10,"tests":["XX"],"taskset":{"tasks":[{"c":"1","d":"2","t":"2","a":1}]}}` + "\n") // 2: unknown test
	body.WriteString("not json\n")                                                                                 // 3: invalid line
	body.WriteString(streamLine(t, 10, []string{"GN2"}))                                                           // 4: cache hit of 0

	resp, err := http.Post(ts.URL+"/v1/analyze/stream", "application/x-ndjson", strings.NewReader(body.String()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content-type = %q", ct)
	}
	results := parseStream(t, resp.Body)
	if len(results) != 5 {
		t.Fatalf("got %d results, want 5: %+v", len(results), results)
	}
	byIndex := map[int]api.StreamResult{}
	for _, r := range results {
		if _, dup := byIndex[r.Index]; dup {
			t.Errorf("duplicate index %d", r.Index)
		}
		byIndex[r.Index] = r
	}
	for i := 0; i < 5; i++ {
		if _, ok := byIndex[i]; !ok {
			t.Fatalf("missing index %d", i)
		}
	}
	if r := byIndex[0]; r.Error != nil || r.Result == nil || !r.Result.Schedulable {
		t.Errorf("line 0 = %+v, want GN2 schedulable", r)
	}
	if r := byIndex[1]; r.Error != nil || r.Result == nil || r.Result.Schedulable {
		t.Errorf("line 1 = %+v, want DP rejection", r)
	}
	if r := byIndex[2]; r.Result != nil || r.Error == nil || r.Error.Code != api.CodeUnknownTest {
		t.Errorf("line 2 = %+v, want unknown_test error", r)
	}
	if r := byIndex[3]; r.Error == nil || r.Error.Code != api.CodeInvalidJSON {
		t.Errorf("line 3 = %+v, want invalid_json error", r)
	}
	if r := byIndex[4]; r.Error != nil || !r.Result.Schedulable {
		t.Errorf("line 4 = %+v, want schedulable (served from cache)", r)
	}
}

// lineRecorder is a streaming-aware ResponseWriter: every completed
// NDJSON line is delivered on Lines, so tests can observe results the
// moment the handler flushes them — independent of HTTP transport
// buffering.
type lineRecorder struct {
	mu     sync.Mutex
	header http.Header
	status int
	buf    bytes.Buffer
	Lines  chan []byte
}

func newLineRecorder(capacity int) *lineRecorder {
	return &lineRecorder{header: make(http.Header), Lines: make(chan []byte, capacity)}
}

func (r *lineRecorder) Header() http.Header { return r.header }

func (r *lineRecorder) WriteHeader(code int) { r.status = code }

func (r *lineRecorder) Write(p []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.buf.Write(p)
	for {
		data := r.buf.Bytes()
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			return len(p), nil
		}
		line := append([]byte(nil), data[:nl]...)
		r.buf.Next(nl + 1)
		r.Lines <- line
	}
}

func (r *lineRecorder) Flush() {}

// TestAnalyzeStreamResultsBeforeBodyConsumed is the acceptance test for
// the streaming protocol's bounded-memory property: the first verdict
// must reach the wire while the request body is still open and mostly
// unwritten — the server cannot be buffering the whole batch.
func TestAnalyzeStreamResultsBeforeBodyConsumed(t *testing.T) {
	srv := New(Config{EngineConfig: engine.Config{Workers: 2, CacheSize: 64}})
	defer srv.Close()
	pr, pw := io.Pipe()
	req := httptest.NewRequest("POST", "/v1/analyze/stream", pr)
	rec := newLineRecorder(64)
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.ServeHTTP(rec, req)
	}()

	// One line in; the body stays open.
	if _, err := io.WriteString(pw, streamLine(t, 10, []string{"GN2"})); err != nil {
		t.Fatal(err)
	}
	var first api.StreamResult
	select {
	case line := <-rec.Lines:
		if err := json.Unmarshal(line, &first); err != nil {
			t.Fatalf("first line %q: %v", line, err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no result before the request body was fully consumed")
	}
	if first.Index != 0 || first.Error != nil || first.Result == nil {
		t.Fatalf("first result = %+v", first)
	}

	// The rest of the batch, then EOF.
	for i := 0; i < 3; i++ {
		if _, err := io.WriteString(pw, streamLine(t, 10, []string{"GN2"})); err != nil {
			t.Fatal(err)
		}
	}
	pw.Close()
	<-done
	seen := map[int]bool{0: true}
	for {
		select {
		case line := <-rec.Lines:
			var res api.StreamResult
			if err := json.Unmarshal(line, &res); err != nil {
				t.Fatal(err)
			}
			seen[res.Index] = true
		default:
			if len(seen) != 4 {
				t.Fatalf("saw indices %v, want 0-3", seen)
			}
			return
		}
	}
}

// TestAnalyzeStreamLargeBatch pushes a 10,000-set NDJSON batch through
// the endpoint with the request produced incrementally, asserting every
// line is answered exactly once and that results started flowing long
// before the producer finished — the whole batch never resides in
// server memory.
func TestAnalyzeStreamLargeBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("large batch")
	}
	const batch = 10_000
	srv := New(Config{EngineConfig: engine.Config{Workers: 4, CacheSize: 64}})
	defer srv.Close()
	pr, pw := io.Pipe()
	req := httptest.NewRequest("POST", "/v1/analyze/stream", pr)
	rec := newLineRecorder(batch + 16)
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.ServeHTTP(rec, req)
	}()

	var written atomic.Int64
	line := streamLine(t, 10, []string{"GN2"})
	go func() {
		defer pw.Close()
		for i := 0; i < batch; i++ {
			if _, err := io.WriteString(pw, line); err != nil {
				return
			}
			written.Add(1)
		}
	}()

	var writtenAtFirstResult int64 = -1
	seen := make(map[int]bool, batch)
	deadline := time.After(120 * time.Second)
	for len(seen) < batch {
		select {
		case raw := <-rec.Lines:
			var res api.StreamResult
			if err := json.Unmarshal(raw, &res); err != nil {
				t.Fatal(err)
			}
			if res.Error != nil {
				t.Fatalf("line %d failed: %v", res.Index, res.Error)
			}
			if writtenAtFirstResult < 0 {
				writtenAtFirstResult = written.Load()
			}
			if seen[res.Index] {
				t.Fatalf("index %d answered twice", res.Index)
			}
			seen[res.Index] = true
		case <-deadline:
			t.Fatalf("timed out with %d/%d results", len(seen), batch)
		}
	}
	<-done
	if writtenAtFirstResult >= batch {
		t.Errorf("first result only after all %d lines were written — not streaming", batch)
	}
	t.Logf("first result after %d/%d lines written", writtenAtFirstResult, batch)
	// One analysis, batch-1 coalesced/cache hits: the batch was served
	// from the verdict cache, proving the protocol composes with
	// memoization.
	if st := srv.engine.Stats(); st.Analyses != 1 {
		t.Errorf("analyses = %d, want 1 (identical sets must share the cache)", st.Analyses)
	}
}

func TestAnalyzeStreamLineTooLong(t *testing.T) {
	srv := New(Config{MaxBodyBytes: 256, EngineConfig: engine.Config{Workers: 1}})
	ts := httptest.NewServer(srv)
	defer func() { ts.Close(); srv.Close() }()
	body := streamLine(t, 10, []string{"GN2"}) +
		`{"columns":10,"taskset":{"tasks":[` + strings.Repeat(`{"c":"1","d":"2","t":"2","a":1},`, 100) + `]}}` + "\n"
	resp, err := http.Post(ts.URL+"/v1/analyze/stream", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	results := parseStream(t, resp.Body)
	if len(results) != 2 {
		t.Fatalf("got %d results, want 2: %+v", len(results), results)
	}
	last := results[len(results)-1]
	if last.Error == nil || last.Error.Code != api.CodeBodyTooLarge {
		t.Errorf("oversized line result = %+v, want body_too_large", last)
	}
}

// TestAnalyzeStreamUncappedLineExceedsScannerDefault is the regression
// test for the disabled body cap: with MaxBodyBytes < 0 a line larger
// than bufio's 64 KiB default must still parse (the unary endpoint
// accepts any size), failing — if at all — on task-count validation,
// never on framing.
func TestAnalyzeStreamUncappedLineExceedsScannerDefault(t *testing.T) {
	srv := New(Config{MaxBodyBytes: -1, EngineConfig: engine.Config{Workers: 1}})
	ts := httptest.NewServer(srv)
	defer func() { ts.Close(); srv.Close() }()
	// ~77 KiB of tiny tasks: over the scanner default, over MaxTasks.
	huge := `{"columns":10,"taskset":{"tasks":[` +
		strings.TrimSuffix(strings.Repeat(`{"c":"1","d":"8","t":"8","a":1},`, 2500), ",") + `]}}` + "\n"
	if len(huge) <= 64<<10 {
		t.Fatalf("fixture too small to exercise the scanner default: %d bytes", len(huge))
	}
	body := huge + streamLine(t, 10, []string{"GN2"})
	resp, err := http.Post(ts.URL+"/v1/analyze/stream", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	results := parseStream(t, resp.Body)
	if len(results) != 2 {
		t.Fatalf("got %d results, want 2 (stream must survive the big line): %+v", len(results), results)
	}
	byIndex := map[int]api.StreamResult{}
	for _, r := range results {
		byIndex[r.Index] = r
	}
	if r := byIndex[0]; r.Error == nil || r.Error.Code != api.CodeLimitExceeded {
		t.Errorf("big line = %+v, want limit_exceeded (task cap), never a framing abort", r)
	}
	if r := byIndex[1]; r.Error != nil || !r.Result.Schedulable {
		t.Errorf("following line = %+v, want schedulable", r)
	}
}

// panicLog collects the http.Server error log, where net/http reports
// the panics it recovers on a connection.
type panicLog struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *panicLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

func (l *panicLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// newLoggedStreamServer starts srv on a real listener whose error log
// is captured.
func newLoggedStreamServer(t *testing.T, srv *Server) (*httptest.Server, *panicLog) {
	t.Helper()
	ts := httptest.NewUnstartedServer(srv)
	pl := &panicLog{}
	ts.Config.ErrorLog = log.New(pl, "", 0)
	ts.Start()
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return ts, pl
}

// TestAnalyzeStreamEarlyEndNoConcurrentRead is the regression test for
// the "invalid concurrent Body.Read call" panic: the handler used to
// return while its request body was still unread — after a framing
// failure, or with its reader goroutine still inside Body.Read after
// the client vanished — and net/http's own reads of the connection then
// raced the unread body. Two clients keep sending after the handler is
// done with them: one whose oversized line ends the stream, and one
// that disconnects mid-stream. Neither may make the server panic.
func TestAnalyzeStreamEarlyEndNoConcurrentRead(t *testing.T) {
	srv := New(Config{MaxBodyBytes: 512, EngineConfig: engine.Config{Workers: 1}})
	ts, pl := newLoggedStreamServer(t, srv)
	line := streamLine(t, 10, []string{"GN2"})
	big := `{"columns":10,"taskset":{"tasks":[` + strings.Repeat(`{"c":"1","d":"2","t":"2","a":1},`, 40) + `]}}` + "\n"

	// A client that keeps sending after the line that ends the stream.
	t.Run("framing", func(t *testing.T) {
		body := line + big + strings.Repeat(line, 50)
		resp, err := http.Post(ts.URL+"/v1/analyze/stream", "application/x-ndjson", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		results := parseStream(t, resp.Body)
		resp.Body.Close()
		if last := results[len(results)-1]; last.Error == nil || last.Error.Code != api.CodeBodyTooLarge {
			t.Fatalf("last result = %+v, want body_too_large", last)
		}
	})

	// A client that reads one result, then disconnects while its body
	// writer is still sending.
	t.Run("disconnect", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		pr, pw := io.Pipe()
		go func() {
			for {
				if _, err := io.WriteString(pw, line); err != nil {
					return
				}
			}
		}()
		defer pw.Close()
		req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/analyze/stream", pr)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var res api.StreamResult
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			t.Fatal(err)
		}
		cancel()
		resp.Body.Close()
	})

	// The server notices the disconnect asynchronously; wait for the
	// handler to finish before reading the log.
	deadline := time.Now().Add(5 * time.Second)
	for srv.engine.Stats().InFlight > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	ts.CloseClientConnections()
	time.Sleep(20 * time.Millisecond)
	if out := pl.String(); strings.Contains(out, "panic") {
		t.Fatalf("server panicked:\n%s", out)
	}
}
