package server

// POST /v1/analyze/stream — the streaming batch protocol.
//
// The request body is NDJSON: one api.StreamRequest per line, each a
// self-contained single-set analysis (lines may differ in columns and
// tests). The response is NDJSON too: one api.StreamResult per line,
// tagged with the 0-based index of the request line it answers. Results
// are emitted as analyses complete, so they may arrive out of order and
// begin flowing while the request body is still being read — the
// protocol works over arbitrarily large batches with bounded server
// memory:
//
//   - each line is capped at MaxBodyBytes (the whole body is uncapped);
//   - at most one pool's worth of lines is in flight at a time — the
//     reader stops consuming the body while the window is full, so a
//     fast producer cannot queue unbounded parsed tasksets;
//   - a line that fails to parse or validate yields a StreamResult with
//     an Error instead of aborting the stream (framing failures — a line
//     over the cap, a broken read — do abort, with a final error line).
//
// Client disconnects cancel the request context, which abandons queued
// analyses in the engine and stops the reader.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"sync"
	"time"

	"fpgasched/api"
	"fpgasched/internal/task"
)

// streamWindowFactor sizes the in-flight line window as a multiple of
// the engine pool, so the pool stays fed while results drain without
// parsing unboundedly ahead of the analyses.
const streamWindowFactor = 2

// handleAnalyzeStream implements the NDJSON streaming batch protocol.
func (s *Server) handleAnalyzeStream(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	// Full duplex: HTTP/1.x servers normally refuse to read the request
	// body once the response has begun; this endpoint interleaves both
	// by design. Errors are ignored — recorders and non-HTTP/1.x
	// transports that don't support the knob still work for the finite
	// read-then-write case.
	rc := http.NewResponseController(w)
	_ = rc.EnableFullDuplex()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)

	results := make(chan api.StreamResult)
	window := streamWindowFactor * s.engine.Stats().Workers
	if window < 1 {
		window = 1
	}
	sem := make(chan struct{}, window)
	var wg sync.WaitGroup

	// Reader: scan lines, dispatch each into the bounded window. It
	// never writes to w (the handler goroutine owns the writer).
	go func() {
		defer func() {
			wg.Wait()
			close(results)
		}()
		sc := bufio.NewScanner(r.Body)
		maxLine := int(s.maxBodyBytes)
		if maxLine <= 0 {
			// Cap disabled: match the unary endpoint, which accepts any
			// size, rather than silently imposing the scanner's 64 KiB
			// default (the buffer grows on demand, so a huge limit costs
			// nothing until a line actually needs it).
			maxLine = 1 << 30
		}
		// The scanner's effective cap is max(maxLine, cap(buf)), so the
		// initial buffer must not exceed the configured line limit.
		bufCap := 64 << 10
		if bufCap > maxLine {
			bufCap = maxLine
		}
		sc.Buffer(make([]byte, 0, bufCap), maxLine)
		idx := 0
		for sc.Scan() {
			line := bytes.TrimSpace(sc.Bytes())
			if len(line) == 0 {
				continue // blank lines are not counted as requests
			}
			// Scanner reuses its buffer; the analysis goroutine needs its
			// own copy.
			data := append([]byte(nil), line...)
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
				return
			}
			wg.Add(1)
			go func(i int, data []byte) {
				defer wg.Done()
				defer func() { <-sem }()
				res := s.analyzeStreamLine(ctx, i, data)
				select {
				case results <- res:
				case <-ctx.Done():
				}
			}(idx, data)
			idx++
		}
		if err := sc.Err(); err != nil && ctx.Err() == nil {
			// Framing failure: the line boundary is lost, so the stream
			// cannot continue. Report it as a final error line tagged with
			// the index the unreadable line would have had.
			e := api.Errorf(api.CodeInvalidJSON, "reading stream: %v", err)
			if errors.Is(err, bufio.ErrTooLong) {
				e = api.Errorf(api.CodeBodyTooLarge, "stream line %d exceeds %d bytes", idx, maxLine)
			}
			wg.Wait() // keep the error the last line
			select {
			case results <- api.StreamResult{Index: idx, Error: e}:
			case <-ctx.Done():
			}
		}
	}()

	// Writer: the handler goroutine drains results onto the wire,
	// flushing after every line so verdicts reach the client as they
	// complete, not when the batch ends.
	//
	// The handler returns only once the reader goroutine has exited
	// (results is closed after it returns) and it has closed the body
	// itself. net/http reads the same connection as soon as the handler
	// returns — it drains the unread body, then watches for the next
	// request — and a read still in flight in the reader goroutine, or
	// one net/http starts behind its own cleanup, panics with "invalid
	// concurrent Body.Read call".
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	failed := false
	for res := range results {
		if failed {
			continue
		}
		if err := enc.Encode(res); err != nil {
			// Client gone. Unblock a read the client will never
			// satisfy; ctx cancellation unwinds the analyses.
			failed = true
			_ = rc.SetReadDeadline(time.Now())
			continue
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	// Drain (or give up on) whatever body the reader left unread while
	// the handler still owns the connection.
	_ = r.Body.Close()
}

// analyzeStreamLine parses, validates and analyses one NDJSON request
// line, converting every failure into a per-line wire error.
func (s *Server) analyzeStreamLine(ctx context.Context, idx int, data []byte) api.StreamResult {
	out := api.StreamResult{Index: idx}
	var req api.StreamRequest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		out.Error = api.Errorf(api.CodeInvalidJSON, "line %d: %v", idx, err)
		return out
	}
	if dec.More() {
		out.Error = api.Errorf(api.CodeInvalidJSON, "line %d: trailing data after JSON document", idx)
		return out
	}
	if req.Taskset == nil {
		out.Error = api.Errorf(api.CodeInvalidRequest, "line %d: taskset is required", idx)
		return out
	}
	if e := checkColumns(req.Columns); e != nil {
		out.Error = e
		return out
	}
	names := req.Tests
	if len(names) == 0 {
		names = []string{"any-nf"}
	}
	tests, _, apiErr := resolveTests(names)
	if apiErr != nil {
		out.Error = apiErr
		return out
	}
	if s.maxBatch > 0 && len(tests) > s.maxBatch {
		out.Error = api.Errorf(api.CodeLimitExceeded, "line %d: %d tests exceeds the per-line analysis limit of %d", idx, len(tests), s.maxBatch)
		return out
	}
	if e := s.checkSet(req.Taskset, req.Columns); e != nil {
		out.Error = e
		return out
	}
	results, apiErr := s.analyzeSets(ctx, req.Columns, []*task.Set{req.Taskset}, tests, req.Detail || req.Explain)
	if apiErr != nil {
		out.Error = apiErr
		return out
	}
	out.Result = &results[0]
	return out
}
