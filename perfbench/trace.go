package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fpgasched/internal/durable"
	"fpgasched/internal/server"
)

// span is one timed interval at a layer boundary. Req is the operation
// id shared by every span of one benchmark operation; Parent is the span
// that caused this one (0 for a client call, which is a root).
type span struct {
	ID     uint64        `json:"id"`
	Parent uint64        `json:"parent,omitempty"`
	Req    uint64        `json:"req,omitempty"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps a traced run's spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
	// open maps a controller to the server span handling its current
	// mutation, so the store wrapper can parent its append span. Each
	// client owns one controller and waits for every reply, so a
	// controller has at most one mutation in flight.
	open map[string]span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), open: make(map[string]span)}
}

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

func (t *tracer) newID() uint64 { return t.ids.Add(1) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// reset drops the spans recorded so far (set-up and warm-up), so only the
// timed phase and the replays after it are kept.
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanKey carries the calling client span in a request context.
type spanKey struct{}

// Request headers that carry the client span to the server wrapper.
const (
	hdrReq  = "X-Perfbench-Req"
	hdrSpan = "X-Perfbench-Span"
)

// traceTransport stamps each request with the client span in its context.
type traceTransport struct{ base http.RoundTripper }

func (t traceTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	s, ok := r.Context().Value(spanKey{}).(span)
	if !ok {
		return t.base.RoundTrip(r)
	}
	r = r.Clone(r.Context())
	r.Header.Set(hdrReq, strconv.FormatUint(s.Req, 10))
	r.Header.Set(hdrSpan, strconv.FormatUint(s.ID, 10))
	return t.base.RoundTrip(r)
}

// handler wraps Server.ServeHTTP in a "server" span whose parent is the
// client span named by the request headers.
func (t *tracer) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s := span{ID: t.newID(), Name: "server"}
		s.Req, _ = strconv.ParseUint(r.Header.Get(hdrReq), 10, 64)
		s.Parent, _ = strconv.ParseUint(r.Header.Get(hdrSpan), 10, 64)
		ctrl := controllerOf(r.URL.Path)
		s.Start = t.now()
		if ctrl != "" {
			t.mu.Lock()
			t.open[ctrl] = s
			t.mu.Unlock()
		}
		next.ServeHTTP(w, r)
		s.End = t.now()
		t.mu.Lock()
		if ctrl != "" {
			delete(t.open, ctrl)
		}
		t.spans = append(t.spans, s)
		t.mu.Unlock()
	})
}

// controllerOf returns the admission controller a request path addresses,
// or "".
func controllerOf(path string) string {
	rest, ok := strings.CutPrefix(path, "/v1/controllers/")
	if !ok {
		return ""
	}
	name, _, _ := strings.Cut(rest, "/")
	return name
}

// timingStore is the traced run's server.Store: it times every append
// around the wrapped store and returns the store's error unchanged, so
// the server's store_failed rollback behaves exactly as without it.
type timingStore struct {
	inner server.Store
	tr    *tracer
}

func (s *timingStore) Append(r durable.Record) error {
	start := s.tr.now()
	err := s.inner.Append(r)
	end := s.tr.now()
	s.tr.mu.Lock()
	parent := s.tr.open[r.Controller]
	s.tr.spans = append(s.tr.spans, span{ID: s.tr.newID(), Parent: parent.ID, Req: parent.Req, Name: "durable.append", Start: start, End: end})
	s.tr.mu.Unlock()
	return err
}

func (s *timingStore) Metrics() durable.Metrics { return s.inner.Metrics() }

// selfTime is the part of parent's interval that none of its children
// cover; overlapping children count once and are clipped to the parent.
func selfTime(parent span, children []span) time.Duration {
	type interval struct{ lo, hi time.Duration }
	ivs := make([]interval, 0, len(children))
	for _, c := range children {
		if lo, hi := max(c.Start, parent.Start), min(c.End, parent.End); lo < hi {
			ivs = append(ivs, interval{lo, hi})
		}
	}
	slices.SortFunc(ivs, func(a, b interval) int { return cmp.Compare(a.lo, b.lo) })
	var covered time.Duration
	end := parent.Start
	for _, iv := range ivs {
		if lo := max(iv.lo, end); iv.hi > lo {
			covered += iv.hi - lo
			end = iv.hi
		}
	}
	return parent.dur() - covered
}
