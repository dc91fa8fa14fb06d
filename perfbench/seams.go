package main

import (
	"context"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backend"
	"repro/internal/llmsim"
)

// The benchmark measures the program only from outside: every number below
// is taken at a public seam — the HTTP handlers, the backend.Backend
// interface, and the cluster router's http.Client. Nothing in the timed
// path does more than O(1) work per request or batch: counters, timestamps,
// and pointers appended to preallocated or mutex-guarded logs.

// Header names the benchmark's own wrappers use to correlate one request
// across seams. The program never reads them.
const (
	reqHeader   = "X-Perfbench-Req"
	batchHeader = "X-Perfbench-Batch"
	partHeader  = "X-Perfbench-Part"
)

type ctxKey int

const (
	batchKey ctxKey = iota // int64 batch id, set by the runtime-level backend seam
	partKey                // int64 part id, set by the worker handler seam
)

// spanRec is one span recorded by a benchmark wrapper (traced runs only).
// Times are nanoseconds since the span log's base. Req names the statement
// (client and handler spans) and Batch/Part the backend batch or wire part
// the span belongs to; the parent is resolved after the run from these ids.
type spanRec struct {
	Name  string
	Req   int64
	Batch int64
	Part  int64
	Start int64
	End   int64
}

// spanLog keeps spans in memory until the run ends. A nil log records
// nothing, so untraced passes pay one nil check.
type spanLog struct {
	base  time.Time
	mu    sync.Mutex
	spans []spanRec // guarded by mu
}

func newSpanLog() *spanLog { return &spanLog{base: time.Now()} }

func (l *spanLog) add(s spanRec, start, end time.Time) {
	if l == nil {
		return
	}
	s.Start = start.Sub(l.base).Nanoseconds()
	s.End = end.Sub(l.base).Nanoseconds()
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

func (l *spanLog) snapshot() []spanRec {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]spanRec(nil), l.spans...)
}

// meteredBackend decorates a backend.Backend with counters. The
// runtime-level instance also tags each batch's context with a batch id (so
// the wire and worker seams can attribute parts to it) and logs each
// batch's request slice, in serving order, for the cost replay that runs
// after the clock stops.
type meteredBackend struct {
	inner backend.Backend
	tag   bool // assign batch ids (runtime-level seam only)
	name  string

	nextBatch atomic.Int64
	batches   atomic.Int64
	rows      atomic.Int64
	errs      atomic.Int64
	busyNs    atomic.Int64
	calls     atomic.Int64
	jctMicros atomic.Int64
	prompt    atomic.Int64
	matched   atomic.Int64

	mu    sync.Mutex
	log   [][]*llmsim.Request // guarded by mu; nil unless keepLog
	keep  bool                // guarded by mu
	slow  map[int64]int64     // guarded by mu; slowest part's busy ns per batch (worker seams)
	spans *spanLog            // guarded by mu
}

func newMeteredBackend(inner backend.Backend, name string, tag bool) *meteredBackend {
	return &meteredBackend{inner: inner, name: name, tag: tag, slow: make(map[int64]int64)}
}

// arm resets the counters and sets what the next pass records.
func (m *meteredBackend) arm(keepLog bool, spans *spanLog) {
	m.batches.Store(0)
	m.rows.Store(0)
	m.errs.Store(0)
	m.busyNs.Store(0)
	m.calls.Store(0)
	m.jctMicros.Store(0)
	m.prompt.Store(0)
	m.matched.Store(0)
	m.mu.Lock()
	m.log = nil
	m.keep = keepLog
	m.slow = make(map[int64]int64)
	m.spans = spans
	m.mu.Unlock()
}

func (m *meteredBackend) RunBatch(ctx context.Context, spec backend.BatchSpec) (backend.BatchResult, error) {
	var id int64
	if m.tag {
		id = m.nextBatch.Add(1)
		ctx = context.WithValue(ctx, batchKey, id)
	} else {
		id, _ = ctx.Value(batchKey).(int64)
	}
	part, _ := ctx.Value(partKey).(int64)
	m.mu.Lock()
	if m.keep {
		m.log = append(m.log, spec.Requests)
	}
	spans := m.spans
	m.mu.Unlock()
	start := time.Now()
	res, err := m.inner.RunBatch(ctx, spec)
	end := time.Now()
	d := end.Sub(start)
	m.busyNs.Add(d.Nanoseconds())
	if err != nil {
		m.errs.Add(1)
	} else {
		m.batches.Add(1)
		m.rows.Add(int64(len(spec.Requests)))
		m.calls.Add(int64(res.ModelCalls))
		// The runtime accounts JCT in whole microseconds per batch; summing
		// the same truncation keeps the conservation check exact.
		m.jctMicros.Add(int64(res.Metrics.JCT * 1e6))
		m.prompt.Add(res.Metrics.PromptTokens)
		m.matched.Add(res.Metrics.MatchedTokens)
	}
	if part != 0 {
		m.mu.Lock()
		m.slow[id] = max(m.slow[id], d.Nanoseconds())
		m.mu.Unlock()
	}
	spans.add(spanRec{Name: m.name, Batch: id, Part: part}, start, end)
	return res, err
}

func (m *meteredBackend) Close() error { return m.inner.Close() }

// Unwrap lets the runtime see through the decorator when it folds the
// serving backend's own metrics (cluster.Router) into runtime.Metrics.
func (m *meteredBackend) Unwrap() backend.Backend { return m.inner }

func (m *meteredBackend) requestLog() [][]*llmsim.Request {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.log
}

// slowestParts folds this seam's per-batch slowest part busy time into acc.
func (m *meteredBackend) slowestParts(acc map[int64]int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for k, v := range m.slow {
		acc[k] = max(acc[k], v)
	}
}

// sqlSeam wraps the /v1/sql mux: it times the handler per request, keyed
// by the benchmark's request id header, into a preallocated slot array.
type sqlSeam struct {
	next  http.Handler
	mu    sync.Mutex
	slots []atomic.Int64 // guarded by mu (the slice header; elements are atomic)
	done  atomic.Int64
	spans *spanLog // guarded by mu
}

func (s *sqlSeam) arm(n int, spans *spanLog) {
	s.mu.Lock()
	s.slots = make([]atomic.Int64, n)
	s.spans = spans
	s.mu.Unlock()
	s.done.Store(0)
}

func (s *sqlSeam) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.Header.Get(reqHeader))
	if err != nil || r.URL.Path != "/v1/sql" {
		s.next.ServeHTTP(w, r)
		return
	}
	s.mu.Lock()
	slots, spans := s.slots, s.spans
	s.mu.Unlock()
	start := time.Now()
	s.next.ServeHTTP(w, r)
	end := time.Now()
	if id >= 0 && id < len(slots) {
		slots[id].Store(end.Sub(start).Nanoseconds())
	}
	spans.add(spanRec{Name: "sql_handler", Req: int64(id)}, start, end)
	s.done.Add(1)
}

// handlerNs returns the recorded handler time of request id.
func (s *sqlSeam) handlerNs(id int) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id < 0 || id >= len(s.slots) {
		return 0
	}
	return s.slots[id].Load()
}

// batchSeam wraps a worker's /v1/batch mux: it times the handler and
// carries the part id from the wire header into the request context, where
// the worker's backend seam picks it up.
type batchSeam struct {
	next     http.Handler
	requests atomic.Int64
	busyNs   atomic.Int64
	mu       sync.Mutex
	spans    *spanLog // guarded by mu
}

func (s *batchSeam) arm(spans *spanLog) {
	s.requests.Store(0)
	s.busyNs.Store(0)
	s.mu.Lock()
	s.spans = spans
	s.mu.Unlock()
}

func (s *batchSeam) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/v1/batch" {
		s.next.ServeHTTP(w, r)
		return
	}
	batch, _ := strconv.ParseInt(r.Header.Get(batchHeader), 10, 64)
	part, _ := strconv.ParseInt(r.Header.Get(partHeader), 10, 64)
	ctx := context.WithValue(context.WithValue(r.Context(), batchKey, batch), partKey, part)
	s.mu.Lock()
	spans := s.spans
	s.mu.Unlock()
	start := time.Now()
	s.next.ServeHTTP(w, r.WithContext(ctx))
	end := time.Now()
	s.requests.Add(1)
	s.busyNs.Add(end.Sub(start).Nanoseconds())
	spans.add(spanRec{Name: "batch_handler", Batch: batch, Part: part}, start, end)
}

// wireSeam is the cluster router's http.RoundTripper: it stamps each
// /v1/batch part with its batch and part ids and meters bytes and round
// trip time. Health probes pass through unmetered.
type wireSeam struct {
	next     http.RoundTripper
	nextPart atomic.Int64
	parts    atomic.Int64
	reqBytes atomic.Int64
	rspBytes atomic.Int64
	rttNs    atomic.Int64
	mu       sync.Mutex
	spans    *spanLog // guarded by mu
}

func (t *wireSeam) arm(spans *spanLog) {
	t.parts.Store(0)
	t.reqBytes.Store(0)
	t.rspBytes.Store(0)
	t.rttNs.Store(0)
	t.mu.Lock()
	t.spans = spans
	t.mu.Unlock()
}

func (t *wireSeam) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path != "/v1/batch" {
		return t.next.RoundTrip(req)
	}
	batch, _ := req.Context().Value(batchKey).(int64)
	part := t.nextPart.Add(1)
	out := req.Clone(req.Context())
	out.Header.Set(batchHeader, strconv.FormatInt(batch, 10))
	out.Header.Set(partHeader, strconv.FormatInt(part, 10))
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	start := time.Now()
	resp, err := t.next.RoundTrip(out)
	t.parts.Add(1)
	if req.ContentLength > 0 {
		t.reqBytes.Add(req.ContentLength)
	}
	if err != nil {
		end := time.Now()
		t.rttNs.Add(end.Sub(start).Nanoseconds())
		spans.add(spanRec{Name: "roundtrip", Batch: batch, Part: part}, start, end)
		return nil, err
	}
	resp.Body = &meteredBody{ReadCloser: resp.Body, seam: t, spans: spans, start: start,
		rec: spanRec{Name: "roundtrip", Batch: batch, Part: part}}
	return resp, nil
}

// meteredBody counts response bytes and closes the round trip's interval
// when the caller closes the body.
type meteredBody struct {
	io.ReadCloser
	seam   *wireSeam
	spans  *spanLog
	start  time.Time
	rec    spanRec
	n      int64
	closed bool
}

func (b *meteredBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *meteredBody) Close() error {
	err := b.ReadCloser.Close()
	if !b.closed {
		b.closed = true
		end := time.Now()
		b.seam.rspBytes.Add(b.n)
		b.seam.rttNs.Add(end.Sub(b.start).Nanoseconds())
		b.spans.add(b.rec, b.start, end)
	}
	return err
}
