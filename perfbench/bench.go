package main

import (
	"context"
	"fmt"
	"math"
	goruntime "runtime"
	"sort"
	"time"

	"repro/internal/runtime"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    float64 // input-size multiplier (1 = the benchmark's sizes)
	outDir   string  // where the traced run writes its span file
	conns    int     // client connections (nproc)
}

// metric is one reported figure.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is what one invocation reports.
type result struct {
	attempted, failed int64
	metrics           []metric
	notes             []string
}

func (r *result) add(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.note("metric %s is undefined on this run; reported as 0", name)
		v = 0
	}
	r.metrics = append(r.metrics, metric{name, v, unit})
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// pass is one measured pass over one stack: the load generator's record,
// resource usage, the program's counters before and after, and the seams'
// counters.
type pass struct {
	p             *phase
	cpu           time.Duration
	alloc         uint64
	peakHeap      int64
	before, after runtime.Metrics
	handlerNs     []int64
	openai, anth  float64

	// The runtime-level backend seam: batches, rows, errors, busy ns,
	// prompt and matched tokens.
	beBatches, beRows, beErrs, beBusy, bePrompt, beMatched int64
	// The router's wire: parts sent, request and response bytes, round
	// trip ns.
	wParts, wReq, wRsp, wRTT int64
	// The workers: /v1/batch requests and handler busy ns, backend busy ns
	// and rows, and the summed slowest-part busy ns per batch.
	hReq, hBusy, wbBusy, wbRows, slowSum int64
	// Spans of a traced pass, with the time their offsets count from.
	spans    []spanRec
	spanBase time.Time
}

// measure runs one pass of run on st and collects everything a report
// needs. The clock covers run only; the conservation check and the cost
// replay happen after it stops.
func measure(st *stack, n int, traced bool, run func(p *phase, spans *spanLog)) (*pass, error) {
	var spans *spanLog
	if traced {
		spans = newSpanLog()
	}
	st.arm(n, spans)
	goruntime.GC() // so the previous pass's garbage is not collected on this one's clock
	p := newPhase(n)
	ps := &pass{p: p, before: st.rt.Metrics()}
	u0 := readUsage()
	hs := startHeapSampler(&p.retained)
	run(p, spans)
	ps.peakHeap = hs.Stop()
	u1 := readUsage()
	ps.cpu = u1.cpu - u0.cpu
	ps.alloc = u1.totalAlloc - u0.totalAlloc
	// A handler finishes its bookkeeping just after the client has read the
	// response; wait for the last ones.
	for i := 0; i < 1000 && st.sql.done.Load() < p.sent.Load(); i++ {
		time.Sleep(time.Millisecond)
	}
	ps.after = st.rt.Metrics()
	ps.handlerNs = make([]int64, n)
	for i := range ps.handlerNs {
		ps.handlerNs[i] = st.sql.handlerNs(i)
	}
	be := st.be
	ps.beBatches, ps.beRows, ps.beErrs = be.batches.Load(), be.rows.Load(), be.errs.Load()
	ps.beBusy, ps.bePrompt, ps.beMatched = be.busyNs.Load(), be.prompt.Load(), be.matched.Load()
	if st.wire != nil {
		ps.wParts, ps.wReq, ps.wRsp, ps.wRTT = st.wire.parts.Load(), st.wire.reqBytes.Load(), st.wire.rspBytes.Load(), st.wire.rttNs.Load()
	}
	slow := map[int64]int64{}
	for _, w := range st.workers {
		ps.hReq += w.seam.requests.Load()
		ps.hBusy += w.seam.busyNs.Load()
		ps.wbBusy += w.be.busyNs.Load()
		ps.wbRows += w.be.rows.Load()
		w.be.slowestParts(slow)
	}
	for _, v := range slow {
		ps.slowSum += v
	}
	if spans != nil {
		ps.spans, ps.spanBase = spans.snapshot(), spans.base
	}
	if err := checkConservation(p, be, ps.before, ps.after); err != nil {
		return nil, fmt.Errorf("conservation: %w", err)
	}
	var err error
	if ps.openai, ps.anth, err = costs(be); err != nil {
		return nil, fmt.Errorf("cost replay: %w", err)
	}
	return ps, nil
}

// virtual are the virtual-clock figures of a pass.
type virtual struct {
	jct       float64
	calls     int64
	hitRate   float64
	openai    float64
	anthropic float64
}

func (ps *pass) virtual() virtual {
	d := ps.after.PromptTokens - ps.before.PromptTokens
	hr := 0.0
	if d > 0 {
		hr = float64(ps.after.MatchedTokens-ps.before.MatchedTokens) / float64(d)
	}
	return virtual{
		jct:       ps.after.TotalJCT - ps.before.TotalJCT,
		calls:     ps.after.LLMCalls - ps.before.LLMCalls,
		hitRate:   hr,
		openai:    ps.openai,
		anthropic: ps.anth,
	}
}

// stageRows is the number of rows that entered LLM stages: cache hits,
// in-flight joins, in-stage duplicates and owned rows.
func (ps *pass) stageRows() int64 {
	a, b := ps.after, ps.before
	return (a.CacheHits - b.CacheHits) + (a.CacheMisses - b.CacheMisses) +
		(a.InflightDeduped - b.InflightDeduped) + (a.RowsDeduped - b.RowsDeduped)
}

func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// percentile is the nearest-rank percentile of xs (q in [0,1]).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// setUpTimed builds a stack and returns it with its set-up time. A
// collection first keeps the previous pass's garbage out of the figure.
func setUpTimed(ctx context.Context, in *inputs, fleet bool, c *client) (*stack, time.Duration, error) {
	goruntime.GC()
	start := time.Now()
	st, err := setUp(ctx, in, fleet, c)
	return st, time.Since(start), err
}

// endToEnd fills the end-to-end metrics shared by every workload from the
// per-pass figures: medians over passes for per-pass figures, pooled
// samples for latencies.
type endToEnd struct {
	setup, wall, rowsPerS, p50, p99, maxRate, okShare float64
	cpuPerStmt, allocPerStmt, peakHeap                float64
	v                                                 virtual
}

func (e endToEnd) report(r *result) {
	r.add("setup_s", e.setup, "s")
	r.add("wall_s", e.wall, "s")
	r.add("rows_per_s", e.rowsPerS, "1/s")
	r.add("stmt_p50_ms", e.p50, "ms")
	r.add("stmt_p99_ms", e.p99, "ms")
	r.add("max_rate_sps", e.maxRate, "1/s")
	r.add("ok_share", e.okShare, "ratio")
	r.add("cpu_ms_per_stmt", e.cpuPerStmt, "ms")
	r.add("alloc_kb_per_stmt", e.allocPerStmt, "KiB")
	r.add("peak_heap_mb", e.peakHeap, "MiB")
	r.add("sim_jct_s", e.v.jct, "s")
	r.add("prefix_hit_rate", e.v.hitRate, "ratio")
	r.add("llm_calls", float64(e.v.calls), "count")
	r.add("cost_usd_openai", e.v.openai, "USD")
	r.add("cost_usd_anthropic", e.v.anthropic, "USD")
}

func perStmt(ps *pass) (cpuMs, allocKB float64) {
	n := float64(ps.p.sent.Load())
	return float64(ps.cpu) / float64(time.Millisecond) / n, float64(ps.alloc) / 1024 / n
}

func loadNote(r *result, name string, p *phase) {
	s, o, f := p.sent.Load(), p.ok.Load(), p.failed.Load()
	r.note("phase %s: sent %d ok %d failed %d failed_share %.4f ratio", name, s, o, f, ratio(f, s))
	r.attempted += s
	r.failed += f
}
