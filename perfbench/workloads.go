package main

import (
	"context"
	"fmt"
	"time"
)

// Run sizing: the analyst job's scale factor on the paper's dataset sizes
// and the fleet job's (smaller) one; the fewest job repetitions, and
// untraced/traced job pairs, a run makes whatever --seconds says; and how
// many set-ups dashboard-open times (a batch job times one per repetition).
const (
	analyticsScale = 0.1
	fleetScale     = 0.04
	minJobReps     = 3
	minTracePairs  = 2
	setupReps      = 9
)

// runJob serves the closed-loop batch job (analytics-batch, fleet-batch):
// every repetition sets up a fresh program, runs the whole job
// once, and tears it down, so each statement runs exactly once per
// repetition and the result cache never hits.
func runJob(ctx context.Context, cfg config, fleet bool) (*result, error) {
	scale, clients := analyticsScale, 1
	if fleet {
		scale, clients = fleetScale, cfg.conns
	}
	in, err := analyticsInputs(cfg.seed, scale*cfg.scale)
	if err != nil {
		return nil, err
	}
	ref, err := newReference(in)
	if err != nil {
		return nil, err
	}
	if err := ref.ensure(ctx, in, in.order); err != nil {
		return nil, err
	}
	c := newClient(clients)
	defer c.tr.CloseIdleConnections()
	r := &result{}
	noteInputs(r, in)
	job := func(st *stack, traced bool) (*pass, error) {
		ps, err := measure(st, len(in.order), traced, func(p *phase, spans *spanLog) {
			runClosed(ctx, c, st.url, in, clients, traced, p, spans)
		})
		if err != nil {
			return nil, err
		}
		if err := ref.checkPhase(in, ps.p); err != nil {
			return nil, fmt.Errorf("correctness: %w", err)
		}
		return ps, nil
	}
	once := func(traced bool) (*pass, time.Duration, error) {
		st, setup, err := setUpTimed(ctx, in, fleet, c)
		if err != nil {
			return nil, 0, err
		}
		ps, err := job(st, traced)
		st.tearDown()
		c.tr.CloseIdleConnections()
		return ps, setup, err
	}

	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	if cfg.trace {
		// Untraced and traced jobs alternate, so the tracing overhead is
		// not confounded with the process warming up; the first pair
		// supplies the counters and the spans.
		var plain, traced *pass
		var pw, tw []float64
		for i := 0; ; i++ {
			start := time.Now()
			p, _, err := once(false)
			if err != nil {
				return nil, err
			}
			t, _, err := once(true)
			if err != nil {
				return nil, err
			}
			loadNote(r, fmt.Sprintf("untraced-%d", i), p.p)
			loadNote(r, fmt.Sprintf("traced-%d", i), t.p)
			if i == 0 {
				plain, traced = p, t
			}
			pw, tw = append(pw, p.p.wall.Seconds()), append(tw, t.p.wall.Seconds())
			if i+1 >= minTracePairs && time.Now().Add(time.Since(start)).After(deadline) {
				break
			}
		}
		return r, perLayer(r, cfg, in, ref, plain, traced, 100*(median(tw)/median(pw)-1))
	}

	var setups, walls, rowsPerS, rates, cpus, allocs, heaps []float64
	var vs []virtual
	stmtLats := make([][]float64, len(in.order)) // per job statement, one latency per repetition
	for rep := 0; ; rep++ {
		repStart := time.Now()
		ps, setup, err := once(false)
		if err != nil {
			return nil, err
		}
		loadNote(r, fmt.Sprintf("job-%d", rep), ps.p)
		r.note("job-%d: set-up %.4f s, wall %.4f s, cpu %.4f s", rep, setup.Seconds(), ps.p.wall.Seconds(), ps.cpu.Seconds())
		v := ps.virtual()
		if !fleet && rep > 0 && v != vs[0] {
			// The steadiness check: with one client the virtual clock must
			// repeat exactly. Reported, never loosened.
			r.note("steadiness: repetition %d virtual figures %+v differ from repetition 0 %+v", rep, v, vs[0])
		}
		vs = append(vs, v)
		cpu, alloc := perStmt(ps)
		setups = append(setups, setup.Seconds())
		walls = append(walls, ps.p.wall.Seconds())
		rowsPerS = append(rowsPerS, float64(ps.stageRows())/ps.p.wall.Seconds())
		rates = append(rates, float64(ps.p.sent.Load())/ps.p.wall.Seconds())
		cpus = append(cpus, cpu)
		allocs = append(allocs, alloc)
		heaps = append(heaps, float64(ps.peakHeap)/(1<<20))
		for i, l := range durationsMs(ps.p.lat) {
			stmtLats[i] = append(stmtLats[i], l)
		}
		if rep+1 >= minJobReps && time.Now().Add(time.Since(repStart)).After(deadline) {
			break
		}
	}
	// A job has few statements of very different sizes, so its latency
	// percentiles are taken over each statement's median across
	// repetitions: p99 is then the slowest statement's typical latency.
	lats := make([]float64, len(stmtLats))
	for i, l := range stmtLats {
		lats[i] = median(l)
	}
	r.note("repetitions %d, statements %d", len(walls), len(lats))
	endToEnd{
		setup: median(setups), wall: median(walls), rowsPerS: median(rowsPerS),
		p50: percentile(lats, 0.5), p99: percentile(lats, 0.99), maxRate: median(rates),
		okShare: 1 - ratio(r.failed, r.attempted), cpuPerStmt: median(cpus), allocPerStmt: median(allocs),
		peakHeap: median(heaps), v: medianVirtual(vs),
	}.report(r)
	return r, nil
}

// dashboardP99LimitMs is the p99 latency limit a ladder rate must meet.
const dashboardP99LimitMs = 100

// runDashboard serves the open-loop dashboard traffic: a phase at the
// reference rate, then the rate ladder, on one long-lived stack.
func runDashboard(ctx context.Context, cfg config) (*result, error) {
	in, err := dashboardInputs(cfg.seed, cfg.scale, cfg.seconds)
	if err != nil {
		return nil, err
	}
	ref, err := newReference(in)
	if err != nil {
		return nil, err
	}
	c := newClient(cfg.conns)
	defer c.tr.CloseIdleConnections()
	r := &result{}
	noteInputs(r, in)
	open := func(st *stack, sched []arrival, traced bool) (*pass, error) {
		used := make([]int, len(sched))
		for i, a := range sched {
			used[i] = a.stmt
		}
		if err := ref.ensure(ctx, in, used); err != nil {
			return nil, err
		}
		ps, err := measure(st, len(sched), traced, func(p *phase, spans *spanLog) {
			runOpen(ctx, c, st.url, in, sched, cfg.conns, traced, p, spans)
		})
		if err != nil {
			return nil, err
		}
		if err := ref.checkPhase(in, ps.p); err != nil {
			return nil, fmt.Errorf("correctness: %w", err)
		}
		return ps, nil
	}
	// Set-up is measured several times; the last stack serves the run.
	var setups []float64
	var st *stack
	for i := 0; i < setupReps; i++ {
		if st != nil {
			st.tearDown()
			c.tr.CloseIdleConnections()
		}
		var d time.Duration
		if st, d, err = setUpTimed(ctx, in, false, c); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	defer func() { st.tearDown() }()

	refPass, err := open(st, in.ref, false)
	if err != nil {
		return nil, err
	}
	loadNote(r, "reference", refPass.p)
	if cfg.trace {
		// A traced pass, then a second untraced one, each on a fresh stack:
		// the overhead compares the traced median latency with the mean of
		// the untraced passes around it.
		fresh := func(traced bool) (*pass, error) {
			st.tearDown()
			c.tr.CloseIdleConnections()
			if st, _, err = setUpTimed(ctx, in, false, c); err != nil {
				return nil, err
			}
			return open(st, in.ref, traced)
		}
		traced, err := fresh(true)
		if err != nil {
			return nil, err
		}
		again, err := fresh(false)
		if err != nil {
			return nil, err
		}
		loadNote(r, "traced", traced.p)
		loadNote(r, "untraced-again", again.p)
		lat := func(ps *pass) float64 { return median(durationsMs(ps.p.lat)) }
		overhead := 100 * (lat(traced)/((lat(refPass)+lat(again))/2) - 1)
		return r, perLayer(r, cfg, in, ref, refPass, traced, overhead)
	}

	var rates, q []float64
	for i, step := range in.ladder {
		ps, err := open(st, step, false)
		if err != nil {
			return nil, err
		}
		loadNote(r, fmt.Sprintf("ladder-%.0f", in.rates[i]), ps.p)
		lat := durationsMs(ps.p.lat)
		// A step fails on its p99 or on a growing backlog (the generator
		// running late at the end of the step); a failed request misses
		// the limit outright.
		tail := durationsMs(ps.p.late[len(ps.p.late)*9/10:])
		worst := max(percentile(lat, 0.99), median(tail))
		if ps.p.failed.Load() > 0 {
			worst = max(worst, 10*dashboardP99LimitMs)
		}
		r.note("ladder rate %.1f/s: p99 %.2f ms, late tail %.2f ms, samples %d", in.rates[i], percentile(lat, 0.99), median(tail), len(lat))
		rates, q = append(rates, in.rates[i]), append(q, worst)
		if n := len(q); n >= 2 && q[n-2] > dashboardP99LimitMs && q[n-1] > dashboardP99LimitMs {
			break // past the knee; higher steps only grow the backlog
		}
	}
	lat := durationsMs(refPass.p.lat)
	r.note("reference rate %.1f/s: latency samples %d, generator late p99 %.3f ms",
		in.refRate, len(lat), percentile(durationsMs(refPass.p.late), 0.99))
	cpu, alloc := perStmt(refPass)
	endToEnd{
		setup: median(setups), wall: refPass.p.wall.Seconds(),
		rowsPerS: float64(refPass.stageRows()) / refPass.p.wall.Seconds(),
		p50:      percentile(lat, 0.5), p99: percentile(lat, 0.99),
		maxRate: maxRate(rates, q, dashboardP99LimitMs),
		okShare: 1 - ratio(r.failed, r.attempted), cpuPerStmt: cpu, allocPerStmt: alloc,
		peakHeap: float64(refPass.peakHeap) / (1 << 20), v: refPass.virtual(),
	}.report(r)
	return r, nil
}

// maxRate is the highest offered rate meeting limit, interpolated between
// the last ladder step that met it and the first step of the failures that
// persist to the top of the ladder: a lone failed step followed by a
// passing one is a latency spike, not the knee. Below the first step it
// scales the first rate down by the overshoot; when the top step passes it
// reports the top rate.
func maxRate(rates, worst []float64, limit float64) float64 {
	k := len(rates)
	for k > 0 && worst[k-1] > limit {
		k--
	}
	switch k {
	case len(rates):
		return rates[k-1]
	case 0:
		return rates[0] * limit / worst[0]
	}
	// Past the knee a growing backlog inflates latency without bound;
	// capping the failing step's figure keeps one slow step from dragging
	// the interpolation.
	f := (limit - worst[k-1]) / (min(worst[k], 3*limit) - worst[k-1])
	return rates[k-1] + f*(rates[k]-rates[k-1])
}

// noteInputs reports the generated inputs' properties.
func noteInputs(r *result, in *inputs) {
	rows := 0
	for _, d := range in.datasets {
		rows += d.rows
		r.note("input table %s: %d rows, %d KiB", d.name, d.rows, len(d.data)/1024)
	}
	r.note("input rows %d, distinct statements %d", rows, len(in.stmts))
	if in.ref == nil {
		return
	}
	seen := map[int]bool{}
	kinds := map[string]int{}
	repeats, total := 0, 0
	for _, phase := range append([][]arrival{in.ref}, in.ladder...) {
		for _, a := range phase {
			total++
			if seen[a.stmt] {
				repeats++
			}
			seen[a.stmt] = true
			kinds[in.stmts[a.stmt].kind]++
		}
	}
	r.note("statements %d: exact-repeat share %.3f, fresh-text share %.3f", total, ratio(int64(repeats), int64(total)), 1-ratio(int64(repeats), int64(total)))
	for k, n := range kinds {
		r.note("template kind %s: share %.3f", k, ratio(int64(n), int64(total)))
	}
}

// medianVirtual is the field-wise median of the passes' virtual figures
// (with one client they are all equal).
func medianVirtual(vs []virtual) virtual {
	pick := func(f func(v virtual) float64) float64 {
		xs := make([]float64, len(vs))
		for i, v := range vs {
			xs[i] = f(v)
		}
		return median(xs)
	}
	return virtual{
		jct:       pick(func(v virtual) float64 { return v.jct }),
		calls:     int64(pick(func(v virtual) float64 { return float64(v.calls) })),
		hitRate:   pick(func(v virtual) float64 { return v.hitRate }),
		openai:    pick(func(v virtual) float64 { return v.openai }),
		anthropic: pick(func(v virtual) float64 { return v.anthropic }),
	}
}
