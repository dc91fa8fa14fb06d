package runtime

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/table"
)

// RunStage is the runtime's stage executor, injected into
// sqlfront.ExecConfig.StageRunner for every statement the runtime serves.
// For each row of the stage it decides, in one atomic cache step, whether
// the call's answer is already cached, already being computed by a
// concurrent statement (inflight dedup), or ours to compute; owned rows go
// through the cross-query micro-batcher. The returned StageResult matches
// query.RunStageContext's contract — Outputs indexed by tbl's rows — with
// ModelCalls reporting only the rows that actually reached an engine.
//
// Cancellation: ctx is honored at entry, while parked in the batch window,
// and while waiting on another statement's inflight computation. A canceled
// owner abandons its wait but never its obligations — the coalesced run it
// joined completes regardless (it may carry other statements' rows), and a
// detached resolver commits or fails the owner's result-cache reservations
// when the run lands, so subscribed statements still complete and nothing
// stays reserved forever.
//
// Specs without content-derived row keys (Spec.RowKeys == nil) bypass the
// cache and batcher: a positional row identity says nothing about the row's
// content, so exact-match caching would be unsound. The LLM-SQL executor
// always content-keys its stages.
func (rt *Runtime) RunStage(ctx context.Context, spec query.Spec, tbl *table.Table, qcfg query.Config) (*query.StageResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n := tbl.NumRows()
	if n == 0 {
		return &query.StageResult{Spec: spec}, nil
	}
	if spec.RowKeys == nil {
		rt.c.directStages.Add(1)
		st, err := query.RunStageContext(ctx, spec, tbl, qcfg)
		if err != nil {
			return nil, err
		}
		rt.c.batches.Add(1)
		rt.c.llmCalls.Add(int64(st.ModelCalls))
		rt.c.jctMicros.Add(int64(st.Metrics.JCT * 1e6))
		rt.c.solverMicros.Add(int64(st.SolverSeconds * 1e6))
		rt.c.promptTokens.Add(st.Metrics.PromptTokens)
		rt.c.matchedTokens.Add(st.Metrics.MatchedTokens)
		rt.c.prefilledTokens.Add(st.Metrics.PrefilledTokens)
		if si := stmtInfoFrom(ctx); si != nil {
			si.calls += int64(st.ModelCalls)
			si.tokens += st.Metrics.PromptTokens
		}
		// Charge the trace exactly what the statement was charged: same
		// numbers, same place — that identity is the conservation invariant.
		if sp := obs.FromContext(ctx); sp != nil {
			sp.Set("direct", true)
			sp.Charge(int64(st.ModelCalls), st.Metrics.PromptTokens, st.Metrics.JCT)
		}
		return st, nil
	}

	fp := query.StageKey(spec, tbl.Columns(), qcfg)
	keys := make([]string, n)
	vals := make(map[string]string) // resolved outputs by row key
	subs := make(map[string]*inflight)
	seen := make(map[string]bool)
	var ownedRows []int
	var ownedKeys []string
	var hits, inflightJoins, deduped int64
	for i := 0; i < n; i++ {
		key := stageRowKey(fp, tbl, spec, i)
		keys[i] = key
		if seen[key] {
			// Duplicate row content within this stage: one computation
			// serves every copy.
			deduped++
			continue
		}
		seen[key] = true
		switch state, val, fl := rt.cache.acquire(key); state {
		case acquireHit:
			hits++
			vals[key] = val
		case acquireSubscribed:
			inflightJoins++
			subs[key] = fl
		case acquireOwned:
			ownedRows = append(ownedRows, i)
			ownedKeys = append(ownedKeys, key)
		}
	}
	rt.c.rowsDeduped.Add(deduped)
	rt.c.cacheHits.Add(hits)
	rt.c.inflightDeduped.Add(inflightJoins)
	rt.c.cacheMisses.Add(int64(len(ownedRows)))
	rt.rollups.ObserveCache(fp, hits, int64(len(ownedRows)), inflightJoins, deduped)
	sp := obs.FromContext(ctx)
	if sp != nil {
		sp.Set("rows", n)
		sp.Set("cacheHits", hits)
		sp.Set("cacheMisses", len(ownedRows))
		sp.Set("inflightDeduped", inflightJoins)
		sp.Set("rowsDeduped", deduped)
	}

	// SolverSeconds and PHC stay zero here unless this stage owns rows, in
	// which case the batch result below overwrites them.
	//llmqlint:partial
	st := &query.StageResult{Spec: spec, Rows: n, ModelCalls: len(ownedRows)}
	if len(ownedRows) > 0 {
		parkStart := time.Now()
		m := rt.batcher.submit(ctx, fp, spec, tbl, ownedRows, qcfg)
		select {
		case <-m.done:
		case <-ctx.Done():
			// Abandon the wait, not the reservations: the batch proceeds
			// without us and the detached resolver settles our keys when it
			// lands, so subscribers and later statements are not poisoned.
			go func() {
				<-m.done
				rt.resolveOwned(ownedKeys, m)
				rt.c.abandonedResolved.Add(int64(len(ownedKeys)))
			}()
			return nil, ctx.Err()
		}
		if sp != nil {
			park := sp.ChildAt("batch-wait", parkStart, time.Since(parkStart))
			park.Set("ownedRows", len(ownedRows))
			park.Set("windowMs", float64(m.window)/float64(time.Millisecond))
			if m.pulledForward {
				park.Set("pulledWindowForward", true)
			}
		}
		if m.err != nil {
			rt.resolveOwned(ownedKeys, m)
			return nil, m.err
		}
		rt.resolveOwned(ownedKeys, m)
		for j, key := range ownedKeys {
			vals[key] = m.outputs[j]
		}
		// Attribute the coalesced run's serving cost to this statement: it
		// waited for exactly this engine run. A batch shared by k statements
		// is counted once in the runtime totals (see batcher.run) but
		// appears in each participant's own Result.
		st.Metrics = m.batch.Metrics
		st.SolverSeconds = m.batch.SolverSeconds
		st.PHC = m.batch.PHC
		// Charge this statement its own rows, and a row-proportional share
		// of the coalesced run's prompt tokens: the batch total is conserved
		// across participants (up to integer truncation), so per-client
		// token accounting sums to the fleet's.
		var tok int64
		if m.batch.Rows > 0 {
			tok = m.batch.Metrics.PromptTokens * int64(len(m.rows)) / int64(m.batch.Rows)
		}
		if si := stmtInfoFrom(ctx); si != nil {
			si.calls += int64(len(ownedRows))
			si.tokens += tok
		}
		if sp != nil {
			// The shared batch span (zero charges, whole-run attrs) joins
			// this statement's tree; the member's own proportional charge —
			// the same numbers the statement was charged above — lands on
			// the stage span so trace totals conserve even when the batch is
			// shared.
			sp.Adopt(m.bspan)
			sp.Charge(int64(len(ownedRows)), tok, m.batch.Metrics.JCT)
		}
	}
	if len(subs) > 0 {
		subStart := time.Now()
		for key, fl := range subs {
			select {
			case <-ctx.Done():
				// A subscription carries no obligation; the owner resolves it.
				return nil, ctx.Err()
			case <-fl.done:
			}
			if fl.err != nil {
				return nil, fmt.Errorf("runtime: deduplicated call failed in its owning statement: %w", fl.err)
			}
			vals[key] = fl.val
		}
		if sp != nil {
			sp.ChildAt("inflight-wait", subStart, time.Since(subStart)).Set("calls", len(subs))
		}
	}

	outputs := make([]string, n)
	for i, key := range keys {
		outputs[i] = vals[key]
	}
	st.Outputs = outputs
	return st, nil
}

// resolveOwned settles a member's result-cache reservations from its
// finished batch: commit every output on success, fail every key on error
// (failed keys stay uncached so a later statement retries). It is
// idempotent per key — commit and fail both no-op on an already-resolved
// entry — and is called either inline by the owning statement or by the
// detached resolver a canceled owner leaves behind.
func (rt *Runtime) resolveOwned(keys []string, m *member) {
	if m.err != nil {
		for _, key := range keys {
			rt.cache.fail(key, m.err)
		}
		return
	}
	for j, key := range keys {
		rt.cache.commit(key, m.outputs[j])
	}
}

// stageRowKey is the exact-match result-cache key of one row's LLM call: the
// stage fingerprint plus the row's visible cells, its hidden ground truth
// (two rows that read the same but carry different labels answer
// differently), and its output budget (free-text answers scale with it).
func stageRowKey(fp string, tbl *table.Table, spec query.Spec, row int) string {
	cells := tbl.Row(row)
	truth := ""
	if spec.TruthHidden != "" {
		truth = tbl.HiddenValue(spec.TruthHidden, row)
	}
	n := len(fp) + len(truth) + 24
	for _, cell := range cells {
		n += len(cell) + 8
	}
	var sb strings.Builder
	sb.Grow(n)
	var num [20]byte
	part := func(s string) { // "<len>:<s>"
		sb.Write(strconv.AppendInt(num[:0], int64(len(s)), 10))
		sb.WriteByte(':')
		sb.WriteString(s)
	}
	sb.WriteString(fp)
	for _, cell := range cells {
		part(cell)
		sb.WriteByte(';')
	}
	sb.WriteByte('|')
	part(truth)
	sb.WriteByte('|')
	sb.Write(strconv.AppendInt(num[:0], int64(spec.OutTokensFor(row)), 10))
	return sb.String()
}
