package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"

	"repro/internal/pricing"
	"repro/internal/query"
	"repro/internal/runtime"
	"repro/internal/sqlfront"
	"repro/internal/table"
	"repro/internal/tokenizer"
)

// relation is the part of a /v1/sql response the correctness gate compares.
type relation struct {
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

// canonical renders a relation as the bytes the gate compares: empty row
// and column lists render the same whether nil or empty.
func canonical(cols []string, rows [][]string) ([]byte, error) {
	if cols == nil {
		cols = []string{}
	}
	if rows == nil {
		rows = [][]string{}
	}
	return json.Marshal(relation{Columns: cols, Rows: rows})
}

// stageInput is one LLM stage the sequential reference executed: the spec
// and its input table, replayed through core.GGR and the tokenizer later.
type stageInput struct {
	spec query.Spec
	tbl  *table.Table
}

// reference is the sequential ground truth: each distinct statement run
// once through SQLDB.Exec on its own copy of the same generated tables,
// computed before the clock of the pass that sends it starts.
type reference struct {
	db     *sqlfront.DB
	want   map[int][]byte
	stages []stageInput
}

func newReference(in *inputs) (*reference, error) {
	db := sqlfront.NewDB()
	for _, d := range in.datasets {
		t, err := table.ReadJSON(bytes.NewReader(d.data))
		if err != nil {
			return nil, fmt.Errorf("load %s: %w", d.name, err)
		}
		db.Register(d.name, t)
	}
	return &reference{db: db, want: map[int][]byte{}}, nil
}

// ensure computes the reference relation of every statement in used that
// has none yet, recording each LLM stage's input for the replays.
func (ref *reference) ensure(ctx context.Context, in *inputs, used []int) error {
	cfg := sqlfront.ExecConfig{StageRunner: func(ctx context.Context, spec query.Spec, tbl *table.Table, qc query.Config) (*query.StageResult, error) {
		ref.stages = append(ref.stages, stageInput{spec: spec, tbl: tbl})
		return query.RunStageContext(ctx, spec, tbl, qc)
	}}
	for _, i := range used {
		if _, ok := ref.want[i]; ok {
			continue
		}
		res, err := ref.db.ExecContext(ctx, in.stmts[i].sql, cfg)
		if err != nil {
			return fmt.Errorf("reference for %q: %w", in.stmts[i].sql, err)
		}
		if ref.want[i], err = canonical(res.Columns, res.Rows); err != nil {
			return err
		}
	}
	return nil
}

// checkPhase compares every response of p with the reference. It returns
// the first mismatch as an error.
func (ref *reference) checkPhase(in *inputs, p *phase) error {
	for i := 0; i < p.n; i++ {
		if p.status[i] != http.StatusOK {
			continue // counted as failed, not as a wrong answer
		}
		var got relation
		if err := json.Unmarshal(p.body[i], &got); err != nil {
			return fmt.Errorf("request %d: decode response: %w", i, err)
		}
		b, err := canonical(got.Columns, got.Rows)
		if err != nil {
			return err
		}
		if want := ref.want[p.stmt[i]]; !bytes.Equal(b, want) {
			return fmt.Errorf("request %d (%q): relation differs from the sequential reference (%d vs %d bytes)",
				i, in.stmts[p.stmt[i]].sql, len(b), len(want))
		}
	}
	return nil
}

// checkConservation cross-checks the benchmark's own counts with the
// program's: the backend seam's model calls and summed engine JCT against
// runtime.Metrics, and sent = ok + failed on the load generator.
func checkConservation(p *phase, be *meteredBackend, before, after runtime.Metrics) error {
	if s, o, f := p.sent.Load(), p.ok.Load(), p.failed.Load(); s != o+f {
		return fmt.Errorf("sent %d != ok %d + failed %d", s, o, f)
	}
	if d := after.StatementsDone - before.StatementsDone; d != p.sent.Load() {
		return fmt.Errorf("runtime settled %d statements, generator sent %d", d, p.sent.Load())
	}
	if calls := after.LLMCalls - before.LLMCalls; calls != be.calls.Load() {
		return fmt.Errorf("backend seam saw %d model calls, runtime.Metrics.LLMCalls moved by %d", be.calls.Load(), calls)
	}
	jct := int64(math.Round(after.TotalJCT*1e6)) - int64(math.Round(before.TotalJCT*1e6))
	if jct != be.jctMicros.Load() {
		return fmt.Errorf("backend seam summed %dus engine JCT, runtime.Metrics.TotalJCT moved by %dus", be.jctMicros.Load(), jct)
	}
	return nil
}

// costs replays every batch's requests, in serving order, through the
// provider cache models and prices the usage.
func costs(be *meteredBackend) (openai, anthropic float64, err error) {
	var prompts [][]tokenizer.Token
	var outs []int
	for _, batch := range be.requestLog() {
		for _, r := range batch {
			prompts = append(prompts, r.Prompt)
			outs = append(outs, r.OutTokens)
		}
	}
	uo, err := pricing.Simulate(pricing.GPT4oMini, prompts, outs)
	if err != nil {
		return 0, 0, err
	}
	ua, err := pricing.Simulate(pricing.Claude35Sonnet, prompts, outs)
	if err != nil {
		return 0, 0, err
	}
	return pricing.GPT4oMini.Cost(uo), pricing.Claude35Sonnet.Cost(ua), nil
}
