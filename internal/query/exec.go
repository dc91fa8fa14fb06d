package query

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/llmsim"
	"repro/internal/obs"
	"repro/internal/oracle"
	"repro/internal/table"
	"repro/internal/tokenizer"
)

// Policy selects the scheduling baseline (Sec. 6.1.3).
type Policy string

const (
	// NoCache disables the prefix cache entirely.
	NoCache Policy = "no-cache"
	// CacheOriginal enables the cache but keeps the table's original row and
	// field order.
	CacheOriginal Policy = "cache-original"
	// CacheGGR enables the cache and reorders with Greedy Group Recursion.
	CacheGGR Policy = "cache-ggr"
	// CacheBestFixed enables the cache with the best single fixed field
	// order (the Sec. 3.2 strawman; used in ablations).
	CacheBestFixed Policy = "cache-bestfixed"
)

// Policies lists the paper's three main baselines in presentation order.
var Policies = []Policy{NoCache, CacheOriginal, CacheGGR}

// Config parameterizes query execution.
type Config struct {
	Policy  Policy
	Model   llmsim.ModelConfig
	Cluster llmsim.Cluster
	// Oracle decides answer content; zero value defaults to Llama8B.
	Oracle oracle.Profile
	// GGR overrides the solver options (nil = paper defaults over token
	// lengths: row depth 4, col depth 2, 0.1M threshold, FDs on).
	GGR *core.GGROptions
	// MaxBatchSeqs/MaxBatchTokens override engine limits when positive.
	MaxBatchSeqs   int
	MaxBatchTokens int
	// KVPoolBlocks overrides the cost-model-derived KV pool size when
	// positive. Scaled-down benchmark runs shrink the pool proportionally so
	// eviction pressure — which drives the Cache(Original) hit rates at full
	// scale — is preserved.
	KVPoolBlocks int64
	// Backend is the serving target every stage's scheduled batch runs on.
	// Nil uses backend.Default (a fresh confined engine per batch — the
	// paper's setting and the historical behavior). Backends only change
	// serving cost, never results: answers are content-keyed outside the
	// engine. The backend is deliberately NOT part of StageKey — a config
	// is expected to keep one backend for its lifetime, and the key must
	// agree between the runtime's batch grouping and the backend's engine
	// affinity.
	Backend backend.Backend
	// ReorderCache, when non-nil, memoizes GGR solves by (StageKey,
	// table-content hash): a batch window identical to an earlier one reuses
	// its schedule instead of re-running the solver. Like Backend it changes
	// planning cost only, never results, and is excluded from StageKey.
	ReorderCache *ReorderCache
	// PromptCache, when non-nil, memoizes prompt tokenization (per row cell
	// and per prompt prefix) over one long-lived tokenizer shared across
	// stages and batch windows. Nil gives each stage its own memo and
	// tokenizer.
	PromptCache *PromptCache
}

func (c Config) oracle() oracle.Profile {
	if c.Oracle.Name == "" {
		return oracle.Llama8B
	}
	return c.Oracle
}

// withDefaults fills the zero value with the paper's main setup:
// Llama-3-8B on a single L4, GGR policy.
func (c Config) withDefaults() Config {
	if c.Model.Name == "" {
		c.Model = llmsim.Llama3_8B
	}
	if c.Cluster.Count == 0 {
		c.Cluster = llmsim.SingleL4
	}
	if c.Policy == "" {
		c.Policy = CacheGGR
	}
	return c
}

// tokenLen is the LenFunc used for scheduling objectives: PHC in token units
// aligns the solver with what the KV cache stores.
func tokenLen(v string) int { return tokenizer.Count(v) }

// StageResult reports one LLM invocation stage.
//
// Counting fields are conserved accounting: the llmqlint accounting
// analyzer rejects keyed literals that set some counters and omit others.
//
//llmqlint:accounting
type StageResult struct {
	Spec Spec
	// Metrics is the serving engine's accounting (JCT, hit rate, ...).
	Metrics llmsim.Metrics
	// SolverSeconds is the wall-clock time spent computing the schedule.
	SolverSeconds float64
	// PHC is the exact prefix hit count of the schedule over the data cells.
	PHC int64
	// Outputs holds the model answer per source row of the stage's input
	// table.
	Outputs []string
	// Rows is the stage's input size.
	Rows int
	// ModelCalls is the number of rows actually sent to the serving engine.
	// RunStage sets it equal to Rows; the serving runtime reports fewer when
	// its result cache or inflight dedup served rows without a model call.
	ModelCalls int
}

// Result reports a complete benchmark query (one or two stages).
type Result struct {
	Stages []*StageResult
	// JCT is the end-to-end latency (sum over stages); SolverSeconds the
	// total scheduling time.
	JCT           float64
	SolverSeconds float64
	// HitRate is the prompt-token-weighted cache hit rate across stages.
	HitRate float64
	// Outputs are the final stage's answers indexed by its input rows.
	Outputs []string
	// Passing lists source rows that passed a filter (T1/T3 first stage).
	Passing []int
	// Average is the AVG over scores for aggregation queries.
	Average float64
}

// RunStage executes a single LLM invocation over tbl under the configured
// policy and returns engine metrics plus per-row model outputs. It is
// RunStageContext without cancellation.
func RunStage(spec Spec, tbl *table.Table, cfg Config) (*StageResult, error) {
	//llmqlint:detached -- no-cancellation convenience wrapper; callers wanting cancellation use RunStageContext
	return RunStageContext(context.Background(), spec, tbl, cfg)
}

// RunStageContext executes a single LLM invocation over tbl under the
// configured policy: it computes the schedule, tokenizes the requests, and
// hands the finished batch to cfg.Backend (backend.Default when nil). ctx
// cancels the run — before scheduling and between engine steps — returning
// an error that wraps ctx.Err().
func RunStageContext(ctx context.Context, spec Spec, tbl *table.Table, cfg Config) (*StageResult, error) {
	cfg = cfg.withDefaults()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if tbl.NumRows() == 0 {
		return &StageResult{Spec: spec}, nil
	}
	stageKey := StageKey(spec, tbl.Columns(), cfg)
	sp := obs.FromContext(ctx)
	schedStart := time.Now()
	sched, phc, solver, err := buildSchedule(tbl, cfg, stageKey)
	if err != nil {
		return nil, err
	}
	if sp != nil {
		ss := sp.ChildAt("schedule", schedStart, time.Since(schedStart))
		ss.Set("policy", string(cfg.Policy))
		ss.Set("solverSeconds", solver.Seconds())
		ss.Set("phc", phc)
	}
	if err := core.Verify(tbl, sched); err != nil {
		return nil, fmt.Errorf("query: schedule for %s broke semantics: %w", spec.Name, err)
	}

	// Tokenize through the shared memo when one is attached; otherwise
	// through a memo (and so a tokenizer) confined to this stage.
	memo := cfg.PromptCache
	if memo == nil {
		memo = NewPromptCache(0)
	}
	prompts := memo.stage(PromptPrefix(spec.UserPrompt))
	reqs := make([]*llmsim.Request, len(sched.Rows))
	for i, row := range sched.Rows {
		reqs[i] = &llmsim.Request{
			ID:        row.Source,
			Prompt:    prompts.prompt(row.Cells),
			OutTokens: spec.OutTokensFor(row.Source),
		}
	}

	be := cfg.Backend
	if be == nil {
		be = backend.Default
	}
	// The backend span rides the batch's context so the backend itself
	// (sharded fan-out, persistent pool) can annotate its dispatch; it carries
	// the engine run's accounting as attributes but never charges — charging
	// happens once, in the serving runtime, where the statement is charged.
	bsp := sp.Child("backend")
	br, err := be.RunBatch(obs.With(ctx, bsp), backend.BatchSpec{
		StageKey: stageKey,
		Requests: reqs,
		Groups:   core.GroupStarts(sched),
		Engine:   engineConfig(cfg),
	})
	bsp.End()
	if err != nil {
		bsp.Set("error", err.Error())
		return nil, fmt.Errorf("query: engine run for %s: %w", spec.Name, err)
	}
	bsp.Set("modelCalls", br.ModelCalls)
	bsp.Set("jctSeconds", br.Metrics.JCT)
	bsp.Set("promptTokens", br.Metrics.PromptTokens)
	bsp.Set("matchedTokens", br.Metrics.MatchedTokens)

	outputs := make([]string, tbl.NumRows())
	prof := cfg.oracle()
	for _, row := range sched.Rows {
		outputs[row.Source] = answerFor(spec, tbl, prof, row)
	}
	return &StageResult{
		Spec:          spec,
		Metrics:       br.Metrics,
		SolverSeconds: solver.Seconds(),
		PHC:           phc,
		Outputs:       outputs,
		Rows:          tbl.NumRows(),
		ModelCalls:    br.ModelCalls,
	}, nil
}

// engineConfig renders the execution config's engine sizing for a backend.
func engineConfig(cfg Config) llmsim.Config {
	return llmsim.Config{
		Cost:             llmsim.CostModel{Model: cfg.Model, Cluster: cfg.Cluster},
		CacheEnabled:     cfg.Policy != NoCache,
		MaxBatchSeqs:     cfg.MaxBatchSeqs,
		MaxBatchTokens:   cfg.MaxBatchTokens,
		CapacityOverride: cfg.KVPoolBlocks,
	}
}

// StageKey fingerprints a batchable stage shape: two stages with equal keys
// ask the same question over the same schema under the same serving
// configuration, so their rows may share one engine run, their
// (content-keyed) answers may share cache entries, and a persistent backend
// may serve both from one long-lived KV cache. Every component is
// length-prefixed, making the encoding injective. The serving runtime
// groups cross-query batches by this key and persistent backends key engine
// affinity on it; both must agree, which is why the key lives here.
func StageKey(spec Spec, cols []string, cfg Config) string {
	cfg = cfg.withDefaults()
	var sb strings.Builder
	part := func(s string) {
		fmt.Fprintf(&sb, "%d:%s;", len(s), s)
	}
	part(spec.Dataset)
	part(string(spec.Type))
	part(spec.UserPrompt)
	part(spec.KeyField)
	part(spec.TruthHidden)
	fmt.Fprintf(&sb, "%d;", len(spec.Choices))
	for _, c := range spec.Choices {
		part(c)
	}
	fmt.Fprintf(&sb, "%d;", len(cols))
	for _, c := range cols {
		part(c)
	}
	// The serving config changes engine timing and (via the policy's field
	// ordering) the oracle's position term, so it is part of the identity.
	// GGR options are compared by pointer: distinct custom solvers never
	// share a batch. Profile maps print with sorted keys, so the rendering
	// is deterministic. The backend itself is excluded — the key selects
	// WHICH engine state a batch may share, not WHERE it runs.
	part(fmt.Sprintf("%s|%+v|%+v|%+v|%d|%d|%d|%p",
		cfg.Policy, cfg.Model, cfg.Cluster, cfg.Oracle,
		cfg.MaxBatchSeqs, cfg.MaxBatchTokens, cfg.KVPoolBlocks, cfg.GGR))
	return sb.String()
}

// OracleAnswers returns the model outputs for every row of a schedule,
// indexed by source row, without running the serving engine. The accuracy
// experiments (Fig. 6) use this to compare orderings cheaply.
func OracleAnswers(spec Spec, tbl *table.Table, sched *core.Schedule, prof oracle.Profile) []string {
	out := make([]string, tbl.NumRows())
	for _, row := range sched.Rows {
		out[row.Source] = answerFor(spec, tbl, prof, row)
	}
	return out
}

// answerFor consults the oracle for one scheduled row's output.
func answerFor(spec Spec, tbl *table.Table, prof oracle.Profile, row core.Row) string {
	relPos := KeyFieldRelPos(row.Cells, spec.KeyField)
	key := uint64(row.Source)
	if spec.RowKeys != nil {
		key = spec.RowKeys(row.Source)
	}
	switch {
	case spec.Type == Aggregation:
		truth, err := strconv.Atoi(tbl.HiddenValue(spec.TruthHidden, row.Source))
		if err != nil {
			truth = 3
		}
		return strconv.Itoa(prof.Score(spec.Dataset, key, truth, 5, relPos))
	case len(spec.Choices) > 0:
		truth := tbl.HiddenValue(spec.TruthHidden, row.Source)
		return prof.Answer(spec.Dataset, key, truth, spec.Choices, relPos)
	default:
		return oracle.FreeText(key, spec.OutTokensFor(row.Source))
	}
}

// KeyFieldRelPos locates a field's relative position within a row's cell
// order: 0 for the first field, 1 for the last, 0.5 when absent or the row
// has a single field.
func KeyFieldRelPos(cells []core.Cell, field string) float64 {
	if len(cells) < 2 {
		return 0.5
	}
	for i, c := range cells {
		if c.Field == field {
			return float64(i) / float64(len(cells)-1)
		}
	}
	return 0.5
}

// buildSchedule computes the request ordering for the policy, timing the
// solver. GGR solves consult cfg.ReorderCache (keyed by stageKey plus the
// table's content hash) when one is attached, so a batch window identical to
// an earlier one skips the solve entirely.
func buildSchedule(tbl *table.Table, cfg Config, stageKey string) (*core.Schedule, int64, time.Duration, error) {
	start := time.Now()
	var sched *core.Schedule
	switch cfg.Policy {
	case NoCache, CacheOriginal:
		sched = core.Original(tbl)
	case CacheBestFixed:
		sched = core.BestFixed(tbl, tokenLen)
	case CacheGGR, "":
		opt := core.DefaultGGROptions(tokenLen)
		if cfg.GGR != nil {
			opt = *cfg.GGR
		}
		if cfg.ReorderCache == nil {
			res := core.GGR(tbl, opt)
			return res.Schedule, res.PHC, time.Since(start), nil
		}
		key := reorderKeyFor(stageKey, tbl)
		if cached, phc, ok := cfg.ReorderCache.lookup(key); ok {
			return cached, phc, time.Since(start), nil
		}
		res := core.GGR(tbl, opt)
		cfg.ReorderCache.store(key, res.Schedule, res.PHC)
		return res.Schedule, res.PHC, time.Since(start), nil
	default:
		return nil, 0, 0, fmt.Errorf("query: unknown policy %q", cfg.Policy)
	}
	elapsed := time.Since(start)
	return sched, core.PHC(sched, tokenLen), elapsed, nil
}

// Run executes a complete benchmark query over its input table. For
// MultiLLM queries tbl feeds the first (filter) stage and the second stage
// runs over the passing rows; for all other types the query is one stage.
// RAG queries expect the joined (question, contexts) table — see RunRAG.
func Run(spec Spec, tbl *table.Table, cfg Config) (*Result, error) {
	//llmqlint:detached -- no-cancellation convenience wrapper over RunContext
	return RunContext(context.Background(), spec, tbl, cfg)
}

// RunContext is Run honoring ctx: cancellation is checked before every
// stage and between engine steps within one.
func RunContext(ctx context.Context, spec Spec, tbl *table.Table, cfg Config) (*Result, error) {
	first, err := RunStageContext(ctx, spec, tbl, cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{Stages: []*StageResult{first}}

	switch spec.Type {
	case Filter, MultiLLM:
		pass := spec.FilterPass
		if pass == "" && len(spec.Choices) > 0 {
			pass = spec.Choices[0]
		}
		for i, out := range first.Outputs {
			if out == pass {
				res.Passing = append(res.Passing, i)
			}
		}
	case Aggregation:
		var sum, n float64
		for _, out := range first.Outputs {
			if v, err := strconv.ParseFloat(out, 64); err == nil {
				sum += v
				n++
			}
		}
		if n > 0 {
			res.Average = sum / n
		}
	}

	if spec.Type == MultiLLM {
		second, err := ByName(spec.Second)
		if err != nil {
			return nil, err
		}
		sub := tbl.FilterRows(res.Passing)
		sr, err := RunStageContext(ctx, second, sub, cfg)
		if err != nil {
			return nil, err
		}
		res.Stages = append(res.Stages, sr)
	}

	last := res.Stages[len(res.Stages)-1]
	res.Outputs = last.Outputs
	var prompt, matched int64
	for _, st := range res.Stages {
		res.JCT += st.Metrics.JCT
		res.SolverSeconds += st.SolverSeconds
		prompt += st.Metrics.PromptTokens
		matched += st.Metrics.MatchedTokens
	}
	if prompt > 0 {
		res.HitRate = float64(matched) / float64(prompt)
	}
	return res, nil
}

// RunRAG builds the retrieval-joined table for a RAG dataset and executes
// its query.
func RunRAG(spec Spec, d *datagen.RAG, cfg Config) (*Result, error) {
	//llmqlint:detached -- no-cancellation convenience wrapper over RunRAGContext
	return RunRAGContext(context.Background(), spec, d, cfg)
}

// RunRAGContext is RunRAG honoring ctx.
func RunRAGContext(ctx context.Context, spec Spec, d *datagen.RAG, cfg Config) (*Result, error) {
	if spec.Type != RAGQA {
		return nil, fmt.Errorf("query: %s is not a RAG query", spec.Name)
	}
	tbl, err := BuildRAGTable(d)
	if err != nil {
		return nil, err
	}
	return RunContext(ctx, spec, tbl, cfg)
}
