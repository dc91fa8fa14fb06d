package sqlfront

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/table"
)

// DB is a registry of named tables that LLM-SQL statements run against.
// Statements may join any number of registered tables (FROM a JOIN b ON ...),
// including the same table under two aliases.
//
// A DB is safe for concurrent use: registration is guarded, statements
// resolve their tables against a consistent snapshot of the registry, and
// execution never mutates a registered table (stages project fresh copies).
// Registering a new table under an existing name does not affect statements
// already executing against the old one.
type DB struct {
	mu      sync.RWMutex
	tables  map[string]*table.Table // guarded by mu
	version uint64                  // guarded by mu
}

// NewDB returns an empty registry.
func NewDB() *DB {
	return &DB{tables: make(map[string]*table.Table)}
}

// Register makes t queryable under name (case-sensitive, last write wins).
func (db *DB) Register(name string, t *table.Table) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.tables[name] = t
	db.version++
}

// Version increments on every Register; prepared statements use it to detect
// a stale registry snapshot.
func (db *DB) Version() uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.version
}

// Tables returns the registered names in sorted order.
func (db *DB) Tables() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ExecConfig extends the query execution config with output-length defaults
// for ad-hoc statements (benchmark specs carry their own).
type ExecConfig struct {
	query.Config
	// FilterOutTokens / ProjectionOutTokens / AggOutTokens default to
	// 2 / 40 / 2 — the regimes of Table 1.
	FilterOutTokens     int
	ProjectionOutTokens int
	AggOutTokens        int
	// Naive disables the logical planner's optimizations: no predicate
	// pushdown (below or above the join), one LLM stage per call occurrence
	// instead of per distinct call, occurrence order instead of cost-based
	// filter ordering, and no cascading of residual conjuncts between
	// stages. Query semantics are unchanged — the simulated oracle keys its
	// per-row draws by row content, so a row's answer does not depend on
	// which plan fed it to a stage — but serving cost (LLMCalls, JCT) is.
	// One caveat survives, faithfully to the paper's Sec. 6.4: on relations
	// whose name carries a non-zero oracle position coefficient (the bundled
	// datasets), per-row accuracy still depends on where GGR serializes the
	// key field, and reordering may choose different field orders for
	// different stage inputs — so borderline rows can flip between plans
	// there, exactly as a position-sensitive real model would.
	Naive bool
	// StageRunner, when non-nil, executes every LLM stage in place of
	// query.RunStageContext. The concurrent serving runtime
	// (internal/runtime) injects its cross-query batching and
	// result-caching executor here; the hook must honor ctx and return
	// outputs indexed by the stage table's rows, exactly as
	// query.RunStageContext does. The serving backend itself is selected by
	// the embedded query.Config.Backend — StageRunner sits above that seam.
	StageRunner func(ctx context.Context, spec query.Spec, tbl *table.Table, cfg query.Config) (*query.StageResult, error)
	// StageObserver, when non-nil, receives one StageObservation per LLM
	// stage the statement executed, after the statement completes
	// successfully. RowsOut is filled in (and selectivity thereby observed)
	// only for stages whose output the WHERE cascade consumed to prune the
	// working relation; projection and aggregate stages report RowsOut = -1.
	// The serving runtime injects its per-StageKey rollup collector here.
	StageObserver func(obs.StageObservation)
}

func (c ExecConfig) filterOut() int {
	if c.FilterOutTokens > 0 {
		return c.FilterOutTokens
	}
	return 2
}

func (c ExecConfig) projOut() int {
	if c.ProjectionOutTokens > 0 {
		return c.ProjectionOutTokens
	}
	return 40
}

func (c ExecConfig) aggOut() int {
	if c.AggOutTokens > 0 {
		return c.AggOutTokens
	}
	return 2
}

// Result is an executed statement's output relation plus serving statistics.
type Result struct {
	Columns []string
	Rows    [][]string
	// JCT is total virtual serving time over all LLM stages; HitRate the
	// prompt-token-weighted prefix cache hit rate; SolverSeconds total
	// reordering time; LLMCalls the number of model invocations.
	JCT           float64
	HitRate       float64
	SolverSeconds float64
	LLMCalls      int
	Stages        int
}

// ExecContext parses, plans, and runs one LLM-SQL statement. Every LLM
// stage is scheduled under cfg.Policy, so switching the policy (no-cache /
// original / GGR) changes only performance, never results. The logical plan
// additionally pushes table-local plain predicates below the join, places
// the join ahead of every LLM stage, runs each distinct LLM call once, and
// cascades cost-ordered LLM filters so expensive stages see only rows the
// cheap ones kept (see Plan); cfg.Naive reverts to the unoptimized plan for
// comparison. Cancellation is checked before every LLM stage (and between
// engine steps within one), and a canceled statement returns an error
// wrapping ctx.Err().
func (db *DB) ExecContext(ctx context.Context, src string, cfg ExecConfig) (*Result, error) {
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return db.ExecParsedContext(ctx, q, cfg)
}

// ExecParsedContext is ExecContext for an already-parsed statement (callers
// that inspect the AST first, e.g. llmq.ExecSQLContext, avoid parsing
// twice). Binding resolves q's column references in place, so q is
// consumed: executing it again requires a fresh Parse (or a Prepared
// statement, which keeps the bound form and both plans for repeated
// execution).
func (db *DB) ExecParsedContext(ctx context.Context, q *Query, cfg ExecConfig) (*Result, error) {
	st, err := db.prepareParsed(q)
	if err != nil {
		return nil, err
	}
	return db.execPlan(ctx, st, cfg)
}

// preparedState is a statement after parsing, binding, validation, and
// planning: everything execution needs except the per-run configuration.
// It is immutable after construction, so any number of executions may share
// it concurrently.
type preparedState struct {
	q       *Query
	sc      *scope
	joins   []boundJoin
	planned *Plan // optimized
	naive   *Plan // occurrence-ordered, no pushdown
	version uint64
}

// prepareParsed binds and plans a parsed statement against the current
// registry snapshot. q is consumed (binding rewrites it in place).
func (db *DB) prepareParsed(q *Query) (*preparedState, error) {
	sc, version, err := db.scopeFor(q)
	if err != nil {
		return nil, err
	}
	joins, err := bind(q, sc)
	if err != nil {
		return nil, err
	}
	if err := validate(q); err != nil {
		return nil, err
	}
	planned, err := BuildPlan(q, sc, true)
	if err != nil {
		return nil, err
	}
	naive, err := BuildPlan(q, sc, false)
	if err != nil {
		return nil, err
	}
	return &preparedState{q: q, sc: sc, joins: joins, planned: planned, naive: naive, version: version}, nil
}

// execPlan runs a prepared statement. It never mutates st, so concurrent
// executions of the same prepared statement are safe. ctx is checked before
// every LLM stage and passed through to the stage runner, so a canceled
// statement stops between stages (mid-cascade, the remaining costlier
// stages never run) and mid-batch inside one.
func (db *DB) execPlan(ctx context.Context, st *preparedState, cfg ExecConfig) (*Result, error) {
	q, sc, joins := st.q, st.sc, st.joins
	pl := st.planned
	if cfg.Naive {
		pl = st.naive
	}

	res := &Result{}
	var promptTok, matchedTok int64

	// Observability: when the statement is traced (a span rides ctx) or a
	// StageObserver is attached, every LLM stage gets a "stage:<name>" child
	// span and a StageObservation record. Both are skipped entirely otherwise
	// — the nil-span fast path keeps untraced statements allocation-free.
	traceSp := obs.FromContext(ctx)
	observing := traceSp != nil || cfg.StageObserver != nil
	type stageRecord struct {
		ob obs.StageObservation
		sp *obs.Span
	}
	var records []*stageRecord
	var lastRec *stageRecord

	runStage := func(spec query.Spec, tbl *table.Table) (*query.StageResult, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		run := query.RunStageContext
		if cfg.StageRunner != nil {
			run = cfg.StageRunner
		}
		sctx := ctx
		var sp *obs.Span
		if observing {
			sp = traceSp.Child("stage:" + spec.Name)
			sp.Set("dataset", spec.Dataset)
			sp.Set("rows", tbl.NumRows())
			sctx = obs.With(sctx, sp)
		}
		st, err := run(sctx, spec, tbl, cfg.Config)
		sp.End()
		if err != nil {
			sp.Set("error", err.Error())
			return nil, err
		}
		res.Stages++
		res.JCT += st.Metrics.JCT
		res.SolverSeconds += st.SolverSeconds
		res.LLMCalls += st.ModelCalls
		promptTok += st.Metrics.PromptTokens
		matchedTok += st.Metrics.MatchedTokens
		if observing {
			lastRec = &stageRecord{
				ob: obs.StageObservation{
					StageKey:      query.StageKey(spec, tbl.Columns(), cfg.Config),
					Name:          spec.Name,
					Dataset:       spec.Dataset,
					Rows:          tbl.NumRows(),
					RowsOut:       -1, // unobserved until the cascade prunes on this stage
					ModelCalls:    st.ModelCalls,
					PromptTokens:  st.Metrics.PromptTokens,
					MatchedTokens: st.Metrics.MatchedTokens,
					JCTSeconds:    st.Metrics.JCT,
					SolverSeconds: st.SolverSeconds,
				},
				sp: sp,
			}
			records = append(records, lastRec)
		}
		return st, nil
	}

	// 1. Table-local pushdown: prune each base table with its own plain
	// predicates below the join, so the join itself is cheaper and no LLM
	// stage ever sees a row a cheap filter can discard.
	bases := make([]*table.Table, len(sc.tables))
	for i := range sc.tables {
		bases[i] = sc.tables[i].tbl
		if pl.TablePushed[i] == nil {
			continue
		}
		passing, err := passingRows(bases[i], pl.TablePushed[i], nil, sc.lookupFor(i))
		if err != nil {
			return nil, err
		}
		bases[i] = bases[i].FilterRows(passing)
	}

	// 2. Join placement: materialize the joined working relation before any
	// model stage, so LLM calls run on the joined-and-filtered relation only.
	working := sc.joinAll(bases, joins)

	// 3. Plain predicates spanning tables run right after the join.
	if pl.Pushed != nil {
		passing, err := passingRows(working, pl.Pushed, nil, working.ColIndex)
		if err != nil {
			return nil, err
		}
		working = working.FilterRows(passing)
	}

	// 4. Stages the WHERE residual depends on, one per distinct call,
	// cheapest-rank-first (cost.go). Each residual conjunct is evaluated —
	// and the working relation pruned — as soon as the stage outputs it
	// needs exist, so later, costlier stages run over fewer rows. Naive mode
	// keeps occurrence order and evaluates the WHERE in one piece at the
	// end, exactly the unoptimized cascade.
	pre := pl.PreStages
	var pending []Expr
	if pl.Residual != nil {
		if cfg.Naive {
			pending = []Expr{pl.Residual}
		} else {
			pre = orderStagesByCost(pre, pl.Residual, working)
			pending = conjuncts(pl.Residual)
		}
	}
	outputs := map[string][]string{}
	// recordByKey maps a residual call's key to its stage record, so the
	// prune that consumes the stage's outputs can back-fill the observed
	// RowsOut (and thereby the stage's selectivity).
	recordByKey := map[string]*stageRecord{}
	applyReady := func() error {
		var ready Expr
		var rest []Expr
		for _, c := range pending {
			ok := true
			for k := range llmKeysOf(c) {
				if _, have := outputs[k]; !have {
					ok = false
					break
				}
			}
			if ok {
				ready = conjoin(ready, c)
			} else {
				rest = append(rest, c)
			}
		}
		pending = rest
		if ready == nil {
			return nil
		}
		passing, err := passingRows(working, ready, outputs, working.ColIndex)
		if err != nil {
			return err
		}
		working = working.FilterRows(passing)
		for k, outs := range outputs {
			kept := make([]string, len(passing))
			for i, p := range passing {
				if p < len(outs) {
					kept[i] = outs[p]
				}
			}
			outputs[k] = kept
		}
		for k := range llmKeysOf(ready) {
			rec := recordByKey[k]
			if rec == nil || rec.ob.RowsOut >= 0 {
				continue
			}
			rec.ob.RowsOut = len(passing)
			rec.sp.Set("rowsOut", len(passing))
			if rec.ob.Rows > 0 {
				rec.sp.Set("selectivity", float64(len(passing))/float64(rec.ob.Rows))
			}
		}
		return nil
	}
	for _, st := range pre {
		lastRec = nil
		outs, err := runPlannedStage(st, sc.datasetName(), working, cfg, runStage)
		if err != nil {
			return nil, err
		}
		outputs[st.Call.Key()] = outs
		if lastRec != nil {
			recordByKey[st.Call.Key()] = lastRec
		}
		// Naive mode does not cascade: every occurrence-ordered stage runs
		// over the same unpruned relation, and the WHERE applies once below.
		if !cfg.Naive {
			if err := applyReady(); err != nil {
				return nil, err
			}
		}
	}
	// Naive WHERE evaluation (and the no-LLM WHERE, which waits on nothing).
	if err := applyReady(); err != nil {
		return nil, err
	}

	// 5. Remaining stages (SELECT projections, aggregate arguments) over
	// surviving rows only.
	for _, st := range pl.PostStages {
		outs, err := runPlannedStage(st, sc.datasetName(), working, cfg, runStage)
		if err != nil {
			return nil, err
		}
		outputs[st.Call.Key()] = outs
	}

	// 6. Materialize the output relation (HAVING filters groups here).
	var err error
	if isAggregated(q) {
		err = buildGrouped(q, working, outputs, res)
	} else {
		err = buildRowwise(q, working, outputs, res)
	}
	if err != nil {
		return nil, err
	}

	// 7. ORDER BY and LIMIT shape the final relation.
	if err := applyOrderLimit(q, res, sc); err != nil {
		return nil, err
	}
	finishStats(res, promptTok, matchedTok)
	// Flush observations only on success: a failed statement's partial
	// stages would skew the per-StageKey rollups.
	if cfg.StageObserver != nil {
		for _, rec := range records {
			cfg.StageObserver(rec.ob)
		}
	}
	return res, nil
}

// datasetName identifies the statement's relation in stage specs and oracle
// seeds: the table name, or the aliases of a join.
func (sc *scope) datasetName() string {
	if !sc.multi {
		return sc.tables[0].name
	}
	parts := make([]string, len(sc.tables))
	for i, t := range sc.tables {
		parts[i] = t.alias
	}
	return strings.Join(parts, "+")
}

// runPlannedStage projects the stage's fields, fills in the serving spec for
// its type, and runs it on the simulator, returning per-row outputs.
func runPlannedStage(st PlannedStage, dataset string, working *table.Table, cfg ExecConfig,
	runStage func(query.Spec, *table.Table) (*query.StageResult, error)) ([]string, error) {

	proj, err := projectCall(working, st.Call)
	if err != nil {
		return nil, err
	}
	spec := query.Spec{
		Name:       st.Name(),
		Dataset:    dataset,
		Type:       st.Type,
		UserPrompt: st.Call.Prompt,
		KeyField:   keyField(proj, st.Call),
		// Key the oracle's latent draws by row content (not position), so a
		// row's answer is independent of how the plan ordered, joined, or
		// pruned the stage's input; planned and naive executions then return
		// identical relations up to the oracle's field-position accuracy
		// model (see ExecConfig.Naive).
		RowKeys: rowKeysFor(proj, st.Call.Prompt),
	}
	switch st.Type {
	case query.Filter:
		spec.OutTokens = cfg.filterOut()
		spec.Choices, spec.TruthHidden = filterChoices(proj, st.Call.Prompt, st.Literals)
	case query.Aggregation:
		spec.OutTokens = cfg.aggOut()
		truthCol := "score"
		if _, ok := proj.Hidden("score"); !ok {
			truthCol = synthesizeScores(proj, st.Call.Prompt)
		}
		spec.TruthHidden = truthCol
	default:
		spec.OutTokens = cfg.projOut()
	}
	stRes, err := runStage(spec, proj)
	if err != nil {
		return nil, err
	}
	return stRes.Outputs, nil
}

// rowKeysFor derives content-keyed oracle row keys for a stage over t,
// seeded by the call's prompt so different questions draw independently.
func rowKeysFor(t *table.Table, prompt string) func(int) uint64 {
	seed := strHash(prompt)
	return func(row int) uint64 { return splitmix(rowHash(t, row) + seed) }
}

// passingRows evaluates e over every row of t, resolving LLM comparisons
// against the outputs map (keyed by LLMCall.Key, indexed by row) and plain
// columns through lookup (t.ColIndex for relations in their own namespace;
// scope.lookupFor for canonical names over a base table). Each comparison
// leaf is resolved to its value source once, not per row.
func passingRows(t *table.Table, e Expr, outputs map[string][]string, lookup func(string) (int, bool)) ([]int, error) {
	leaf := map[*Compare]func(row int) string{}
	var lerr error
	walkCompares(e, func(c *Compare) {
		if lerr != nil {
			return
		}
		if c.LLM != nil {
			outs, ok := outputs[c.LLM.Key()]
			if !ok {
				lerr = fmt.Errorf("sql: internal error: no stage outputs for %s", c.LLM)
				return
			}
			leaf[c] = func(row int) string {
				if row < len(outs) {
					return outs[row]
				}
				return ""
			}
		} else {
			ci, ok := lookup(c.Col.Column)
			if !ok {
				lerr = fmt.Errorf("sql: unknown column %q in WHERE", c.Col.Column)
				return
			}
			leaf[c] = func(row int) string { return t.Cell(row, ci) }
		}
	})
	if lerr != nil {
		return nil, lerr
	}
	var passing []int
	for i := 0; i < t.NumRows(); i++ {
		if evalExpr(e, i, leaf) {
			passing = append(passing, i)
		}
	}
	return passing, nil
}

// evalExpr evaluates a boolean tree for one row; leaf holds the pre-resolved
// value source of every comparison (passingRows built it, so every leaf of e
// is present).
func evalExpr(e Expr, row int, leaf map[*Compare]func(int) string) bool {
	switch n := e.(type) {
	case *BinaryExpr:
		left := evalExpr(n.Left, row, leaf)
		if (n.Op == "AND" && !left) || (n.Op == "OR" && left) {
			return left
		}
		return evalExpr(n.Right, row, leaf)
	case *NotExpr:
		return !evalExpr(n.Inner, row, leaf)
	case *Compare:
		return n.matches(leaf[n](row))
	}
	return false
}

// matches compares a cell or model output against the comparison's literal.
// Equality (and its negation) holds numerically whenever both sides parse as
// finite numbers ('5.0' equals a score of 5, quoted or not) and by exact
// string equality otherwise; the ordered operators use valueLess's total
// order, where finite numbers compare numerically and sort before every
// non-numeric string.
func (c *Compare) matches(actual string) bool {
	switch c.Op {
	case OpLt:
		return valueLess(actual, c.Literal)
	case OpLe:
		return !valueLess(c.Literal, actual)
	case OpGt:
		return valueLess(c.Literal, actual)
	case OpGe:
		return !valueLess(actual, c.Literal)
	}
	eq := actual == c.Literal
	if !eq {
		if av, okA := parseNum(actual); okA {
			if lv, okL := parseNum(c.Literal); okL {
				eq = av == lv
			}
		}
	}
	return eq != (c.Op == OpNeq)
}

// buildRowwise materializes a non-aggregate SELECT: one output row per
// surviving input row, mixing static columns and LLM stage outputs.
func buildRowwise(q *Query, working *table.Table, outputs map[string][]string, res *Result) error {
	type colSource struct {
		name    string
		static  int      // column index into working, or -1
		outputs []string // LLM outputs when static < 0
	}
	var sources []colSource
	llmSeq := 0
	for _, item := range q.Select {
		switch {
		case item.Star:
			for ci, c := range working.Columns() {
				sources = append(sources, colSource{name: c, static: ci})
			}
		case item.LLM == nil:
			ci, ok := working.ColIndex(item.Col.Column)
			if !ok {
				return fmt.Errorf("sql: unknown column %q", item.Col.Column)
			}
			sources = append(sources, colSource{name: aliasOr(item, item.Col.Column), static: ci})
		default:
			llmSeq++
			outs, ok := outputs[item.LLM.Key()]
			if !ok {
				return fmt.Errorf("sql: internal error: no stage outputs for %s", item.LLM)
			}
			sources = append(sources, colSource{
				name:    aliasOr(item, fmt.Sprintf("llm_%d", llmSeq)),
				static:  -1,
				outputs: outs,
			})
		}
	}

	for _, s := range sources {
		res.Columns = append(res.Columns, s.name)
	}
	for i := 0; i < working.NumRows(); i++ {
		row := make([]string, len(sources))
		for j, s := range sources {
			if s.static >= 0 {
				row[j] = working.Cell(i, s.static)
			} else if i < len(s.outputs) {
				row[j] = s.outputs[i]
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return nil
}

// buildGrouped materializes an aggregated SELECT: one output row per GROUP
// BY group (or a single global group), folding plain columns and LLM stage
// outputs through the aggregate functions.
func buildGrouped(q *Query, working *table.Table, outputs map[string][]string, res *Result) error {
	groupIdx := make([]int, len(q.GroupBy))
	for i, c := range q.GroupBy {
		ci, ok := working.ColIndex(c.Column)
		if !ok {
			return fmt.Errorf("sql: unknown column %q in GROUP BY", c.Column)
		}
		groupIdx[i] = ci
	}

	// Groups in first-appearance order; no GROUP BY = one global group, which
	// aggregates even an empty relation into one row (COUNT(*) = 0).
	var keys []string
	rowsByKey := map[string][]int{}
	if len(q.GroupBy) == 0 {
		all := make([]int, working.NumRows())
		for i := range all {
			all[i] = i
		}
		keys = []string{""}
		rowsByKey[""] = all
	} else {
		for i := 0; i < working.NumRows(); i++ {
			var kb strings.Builder
			for _, ci := range groupIdx {
				kb.WriteString(working.Cell(i, ci))
				kb.WriteByte(0)
			}
			k := kb.String()
			if _, ok := rowsByKey[k]; !ok {
				keys = append(keys, k)
			}
			rowsByKey[k] = append(rowsByKey[k], i)
		}
	}

	aggSeq := 0
	for _, item := range q.Select {
		if item.Agg == AggNone {
			res.Columns = append(res.Columns, aliasOr(item, item.Col.Column))
		} else {
			aggSeq++
			def := strings.ToLower(string(item.Agg)) + "_" + strconv.Itoa(aggSeq)
			res.Columns = append(res.Columns, aliasOr(item, def))
		}
	}

	for _, k := range keys {
		rows := rowsByKey[k]
		if q.Having != nil {
			pass, err := groupPasses(q.Having, working, rows, outputs)
			if err != nil {
				return err
			}
			if !pass {
				continue
			}
		}
		out := make([]string, 0, len(q.Select))
		for _, item := range q.Select {
			if item.Agg == AggNone {
				// validate guarantees the column is grouped, so it is
				// constant within the group.
				ci, ok := working.ColIndex(item.Col.Column)
				if !ok {
					return fmt.Errorf("sql: unknown column %q", item.Col.Column)
				}
				var v string
				if len(rows) > 0 {
					v = working.Cell(rows[0], ci)
				}
				out = append(out, v)
				continue
			}
			vals, err := aggInputs(item, working, rows, outputs)
			if err != nil {
				return err
			}
			out = append(out, aggregate(item.Agg, item.AggStar, vals, len(rows)))
		}
		res.Rows = append(res.Rows, out)
	}
	return nil
}

// groupPasses evaluates a HAVING expression for one group. Aggregate leaves
// fold the group's values through the same aggregate machinery as SELECT
// items; plain-column leaves read the group's (validated-constant) value.
func groupPasses(e Expr, t *table.Table, rows []int, outputs map[string][]string) (bool, error) {
	leaf := map[*Compare]func(int) string{}
	var lerr error
	walkCompares(e, func(c *Compare) {
		if lerr != nil {
			return
		}
		var v string
		if c.Agg != AggNone {
			item := SelectItem{Agg: c.Agg, AggStar: c.AggStar, LLM: c.LLM, Col: c.Col}
			vals, err := aggInputs(item, t, rows, outputs)
			if err != nil {
				lerr = err
				return
			}
			v = aggregate(c.Agg, c.AggStar, vals, len(rows))
		} else {
			// validate guarantees the column is grouped, so it is constant
			// within the group.
			ci, ok := t.ColIndex(c.Col.Column)
			if !ok {
				lerr = fmt.Errorf("sql: unknown column %q in HAVING", c.Col.Column)
				return
			}
			if len(rows) > 0 {
				v = t.Cell(rows[0], ci)
			}
		}
		val := v
		leaf[c] = func(int) string { return val }
	})
	if lerr != nil {
		return false, lerr
	}
	return evalExpr(e, 0, leaf), nil
}

// aggInputs collects the values one aggregate ranges over within a group.
func aggInputs(item SelectItem, t *table.Table, rows []int, outputs map[string][]string) ([]string, error) {
	if item.AggStar {
		return nil, nil // COUNT(*) needs only the group size
	}
	vals := make([]string, 0, len(rows))
	if item.LLM != nil {
		outs, ok := outputs[item.LLM.Key()]
		if !ok {
			return nil, fmt.Errorf("sql: internal error: no stage outputs for %s", item.LLM)
		}
		for _, r := range rows {
			if r < len(outs) {
				vals = append(vals, outs[r])
			}
		}
		return vals, nil
	}
	ci, ok := t.ColIndex(item.Col.Column)
	if !ok {
		return nil, fmt.Errorf("sql: unknown column %q under %s", item.Col.Column, item.Agg)
	}
	for _, r := range rows {
		vals = append(vals, t.Cell(r, ci))
	}
	return vals, nil
}

// aggregate folds one group's values. COUNT counts non-empty values
// (COUNT(*) counts rows); SUM and AVG fold the values that parse as numbers;
// MIN and MAX pick the extremum under valueLess's total order, returning the
// chosen value verbatim.
func aggregate(fn AggFunc, star bool, vals []string, groupSize int) string {
	switch fn {
	case AggCount:
		if star {
			return strconv.Itoa(groupSize)
		}
		n := 0
		for _, v := range vals {
			if v != "" {
				n++
			}
		}
		return strconv.Itoa(n)
	case AggSum, AggAvg:
		var sum float64
		var n int
		for _, v := range vals {
			if f, ok := parseNum(v); ok {
				sum += f
				n++
			}
		}
		if fn == AggAvg {
			if n == 0 {
				return strconv.FormatFloat(0, 'f', 3, 64)
			}
			return strconv.FormatFloat(sum/float64(n), 'f', 3, 64)
		}
		return strconv.FormatFloat(sum, 'f', 3, 64)
	case AggMin, AggMax:
		if len(vals) == 0 {
			return ""
		}
		best := vals[0]
		for _, v := range vals[1:] {
			if (fn == AggMin && valueLess(v, best)) || (fn == AggMax && valueLess(best, v)) {
				best = v
			}
		}
		return best
	}
	return ""
}

// applyOrderLimit sorts the result relation by the ORDER BY keys (compared
// left to right, each ascending or descending independently) and truncates it
// to LIMIT. Every key must name an output column of the statement: an alias,
// a column as it was selected, or any spelling (qualified or not) that
// resolves to a selected column's canonical name.
func applyOrderLimit(q *Query, res *Result, sc *scope) error {
	if len(q.OrderBy) > 0 {
		type sortKey struct {
			col  int
			desc bool
		}
		keys := make([]sortKey, len(q.OrderBy))
		for i, o := range q.OrderBy {
			name := o.Col.display()
			col := slices.Index(res.Columns, name)
			if col < 0 && sc != nil {
				// Not an alias or verbatim header; try the reference's
				// canonical working-relation name (ORDER BY request ↔
				// SELECT t.request).
				if canon, _, err := sc.resolve(o.Col, len(sc.tables), ""); err == nil {
					col = slices.Index(res.Columns, canon)
				}
			}
			if col < 0 {
				return fmt.Errorf("sql: ORDER BY column %q is not an output column of the statement", name)
			}
			keys[i] = sortKey{col: col, desc: o.Desc}
		}
		sort.SliceStable(res.Rows, func(i, j int) bool {
			for _, k := range keys {
				a, b := res.Rows[i][k.col], res.Rows[j][k.col]
				if a == b {
					continue
				}
				if k.desc {
					a, b = b, a
				}
				if valueLess(a, b) {
					return true
				}
				if valueLess(b, a) {
					return false
				}
				// Equal under the order (e.g. '5' vs '5.0'): next key.
			}
			return false
		})
	}
	if q.Limit >= 0 && len(res.Rows) > q.Limit {
		res.Rows = res.Rows[:q.Limit]
	}
	return nil
}

// parseNum parses a finite number. "NaN" and "Inf" (which ParseFloat
// accepts) are treated as plain strings: NaN compares as neither less nor
// greater than anything and would break valueLess's strict weak ordering.
func parseNum(s string) (float64, bool) {
	f, err := strconv.ParseFloat(s, 64)
	if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
		return 0, false
	}
	return f, true
}

// valueLess is a total order over cell values: finite numbers order among
// themselves numerically and before every non-numeric string; non-numeric
// strings order lexicographically. Keeping it a strict weak ordering (no
// mixed numeric/lexicographic cycles) is what sort.SliceStable and the
// MIN/MAX fold both require.
func valueLess(a, b string) bool {
	af, okA := parseNum(a)
	bf, okB := parseNum(b)
	switch {
	case okA && okB:
		return af < bf
	case okA:
		return true
	case okB:
		return false
	}
	return a < b
}

func finishStats(res *Result, promptTok, matchedTok int64) {
	if promptTok > 0 {
		res.HitRate = float64(matchedTok) / float64(promptTok)
	}
}

// isAggregated reports whether the statement needs grouped evaluation.
// HAVING forces it: a group filter over an ungrouped statement treats the
// whole relation as one group, exactly like a bare aggregate select.
func isAggregated(q *Query) bool {
	if len(q.GroupBy) > 0 || q.Having != nil {
		return true
	}
	for _, item := range q.Select {
		if item.Agg != AggNone {
			return true
		}
	}
	return false
}

// validate checks the aggregate/grouping shape of a bound statement; column
// existence and ambiguity were already settled by bind. ORDER BY is resolved
// against the output relation at execution time (aliases and star expansion
// are only known then).
func validate(q *Query) error {
	grouped := map[string]bool{}
	for _, c := range q.GroupBy {
		grouped[c.Column] = true
	}
	aggregated := isAggregated(q)

	for _, item := range q.Select {
		switch {
		case item.Star:
			if aggregated {
				return fmt.Errorf("sql: SELECT * cannot be combined with aggregates, GROUP BY, or HAVING")
			}
		case item.Agg != AggNone:
			// Any aggregate argument shape is legal.
		case item.LLM != nil:
			if aggregated {
				return fmt.Errorf("sql: LLM projection must be wrapped in an aggregate when aggregates, GROUP BY, or HAVING are present")
			}
		default:
			if aggregated && !grouped[item.Col.Column] {
				return fmt.Errorf("sql: column %q must appear in GROUP BY or under an aggregate", item.Col.Column)
			}
		}
	}

	// HAVING is evaluated per group: every leaf must be an aggregate or a
	// grouped column; a bare LLM call would be a per-row value.
	var herr error
	walkCompares(q.Having, func(c *Compare) {
		if herr != nil || c.Agg != AggNone {
			return
		}
		switch {
		case c.LLM != nil:
			herr = fmt.Errorf("sql: LLM call in HAVING must be wrapped in an aggregate (it is a per-row value; HAVING filters groups)")
		case !grouped[c.Col.Column]:
			herr = fmt.Errorf("sql: column %q in HAVING must appear in GROUP BY or under an aggregate", c.Col.Column)
		}
	})
	return herr
}

func aliasOr(item SelectItem, def string) string {
	if item.Alias != "" {
		return item.Alias
	}
	return def
}

// projectCall restricts the table to the call's field list (or keeps all
// fields for {T.*}); hidden columns and restricted FDs carry over. The
// result is always a fresh table so stages may attach synthetic truth
// columns without mutating the registered relation.
func projectCall(t *table.Table, c LLMCall) (*table.Table, error) {
	if c.AllFields {
		return t.Select(t.Columns()...)
	}
	cols := make([]string, len(c.Fields))
	for i, f := range c.Fields {
		cols[i] = f.Column
	}
	return t.Select(cols...)
}

// keyField picks the field the oracle's position model watches: the first
// listed field (the paper's examples put the semantic key first).
func keyField(t *table.Table, c LLMCall) string {
	if len(c.Fields) > 0 {
		return c.Fields[0].Column
	}
	cols := t.Columns()
	if len(cols) > 0 {
		return cols[0]
	}
	return ""
}

// filterChoices determines the answer alphabet for an ad-hoc filter stage.
// When the table carries ground-truth labels containing every compared
// literal, the oracle answers from them; otherwise a synthetic truth column
// is attached with a deterministic per-row draw over all compared literals
// plus a none-of-the-above complement, so every comparison branch of the
// statement is reachable. The draw is seeded by the call's prompt so two
// different questions over the same fields get independent truths.
func filterChoices(t *table.Table, prompt string, literals []string) (choices []string, truthCol string) {
	if len(literals) == 0 {
		literals = []string{"Yes"}
	}
	if labels, ok := t.Hidden("label"); ok {
		distinct := map[string]bool{}
		for _, l := range labels {
			distinct[l] = true
		}
		all := true
		for _, lit := range literals {
			if !distinct[lit] {
				all = false
				break
			}
		}
		if all {
			for l := range distinct {
				choices = append(choices, l)
			}
			sort.Strings(choices)
			return choices, "label"
		}
	}
	choices = append(append([]string(nil), literals...), complementLiteral(literals))
	seed := strHash(prompt)
	for _, lit := range literals {
		seed += uint64(len(lit))
	}
	vals := make([]string, t.NumRows())
	for i := range vals {
		vals[i] = choices[splitmix(rowHash(t, i)+seed)%uint64(len(choices))]
	}
	const col = "__sql_truth"
	if err := t.SetHidden(col, vals); err != nil {
		// Unreachable: vals matches the row count by construction.
		panic(err)
	}
	return choices, col
}

// complementLiteral is the none-of-the-above answer of a synthetic filter
// alphabet. It must not collide with a literal the user actually compares
// against, or that branch's draw is skewed and ambiguous.
func complementLiteral(literals []string) string {
	comp := "NOT " + literals[0]
	for slices.Contains(literals, comp) {
		comp = "NOT " + comp
	}
	return comp
}

// rowHash keys synthetic ground truth — and, via Spec.RowKeys, the oracle's
// latent answer draws — by row content rather than position, so a row keeps
// its truth and its answer no matter how pushdown, joins, or projection
// reindex the stage's input table (a real model's answer does not depend on
// where a row sits in the batch either).
func rowHash(t *table.Table, row int) uint64 {
	var h uint64 = 1469598103934665603
	for _, cell := range t.Row(row) {
		h = fnvMix(h, cell)
	}
	return h
}

func strHash(s string) uint64 {
	return fnvMix(1469598103934665603, s)
}

func fnvMix(h uint64, s string) uint64 {
	const prime = 1099511628211
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	h ^= 0x1f
	h *= prime
	return h
}

// synthesizeScores attaches a deterministic 1..5 ground-truth score column
// for ad-hoc aggregates over tables without one, keyed by row content and
// the call's prompt (see rowHash).
func synthesizeScores(t *table.Table, prompt string) string {
	seed := strHash(prompt)
	vals := make([]string, t.NumRows())
	for i := range vals {
		vals[i] = strconv.Itoa(1 + int(splitmix(rowHash(t, i)+seed+77)%5))
	}
	const col = "__sql_score"
	if err := t.SetHidden(col, vals); err != nil {
		panic(err)
	}
	return col
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
