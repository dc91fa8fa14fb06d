package sqlfront

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/query"
	"repro/internal/table"
)

// joinFixture is a two-table workload: 40 tickets referencing 10 customers,
// half of whom are pro tier. Text cells vary per row so the content-keyed
// oracle draws differ across rows.
func joinFixture() (tickets, customers *table.Table) {
	tickets = table.New("ticket_id", "customer_id", "request", "response")
	for i := 0; i < 40; i++ {
		tickets.MustAppendRow(
			"T-"+strconv.Itoa(1000+i),
			"C-"+strconv.Itoa(i%10),
			fmt.Sprintf("A long and detailed request %d describing an account issue with many words of context", i),
			fmt.Sprintf("A long support response %d walking through every remediation step in detail", i),
		)
	}
	customers = table.New("customer_id", "tier", "region")
	for i := 0; i < 10; i++ {
		tier := "free"
		if i < 5 {
			tier = "pro"
		}
		customers.MustAppendRow("C-"+strconv.Itoa(i), tier, "region-"+strconv.Itoa(i))
	}
	return tickets, customers
}

func joinDB() *DB {
	db := NewDB()
	tk, cu := joinFixture()
	db.Register("tickets", tk)
	db.Register("customers", cu)
	return db
}

// --- join semantics -----------------------------------------------------------

func TestExecJoinPlainPredicate(t *testing.T) {
	db := joinDB()
	res, err := db.ExecContext(t.Context(), `SELECT t.ticket_id, c.region FROM tickets AS t JOIN customers AS c ON t.customer_id = c.customer_id WHERE c.tier = 'pro'`, execCfg())
	if err != nil {
		t.Fatal(err)
	}
	if got := []string{"t.ticket_id", "c.region"}; !reflect.DeepEqual(res.Columns, got) {
		t.Errorf("columns = %v, want %v", res.Columns, got)
	}
	// Customers C-0..C-4 are pro; tickets cycle customers mod 10, so 4 rows
	// per customer → 20 rows, in ticket order.
	if len(res.Rows) != 20 {
		t.Fatalf("rows = %d, want 20", len(res.Rows))
	}
	for _, row := range res.Rows {
		id, _ := strconv.Atoi(strings.TrimPrefix(row[0], "T-"))
		if (id-1000)%10 >= 5 {
			t.Errorf("non-pro ticket %q passed", row[0])
		}
		if want := "region-" + strconv.Itoa((id-1000)%10); row[1] != want {
			t.Errorf("ticket %q joined region %q, want %q", row[0], row[1], want)
		}
	}
	if res.LLMCalls != 0 || res.Stages != 0 {
		t.Errorf("plain join ran %d LLM calls", res.LLMCalls)
	}
}

func TestExecJoinUnqualifiedUnambiguousColumns(t *testing.T) {
	db := joinDB()
	// ticket_id, tier, region are unique across the two tables; only the
	// join key needs qualification.
	res, err := db.ExecContext(t.Context(), `SELECT ticket_id, region FROM tickets JOIN customers ON tickets.customer_id = customers.customer_id WHERE tier = 'free' ORDER BY tickets.ticket_id LIMIT 3`, execCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Unqualified references bind to their canonical qualified names.
	if got := []string{"tickets.ticket_id", "customers.region"}; !reflect.DeepEqual(res.Columns, got) {
		t.Errorf("columns = %v, want %v", res.Columns, got)
	}
	if len(res.Rows) != 3 || res.Rows[0][0] != "T-1005" {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestExecJoinOrderPreservesLeftTable(t *testing.T) {
	db := joinDB()
	res, err := db.ExecContext(t.Context(), `SELECT t.ticket_id FROM tickets AS t JOIN customers AS c ON t.customer_id = c.customer_id`, execCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 40 {
		t.Fatalf("rows = %d, want 40", len(res.Rows))
	}
	for i, row := range res.Rows {
		if want := "T-" + strconv.Itoa(1000+i); row[0] != want {
			t.Fatalf("row %d = %q, want %q (left order lost)", i, row[0], want)
		}
	}
}

func TestExecSelfJoin(t *testing.T) {
	db := joinDB()
	res, err := db.ExecContext(t.Context(), `SELECT a.ticket_id, b.ticket_id FROM tickets AS a JOIN tickets AS b ON a.customer_id = b.customer_id WHERE a.ticket_id = 'T-1000'`, execCfg())
	if err != nil {
		t.Fatal(err)
	}
	// T-1000's customer C-0 owns tickets 1000, 1010, 1020, 1030.
	if len(res.Rows) != 4 {
		t.Fatalf("self-join rows = %v", res.Rows)
	}
	if res.Rows[1][1] != "T-1010" {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestExecThreeWayJoin(t *testing.T) {
	db := joinDB()
	plans := table.New("tier", "price")
	plans.MustAppendRow("pro", "99")
	plans.MustAppendRow("free", "0")
	db.Register("plans", plans)
	res, err := db.ExecContext(t.Context(), `SELECT p.price, COUNT(*) AS n FROM tickets AS t JOIN customers AS c ON t.customer_id = c.customer_id JOIN plans AS p ON c.tier = p.tier GROUP BY p.price ORDER BY n`, execCfg())
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{{"99", "20"}, {"0", "20"}}
	if !reflect.DeepEqual(res.Rows, want) {
		t.Errorf("rows = %v, want %v", res.Rows, want)
	}
}

func TestExecJoinGroupByWithLLMAggregate(t *testing.T) {
	db := joinDB()
	res, err := db.ExecContext(t.Context(), `SELECT c.tier, COUNT(*) AS n, AVG(LLM('Rate the urgency 1-5', t.request)) AS urgency FROM tickets AS t JOIN customers AS c ON t.customer_id = c.customer_id GROUP BY c.tier`, execCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Stages != 1 {
		t.Fatalf("rows = %v, stages = %d", res.Rows, res.Stages)
	}
	for _, row := range res.Rows {
		if row[1] != "20" {
			t.Errorf("group %q size = %q, want 20", row[0], row[1])
		}
		if v, err := strconv.ParseFloat(row[2], 64); err != nil || v < 1 || v > 5 {
			t.Errorf("group %q urgency = %q", row[0], row[2])
		}
	}
}

func TestExecJoinErrors(t *testing.T) {
	db := joinDB()
	bad := map[string]string{
		`SELECT a FROM missing JOIN customers ON missing.x = customers.customer_id`:                     "not registered",
		`SELECT a FROM tickets JOIN missing ON tickets.customer_id = missing.x`:                         "not registered",
		`SELECT customer_id FROM tickets JOIN customers ON tickets.customer_id = customers.customer_id`: "ambiguous",
		`SELECT x.ticket_id FROM tickets AS x JOIN customers AS x ON x.customer_id = x.customer_id`:     "duplicate table name",
		`SELECT t.ticket_id FROM tickets AS t JOIN customers AS c ON t.customer_id = t.ticket_id`:       "must link",
		`SELECT t.ticket_id FROM tickets AS t JOIN customers AS c ON c.tier = c.region`:                 "must link",
		`SELECT z.ticket_id FROM tickets AS t JOIN customers AS c ON t.customer_id = c.customer_id`:     "unknown table",
		`SELECT t.nope FROM tickets AS t JOIN customers AS c ON t.customer_id = c.customer_id`:          "no column",
	}
	for src, want := range bad {
		_, err := db.ExecContext(t.Context(), src, execCfg())
		if err == nil {
			t.Errorf("Exec(%q) succeeded", src)
			continue
		}
		if !strings.Contains(err.Error(), want) {
			t.Errorf("Exec(%q) error %q, want it to mention %q", src, err, want)
		}
	}
}

func TestExecUnregisteredTableErrorListsRegistered(t *testing.T) {
	db := joinDB()
	_, err := db.ExecContext(t.Context(), `SELECT a FROM nope`, execCfg())
	if err == nil {
		t.Fatal("unregistered table accepted")
	}
	for _, want := range []string{`"nope"`, "not registered", "customers", "tickets"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %s", err, want)
		}
	}
	empty := NewDB()
	if _, err := empty.ExecContext(t.Context(), `SELECT a FROM nope`, execCfg()); err == nil || !strings.Contains(err.Error(), "no tables registered") {
		t.Errorf("empty-registry error = %v", err)
	}
}

func TestExecOrderByQualifiedSpellings(t *testing.T) {
	db := joinDB()
	// Single table: a qualified ORDER BY key resolves to the bare output
	// column.
	single, err := db.ExecContext(t.Context(), `SELECT ticket_id FROM tickets ORDER BY tickets.ticket_id DESC LIMIT 1`, execCfg())
	if err != nil {
		t.Fatal(err)
	}
	if single.Rows[0][0] != "T-1039" {
		t.Errorf("single-table qualified ORDER BY rows = %v", single.Rows)
	}
	// Join: an unqualified ORDER BY key resolves to the canonical qualified
	// output column.
	joined, err := db.ExecContext(t.Context(), `SELECT t.ticket_id FROM tickets AS t JOIN customers AS c ON t.customer_id = c.customer_id ORDER BY ticket_id DESC LIMIT 1`, execCfg())
	if err != nil {
		t.Fatal(err)
	}
	if joined.Rows[0][0] != "T-1039" {
		t.Errorf("join unqualified ORDER BY rows = %v", joined.Rows)
	}
	// A key that is neither an output column nor resolvable still errors.
	if _, err := db.ExecContext(t.Context(), `SELECT t.ticket_id FROM tickets AS t JOIN customers AS c ON t.customer_id = c.customer_id ORDER BY c.region`, execCfg()); err == nil {
		t.Error("ORDER BY on an unselected column accepted")
	}
}

func TestExecDuplicateLLMFieldsCollapse(t *testing.T) {
	// A field listed twice (directly or via qualification) must not break
	// the projected stage table.
	db := joinDB()
	res, err := db.ExecContext(t.Context(), `SELECT LLM('Summarize', request, request, tickets.request) AS s FROM tickets`, execCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 40 || res.Rows[0][0] == "" {
		t.Fatalf("rows = %v", res.Rows[:1])
	}
}

func TestExecQualifiedAndBareSpellingsDedup(t *testing.T) {
	// LLM('p', request) and LLM('p', tickets.request) resolve to the same
	// canonical column and must share one stage.
	db := joinDB()
	res, err := db.ExecContext(t.Context(), `SELECT LLM('Summarize', request) AS a, LLM('Summarize', tickets.request) AS b FROM tickets`, execCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stages != 1 {
		t.Errorf("stages = %d, want 1 (qualified spelling dedup)", res.Stages)
	}
	for i, row := range res.Rows {
		if row[0] != row[1] {
			t.Fatalf("row %d: deduped columns disagree", i)
		}
	}
}

// --- cost-ordered LLM filters -------------------------------------------------

// costSQL carries two LLM filters with the expensive one written first, so
// only cost-based reordering (not occurrence order) can run the cheap,
// selective region filter ahead of the long request/response filter.
const costSQL = `SELECT t.ticket_id
	FROM tickets AS t JOIN customers AS c ON t.customer_id = c.customer_id
	WHERE LLM('Does the response fully resolve the request?', t.request, t.response) = 'Yes'
	  AND c.tier = 'pro'
	  AND LLM('Is this region on fire?', c.region) = 'Yes'`

// TestExecJoinCostOrderedFewerCallsSameRows is the acceptance check: a
// two-table join with two LLM filters returns the same relation under the
// planned and naive executions, with the planned one issuing strictly fewer
// model calls and finishing sooner on the simulator.
func TestExecJoinCostOrderedFewerCallsSameRows(t *testing.T) {
	db := joinDB()
	planned, err := db.ExecContext(t.Context(), costSQL, execCfg())
	if err != nil {
		t.Fatal(err)
	}
	naiveCfg := execCfg()
	naiveCfg.Naive = true
	naive, err := db.ExecContext(t.Context(), costSQL, naiveCfg)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(planned.Rows, naive.Rows) {
		t.Fatalf("plans disagree:\nplanned %v\nnaive   %v", planned.Rows, naive.Rows)
	}
	if len(planned.Rows) == 0 {
		t.Fatal("no rows survived; fixture does not exercise the filters")
	}
	if planned.LLMCalls >= naive.LLMCalls {
		t.Errorf("planned %d calls, naive %d — want strictly fewer", planned.LLMCalls, naive.LLMCalls)
	}
	if planned.JCT >= naive.JCT {
		t.Errorf("planned JCT %.1f, naive %.1f — want strictly lower", planned.JCT, naive.JCT)
	}
	// The naive plan pays both filters over all 40 joined rows. The planned
	// plan pushes the tier predicate below the join (20 rows), runs the
	// cheap region filter first (20 calls), and pays the expensive filter
	// only for its survivors — strictly under 20 of the naive plan's calls.
	if naive.LLMCalls != 80 {
		t.Errorf("naive calls = %d, want 80", naive.LLMCalls)
	}
	if planned.LLMCalls >= 40 {
		t.Errorf("planned calls = %d, want < 40 (pushdown + cascade)", planned.LLMCalls)
	}
}

// TestOrderStagesByCost pins the planner-level ordering: the cheap, selective
// filter ranks ahead of the expensive one regardless of occurrence order.
func TestOrderStagesByCost(t *testing.T) {
	tk, _ := joinFixture()
	q := mustParse(t, `SELECT ticket_id FROM tickets WHERE LLM('Resolved?', request, response) = 'Yes' AND LLM('Short?', ticket_id) = 'Yes'`)
	db := NewDB()
	db.Register("tickets", tk)
	sc, _, err := db.scopeFor(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bind(q, sc); err != nil {
		t.Fatal(err)
	}
	pl := mustPlan(t, q, true)
	if len(pl.PreStages) != 2 {
		t.Fatalf("stages = %d", len(pl.PreStages))
	}
	if got := pl.PreStages[0].Call.Fields[0].Column; got != "request" {
		t.Fatalf("occurrence order lost before ordering: %q", got)
	}
	ordered := orderStagesByCost(pl.PreStages, pl.Residual, tk)
	if got := ordered[0].Call.Fields[0].Column; got != "ticket_id" {
		t.Errorf("cheap filter not first: %q", got)
	}
	if got := ordered[1].Call.Fields[0].Column; got != "request" {
		t.Errorf("expensive filter not last: %q", got)
	}
}

// TestOrderStagesByCostPrefersSelective checks the selectivity term: with
// equal per-call cost, the filter whose conjunct passes fewer rows ranks
// first (1/3 of a three-way alphabet vs 2/3).
func TestOrderStagesByCostPrefersSelective(t *testing.T) {
	tk, _ := joinFixture()
	q := mustParse(t, `SELECT ticket_id FROM tickets WHERE (LLM('Wide?', request) = 'A' OR LLM('Wide?', request) = 'B') AND LLM('Narrow?', request) = 'A'`)
	db := NewDB()
	db.Register("tickets", tk)
	sc, _, err := db.scopeFor(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bind(q, sc); err != nil {
		t.Fatal(err)
	}
	pl := mustPlan(t, q, true)
	ordered := orderStagesByCost(pl.PreStages, pl.Residual, tk)
	if got := ordered[0].Call.Prompt; got != "Narrow?" {
		t.Errorf("selective filter not first: %q", got)
	}
}

func TestBuildPlanJoinPushdownClassification(t *testing.T) {
	db := joinDB()
	q := mustParse(t, `SELECT t.ticket_id FROM tickets AS t JOIN customers AS c ON t.customer_id = c.customer_id
		WHERE t.ticket_id <> 'T-9999' AND c.tier = 'pro' AND (t.ticket_id = 'T-1000' OR c.region <> 'region-3') AND LLM('ok?', t.request) = 'Yes'`)
	sc, _, err := db.scopeFor(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bind(q, sc); err != nil {
		t.Fatal(err)
	}
	pl, err := BuildPlan(q, sc, true)
	if err != nil {
		t.Fatal(err)
	}
	if pl.TablePushed[0] == nil || containsLLM(pl.TablePushed[0]) {
		t.Errorf("tickets-local conjunct not pushed: %v", pl.TablePushed[0])
	}
	if pl.TablePushed[1] == nil {
		t.Errorf("customers-local conjunct not pushed")
	}
	if pl.Pushed == nil || containsLLM(pl.Pushed) {
		t.Errorf("cross-table plain conjunct not pushed post-join: %v", pl.Pushed)
	}
	if pl.Residual == nil || !containsLLM(pl.Residual) {
		t.Errorf("LLM conjunct not residual: %v", pl.Residual)
	}
	if len(pl.PreStages) != 1 || len(pl.PostStages) != 0 {
		t.Errorf("stages = %d pre / %d post", len(pl.PreStages), len(pl.PostStages))
	}
	if pl.PreStages[0].Type != query.Filter {
		t.Errorf("stage type = %v", pl.PreStages[0].Type)
	}
}

// TestExecJoinLLMFilterPolicyInvariant: scheduling policy changes serving
// cost, never the joined result relation.
func TestExecJoinLLMFilterPolicyInvariant(t *testing.T) {
	db := joinDB()
	sql := `SELECT t.ticket_id FROM tickets AS t JOIN customers AS c ON t.customer_id = c.customer_id WHERE LLM('Is this region on fire?', c.region) = 'Yes'`
	ggr, err := db.ExecContext(t.Context(), sql, ExecConfig{Config: query.Config{Policy: query.CacheGGR}})
	if err != nil {
		t.Fatal(err)
	}
	orig, err := db.ExecContext(t.Context(), sql, ExecConfig{Config: query.Config{Policy: query.CacheOriginal}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ggr.Rows, orig.Rows) {
		t.Errorf("policy changed results:\nggr  %v\norig %v", ggr.Rows, orig.Rows)
	}
}
