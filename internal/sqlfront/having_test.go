package sqlfront

import (
	"reflect"
	"strconv"
	"testing"

	"repro/internal/query"
	"repro/internal/table"
)

func havingDB() *DB {
	db := NewDB()
	db.Register("tickets", catTicketsTable())
	return db
}

func tableFromRows(t *testing.T, cols []string, rows [][]string) *table.Table {
	t.Helper()
	tb := table.New(cols...)
	for _, r := range rows {
		tb.MustAppendRow(r...)
	}
	return tb
}

func mustExec(t *testing.T, db *DB, sql string, cfg ExecConfig) *Result {
	t.Helper()
	res, err := db.ExecContext(t.Context(), sql, cfg)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return res
}

// --- HAVING ------------------------------------------------------------------

func TestHavingCountFiltersGroups(t *testing.T) {
	db := havingDB()
	// 24 billing rows, 16 refund rows; priority splits 0/1/2.
	all := mustExec(t, db, `SELECT category, COUNT(*) AS n FROM tickets GROUP BY category`, ExecConfig{})
	if len(all.Rows) != 2 {
		t.Fatalf("groups = %v", all.Rows)
	}
	res := mustExec(t, db, `SELECT category, COUNT(*) AS n FROM tickets GROUP BY category HAVING COUNT(*) > 20`, ExecConfig{})
	if len(res.Rows) != 1 || res.Rows[0][0] != "billing" || res.Rows[0][1] != "24" {
		t.Fatalf("HAVING kept %v", res.Rows)
	}
}

func TestHavingOrderedOperators(t *testing.T) {
	db := havingDB()
	for _, tc := range []struct {
		op   string
		want int // groups kept of billing=24, refund=16
	}{
		{">= 16", 2}, {"> 16", 1}, {"< 17", 1}, {"<= 24", 2}, {"= 16", 1}, {"<> 16", 1},
	} {
		res := mustExec(t, db,
			`SELECT category, COUNT(*) AS n FROM tickets GROUP BY category HAVING COUNT(*) `+tc.op, ExecConfig{})
		if len(res.Rows) != tc.want {
			t.Errorf("HAVING COUNT(*) %s kept %d groups, want %d: %v", tc.op, len(res.Rows), tc.want, res.Rows)
		}
	}
}

func TestHavingBooleanTreeAndGroupedColumn(t *testing.T) {
	db := havingDB()
	res := mustExec(t, db,
		`SELECT category, COUNT(*) AS n FROM tickets GROUP BY category
		 HAVING COUNT(*) > 10 AND NOT category = 'refund'`, ExecConfig{})
	if len(res.Rows) != 1 || res.Rows[0][0] != "billing" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

// TestHavingOverLLMAggregate runs an aggregate over an LLM call in HAVING
// only (not selected): the planner must still schedule the stage, and the
// filter must act on its folded score.
func TestHavingOverLLMAggregate(t *testing.T) {
	db := havingDB()
	prompt := "Rate the urgency from 1 to 5."
	all := mustExec(t, db,
		`SELECT category, AVG(LLM('`+prompt+`', request)) AS score FROM tickets GROUP BY category`, ExecConfig{})
	if len(all.Rows) != 2 {
		t.Fatalf("groups = %v", all.Rows)
	}
	// Pick a threshold between the two group scores so HAVING keeps exactly
	// one group.
	a, _ := strconv.ParseFloat(all.Rows[0][1], 64)
	b, _ := strconv.ParseFloat(all.Rows[1][1], 64)
	if a == b {
		t.Skipf("degenerate fixture: equal group scores %v", a)
	}
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	threshold := strconv.FormatFloat((lo+hi)/2, 'f', 3, 64)
	res := mustExec(t, db,
		`SELECT category, COUNT(*) AS n FROM tickets GROUP BY category
		 HAVING AVG(LLM('`+prompt+`', request)) > `+threshold, ExecConfig{})
	if len(res.Rows) != 1 {
		t.Fatalf("HAVING over LLM aggregate kept %v (scores %v / %v)", res.Rows, a, b)
	}
	if res.Stages != 1 {
		t.Errorf("stages = %d, want 1 (HAVING LLM call planned once)", res.Stages)
	}
}

// TestHavingDedupsWithSelect: the same LLM aggregate in SELECT and HAVING
// runs one stage under the optimizer.
func TestHavingDedupsWithSelect(t *testing.T) {
	db := havingDB()
	sql := `SELECT category, AVG(LLM('Rate 1-5.', request)) AS score FROM tickets GROUP BY category
	        HAVING AVG(LLM('Rate 1-5.', request)) > 0`
	res := mustExec(t, db, sql, ExecConfig{})
	if res.Stages != 1 {
		t.Errorf("planned stages = %d, want 1", res.Stages)
	}
	naive := mustExec(t, db, sql, ExecConfig{Naive: true})
	if naive.Stages != 2 {
		t.Errorf("naive stages = %d, want 2", naive.Stages)
	}
	if !reflect.DeepEqual(res.Rows, naive.Rows) {
		t.Errorf("planned %v != naive %v", res.Rows, naive.Rows)
	}
}

// TestHavingWithoutGroupByAggregatesGlobally: HAVING over an ungrouped
// statement treats the whole relation as one group.
func TestHavingWithoutGroupBy(t *testing.T) {
	db := havingDB()
	res := mustExec(t, db, `SELECT COUNT(*) AS n FROM tickets HAVING COUNT(*) > 100`, ExecConfig{})
	if len(res.Rows) != 0 {
		t.Fatalf("rows = %v, want none (40 < 100)", res.Rows)
	}
	res = mustExec(t, db, `SELECT COUNT(*) AS n FROM tickets HAVING COUNT(*) >= 40`, ExecConfig{})
	if len(res.Rows) != 1 || res.Rows[0][0] != "40" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestHavingValidation(t *testing.T) {
	db := havingDB()
	for _, sql := range []string{
		// Ungrouped plain column in HAVING.
		`SELECT category, COUNT(*) FROM tickets GROUP BY category HAVING priority = '1'`,
		// Bare per-row LLM call in HAVING.
		`SELECT category, COUNT(*) FROM tickets GROUP BY category HAVING LLM('ok?', request) = 'Yes'`,
		// Aggregates are HAVING-only, not WHERE.
		`SELECT ticket_id FROM tickets WHERE COUNT(*) > 3`,
	} {
		if _, err := db.ExecContext(t.Context(), sql, ExecConfig{}); err == nil {
			t.Errorf("%s: accepted", sql)
		}
	}
}

// --- multi-key ORDER BY ------------------------------------------------------

func TestOrderByMultipleKeys(t *testing.T) {
	db := havingDB()
	res := mustExec(t, db,
		`SELECT category, priority, ticket_id FROM tickets ORDER BY category DESC, priority, ticket_id DESC LIMIT 4`,
		ExecConfig{})
	want := [][]string{
		// refund rows first (DESC), then priority ascending, ticket DESC.
		{"refund", "0", "T-1039"}, {"refund", "0", "T-1036"},
		{"refund", "0", "T-1033"}, {"refund", "0", "T-1030"},
	}
	if !reflect.DeepEqual(res.Rows, want) {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestOrderBySecondKeyBreaksTies(t *testing.T) {
	db := havingDB()
	one := mustExec(t, db, `SELECT priority, ticket_id FROM tickets ORDER BY priority LIMIT 3`, ExecConfig{})
	two := mustExec(t, db, `SELECT priority, ticket_id FROM tickets ORDER BY priority, ticket_id DESC LIMIT 3`, ExecConfig{})
	// Single-key sort is stable (original order); adding the DESC tiebreak
	// must reverse the ticket order within the priority-0 block.
	if one.Rows[0][1] != "T-1000" {
		t.Fatalf("stable single-key order lost: %v", one.Rows)
	}
	if two.Rows[0][1] != "T-1039" {
		t.Fatalf("tiebreak not applied: %v", two.Rows)
	}
}

func TestOrderByNumericEqualityFallsThrough(t *testing.T) {
	// '5' and '5.0' are equal under the numeric order; the second key must
	// decide their relative position.
	db := NewDB()
	t2 := tableFromRows(t, []string{"v", "k"}, [][]string{{"5.0", "b"}, {"5", "a"}, {"4", "z"}})
	db.Register("t", t2)
	res := mustExec(t, db, `SELECT v, k FROM t ORDER BY v, k`, ExecConfig{})
	want := [][]string{{"4", "z"}, {"5", "a"}, {"5.0", "b"}}
	if !reflect.DeepEqual(res.Rows, want) {
		t.Fatalf("rows = %v", res.Rows)
	}
}

// --- ordered comparisons in WHERE -------------------------------------------

func TestWhereOrderedComparison(t *testing.T) {
	db := havingDB()
	res := mustExec(t, db, `SELECT ticket_id FROM tickets WHERE priority >= 2`, ExecConfig{})
	if len(res.Rows) != 13 { // ceil(40/3) rows with i%3 == 2
		t.Fatalf("rows = %d, want 13", len(res.Rows))
	}
	res = mustExec(t, db, `SELECT ticket_id FROM tickets WHERE priority < 1 AND category = 'billing'`, ExecConfig{})
	for _, r := range res.Rows {
		n, _ := strconv.Atoi(r[0][2:])
		if (n-1000)%3 != 0 {
			t.Fatalf("row %v has priority != 0", r)
		}
	}
}

// TestWhereOrderedAgainstLLMScore filters on an LLM aggregate-typed score
// with an ordered operator.
func TestWhereOrderedAgainstLLMScore(t *testing.T) {
	db := havingDB()
	sql := `SELECT ticket_id, AVG(LLM('Rate 1-5.', request)) AS s FROM tickets
	        WHERE LLM('Rate 1-5.', request) >= 3 GROUP BY ticket_id`
	res := mustExec(t, db, sql, ExecConfig{})
	for _, r := range res.Rows {
		v, err := strconv.ParseFloat(r[1], 64)
		if err != nil || v < 3 {
			t.Fatalf("row %v passed >= 3", r)
		}
	}
	if len(res.Rows) == 0 || len(res.Rows) == 40 {
		t.Fatalf("ordered LLM filter kept %d of 40 rows; expected a proper subset", len(res.Rows))
	}
}

// --- Prepared ---------------------------------------------------------------

func TestPreparedReusesAcrossConfigs(t *testing.T) {
	db := havingDB()
	p, err := db.Prepare(`SELECT category, COUNT(*) AS n FROM tickets GROUP BY category HAVING COUNT(*) > 20 ORDER BY n DESC, category`)
	if err != nil {
		t.Fatal(err)
	}
	first, err := p.ExecContext(t.Context(), ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		again, err := p.ExecContext(t.Context(), ExecConfig{Config: query.Config{Policy: query.CacheOriginal}})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first.Rows, again.Rows) {
			t.Fatalf("run %d: %v != %v", i, again.Rows, first.Rows)
		}
	}
	naive, err := p.ExecContext(t.Context(), ExecConfig{Naive: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.Rows, naive.Rows) {
		t.Fatalf("naive plan diverged: %v", naive.Rows)
	}
}

func TestPreparedTracksReregistration(t *testing.T) {
	db := NewDB()
	db.Register("t", tableFromRows(t, []string{"a"}, [][]string{{"x"}, {"y"}}))
	p, err := db.Prepare(`SELECT COUNT(*) AS n FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.ExecContext(t.Context(), ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != "2" {
		t.Fatalf("count = %v", res.Rows)
	}
	db.Register("t", tableFromRows(t, []string{"a"}, [][]string{{"x"}, {"y"}, {"z"}}))
	res, err = p.ExecContext(t.Context(), ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != "3" {
		t.Fatalf("count after re-registration = %v", res.Rows)
	}
}
