package sqlfront

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/query"
	"repro/internal/table"
)

// --- lexer -------------------------------------------------------------------

func kinds(t *testing.T, src string) []tokenKind {
	t.Helper()
	toks, err := lex(src)
	if err != nil {
		t.Fatalf("lex(%q): %v", src, err)
	}
	out := make([]tokenKind, len(toks))
	for i, tk := range toks {
		out[i] = tk.kind
	}
	return out
}

func TestLexBasics(t *testing.T) {
	got := kinds(t, "SELECT a, b FROM t")
	want := []tokenKind{tokKeyword, tokIdent, tokComma, tokIdent, tokKeyword, tokIdent, tokEOF}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("token %d: %v, want %v", i, got[i], want[i])
		}
	}
}

func TestLexStringEscapes(t *testing.T) {
	toks, err := lex("'it''s quoted'")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].text != "it's quoted" {
		t.Errorf("string = %q", toks[0].text)
	}
}

func TestLexSlashIdentifiers(t *testing.T) {
	toks, err := lex("review/overall beer/beerId")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].text != "review/overall" || toks[1].text != "beer/beerId" {
		t.Errorf("idents = %q, %q", toks[0].text, toks[1].text)
	}
}

func TestLexQuotedIdentifier(t *testing.T) {
	toks, err := lex(`"weird col"`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].kind != tokIdent || toks[0].text != "weird col" {
		t.Errorf("quoted ident = %+v", toks[0])
	}
}

func TestLexQuotedIdentifierEscapes(t *testing.T) {
	// "" inside a quoted identifier is a literal quote, mirroring the
	// string-literal rule.
	toks, err := lex(`"a""b"`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].kind != tokIdent || toks[0].text != `a"b` {
		t.Errorf("escaped quoted ident = %+v", toks[0])
	}
}

func TestLexEmptyQuotedIdentifierRejected(t *testing.T) {
	if _, err := lex(`""`); err == nil {
		t.Error(`lex("") succeeded, want empty-identifier error`)
	}
	// But "" as an escape inside a non-empty identifier is fine.
	if _, err := lex(`""""`); err != nil {
		t.Errorf(`lex("""") = %v, want identifier '"'`, err)
	}
}

func TestLexNumbers(t *testing.T) {
	toks, err := lex("42 4.5 LIMIT 0")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].kind != tokNumber || toks[0].text != "42" {
		t.Errorf("token 0 = %+v", toks[0])
	}
	if toks[1].kind != tokNumber || toks[1].text != "4.5" {
		t.Errorf("token 1 = %+v", toks[1])
	}
	if toks[2].kind != tokKeyword || toks[2].text != "LIMIT" {
		t.Errorf("token 2 = %+v", toks[2])
	}
}

func TestLexOperators(t *testing.T) {
	got := kinds(t, "= <> != < <= > >=")
	want := []tokenKind{tokEq, tokNeq, tokNeq, tokLt, tokLe, tokGt, tokGe}
	for i, k := range want {
		if got[i] != k {
			t.Errorf("operator %d = %v, want %v", i, got[i], k)
		}
	}
}

func TestLexErrors(t *testing.T) {
	for _, src := range []string{"'unterminated", `"unterminated`, "!x", "#"} {
		if _, err := lex(src); err == nil {
			t.Errorf("lex(%q) succeeded", src)
		}
	}
}

func TestLexCaseInsensitiveKeywords(t *testing.T) {
	toks, err := lex("select From wHeRe llm avg")
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"SELECT", "FROM", "WHERE", "LLM", "AVG"} {
		if toks[i].kind != tokKeyword || toks[i].text != want {
			t.Errorf("token %d = %+v, want keyword %s", i, toks[i], want)
		}
	}
}

// --- parser ------------------------------------------------------------------

func mustParse(t *testing.T, src string) *Query {
	t.Helper()
	q, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return q
}

func TestParseProjectionQuery(t *testing.T) {
	q := mustParse(t, "SELECT LLM('Summarize: ', reviewcontent, movieinfo) FROM movies")
	if len(q.From) != 1 || q.From[0].Table != "movies" || len(q.Select) != 1 {
		t.Fatalf("query = %+v", q)
	}
	call := q.Select[0].LLM
	if call == nil || call.Prompt != "Summarize: " {
		t.Fatalf("call = %+v", call)
	}
	if len(call.Fields) != 2 || call.Fields[0].Column != "reviewcontent" {
		t.Errorf("fields = %v", call.Fields)
	}
}

func TestParseFilterQuery(t *testing.T) {
	q := mustParse(t, `SELECT movietitle FROM movies WHERE LLM('Suitable for kids?', movieinfo, genres) = 'Yes'`)
	cmp, ok := q.Where.(*Compare)
	if !ok || cmp.Literal != "Yes" || cmp.Op != OpEq || cmp.LLM == nil {
		t.Fatalf("where = %+v", q.Where)
	}
	if len(cmp.LLM.Fields) != 2 {
		t.Errorf("where fields = %v", cmp.LLM.Fields)
	}
}

func TestParseNegatedPredicate(t *testing.T) {
	q := mustParse(t, `SELECT a FROM t WHERE LLM('sentiment?', a) <> 'POSITIVE'`)
	if q.Where.(*Compare).Op != OpNeq {
		t.Error("negation lost")
	}
}

func TestParseAggregate(t *testing.T) {
	q := mustParse(t, `SELECT AVG(LLM('Rate 1-5', reviewcontent)) AS AverageScore FROM movies`)
	item := q.Select[0]
	if item.Agg != AggAvg || item.Alias != "AverageScore" {
		t.Fatalf("item = %+v", item)
	}
}

func TestParseAggregateForms(t *testing.T) {
	q := mustParse(t, `SELECT COUNT(*) AS n, SUM(price), MIN(name), MAX(LLM('Rate', text)) FROM t`)
	if q.Select[0].Agg != AggCount || !q.Select[0].AggStar || q.Select[0].Alias != "n" {
		t.Fatalf("COUNT(*) item = %+v", q.Select[0])
	}
	if q.Select[1].Agg != AggSum || q.Select[1].Col.Column != "price" {
		t.Fatalf("SUM item = %+v", q.Select[1])
	}
	if q.Select[2].Agg != AggMin || q.Select[2].Col.Column != "name" {
		t.Fatalf("MIN item = %+v", q.Select[2])
	}
	if q.Select[3].Agg != AggMax || q.Select[3].LLM == nil {
		t.Fatalf("MAX item = %+v", q.Select[3])
	}
}

func TestParseBooleanWhereTree(t *testing.T) {
	q := mustParse(t, `SELECT a FROM t WHERE a = 'x' OR b <> 'y' AND NOT LLM('p', c) = 'Yes'`)
	or, ok := q.Where.(*BinaryExpr)
	if !ok || or.Op != "OR" {
		t.Fatalf("top = %+v", q.Where)
	}
	and, ok := or.Right.(*BinaryExpr)
	if !ok || and.Op != "AND" {
		t.Fatalf("AND should bind tighter than OR: %+v", or.Right)
	}
	if _, ok := and.Right.(*NotExpr); !ok {
		t.Fatalf("NOT lost: %+v", and.Right)
	}
}

func TestParseParenthesizedWhere(t *testing.T) {
	q := mustParse(t, `SELECT a FROM t WHERE (a = 'x' OR b = 'y') AND c = 'z'`)
	and, ok := q.Where.(*BinaryExpr)
	if !ok || and.Op != "AND" {
		t.Fatalf("top = %+v", q.Where)
	}
	if or, ok := and.Left.(*BinaryExpr); !ok || or.Op != "OR" {
		t.Fatalf("parens ignored: %+v", and.Left)
	}
}

func TestParseNumericComparison(t *testing.T) {
	q := mustParse(t, `SELECT a FROM t WHERE score = 4.5`)
	cmp := q.Where.(*Compare)
	if !cmp.IsNumber || cmp.Literal != "4.5" || cmp.Col.Column != "score" {
		t.Fatalf("cmp = %+v", cmp)
	}
}

func TestParseGroupOrderLimit(t *testing.T) {
	q := mustParse(t, `SELECT category, COUNT(*) AS n FROM t GROUP BY category ORDER BY n DESC LIMIT 3`)
	if len(q.GroupBy) != 1 || q.GroupBy[0].Column != "category" {
		t.Fatalf("group by = %v", q.GroupBy)
	}
	if len(q.OrderBy) != 1 || q.OrderBy[0].Col.Column != "n" || !q.OrderBy[0].Desc {
		t.Fatalf("order by = %+v", q.OrderBy)
	}
	if q.Limit != 3 {
		t.Fatalf("limit = %d", q.Limit)
	}
}

func TestParseLimitAbsentIsMinusOne(t *testing.T) {
	q := mustParse(t, `SELECT a FROM t`)
	if q.Limit != -1 {
		t.Fatalf("limit = %d, want -1 for absent LIMIT", q.Limit)
	}
}

func TestParseKeywordCollidingColumnViaQuotes(t *testing.T) {
	// A column named "and" is reachable through a quoted identifier.
	q := mustParse(t, `SELECT "and" FROM t WHERE "count" = 'x'`)
	if q.Select[0].Col.Column != "and" {
		t.Fatalf("select = %+v", q.Select[0])
	}
	if q.Where.(*Compare).Col.Column != "count" {
		t.Fatalf("where = %+v", q.Where)
	}
}

func TestParseStarForms(t *testing.T) {
	q := mustParse(t, `SELECT LLM('Summarize: ', pr.*) FROM pr`)
	if len(q.Select[0].LLM.StarOf) != 1 || q.Select[0].LLM.StarOf[0] != "pr" {
		t.Error("pr.* not recognized")
	}
	q = mustParse(t, `SELECT LLM('Summarize: ', *) FROM pr`)
	if !q.Select[0].LLM.AllFields {
		t.Error("bare * not recognized")
	}
	q = mustParse(t, `SELECT * FROM pr`)
	if !q.Select[0].Star {
		t.Error("select * not recognized")
	}
}

func TestParseMixedSelectList(t *testing.T) {
	q := mustParse(t, `SELECT user_id, request, LLM('Did it help?', support_response, request) AS success FROM tickets`)
	if len(q.Select) != 3 {
		t.Fatalf("select = %+v", q.Select)
	}
	if q.Select[2].Alias != "success" {
		t.Errorf("alias = %q", q.Select[2].Alias)
	}
}

func TestParseJoinClause(t *testing.T) {
	q := mustParse(t, `SELECT t.ticket_id, c.region FROM tickets AS t JOIN customers AS c ON t.customer_id = c.customer_id`)
	if len(q.From) != 2 {
		t.Fatalf("from = %+v", q.From)
	}
	if q.From[0].Table != "tickets" || q.From[0].Alias != "t" || q.From[0].On != nil {
		t.Fatalf("anchor = %+v", q.From[0])
	}
	j := q.From[1]
	if j.Table != "customers" || j.Alias != "c" || j.On == nil {
		t.Fatalf("joined = %+v", j)
	}
	want := JoinOn{Left: ColRef{Qualifier: "t", Column: "customer_id"}, Right: ColRef{Qualifier: "c", Column: "customer_id"}}
	if *j.On != want {
		t.Errorf("on = %+v", *j.On)
	}
	if q.Select[0].Col != (ColRef{Qualifier: "t", Column: "ticket_id"}) {
		t.Errorf("qualified select = %+v", q.Select[0])
	}
}

func TestParseMultiJoinWithoutAliases(t *testing.T) {
	q := mustParse(t, `SELECT a FROM t1 JOIN t2 ON t1.k = t2.k JOIN t3 ON t2.j = t3.j`)
	if len(q.From) != 3 || q.From[2].Table != "t3" || q.From[2].On == nil {
		t.Fatalf("from = %+v", q.From)
	}
	if q.From[1].Name() != "t2" {
		t.Errorf("effective name = %q", q.From[1].Name())
	}
}

func TestParseQualifiedEverywhere(t *testing.T) {
	q := mustParse(t, `SELECT a.x, AVG(b.y) FROM ta AS a JOIN tb AS b ON a.k = b.k WHERE LLM('p', a.text, b.note) = 'Yes' AND b.z = 'v' GROUP BY a.x ORDER BY a.x`)
	if q.Select[1].Col != (ColRef{Qualifier: "b", Column: "y"}) {
		t.Errorf("agg arg = %+v", q.Select[1])
	}
	if q.GroupBy[0] != (ColRef{Qualifier: "a", Column: "x"}) {
		t.Errorf("group by = %+v", q.GroupBy)
	}
	if q.OrderBy[0].Col != (ColRef{Qualifier: "a", Column: "x"}) {
		t.Errorf("order by = %+v", q.OrderBy)
	}
	cmp := q.Where.(*BinaryExpr).Left.(*Compare)
	if cmp.LLM.Fields[1] != (ColRef{Qualifier: "b", Column: "note"}) {
		t.Errorf("llm fields = %+v", cmp.LLM.Fields)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT FROM t",
		"SELECT a FROM",
		"SELECT a FROM t WHERE",
		"SELECT a FROM t WHERE LLM('x', a)",     // missing comparison
		"SELECT a FROM t WHERE LLM('x', a) = b", // non-literal comparand
		"SELECT LLM() FROM t",                   // no prompt
		"SELECT LLM('p') FROM t",                // no fields
		"SELECT a FROM t extra",                 // trailing tokens
		"SELECT AVG(*) FROM t",                  // '*' only under COUNT
		"SELECT SUM() FROM t",                   // empty aggregate
		"SELECT a FROM t WHERE LLM('x', a) = 'y' = ", // garbage tail
		"SELECT a FROM t WHERE (a = 'x'",             // unclosed paren
		"SELECT a FROM t WHERE a = 'x' AND",          // dangling AND
		"SELECT a FROM t WHERE NOT",                  // dangling NOT
		"SELECT a FROM t GROUP category",             // missing BY
		"SELECT a FROM t ORDER BY",                   // missing key
		"SELECT a FROM t LIMIT 4.5",                  // fractional limit
		"SELECT a FROM t LIMIT x",                    // non-numeric limit
		"SELECT a FROM t JOIN",                       // dangling JOIN
		"SELECT a FROM t JOIN u",                     // missing ON
		"SELECT a FROM t JOIN u ON",                  // missing condition
		"SELECT a FROM t JOIN u ON t.a = ",           // missing right side
		"SELECT a FROM t JOIN u ON t.a <> u.a",       // only equality joins
		"SELECT a FROM t JOIN u ON t.a = 'x'",        // literal join comparand
		"SELECT t. FROM t",                           // dangling qualifier
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded", src)
		}
	}
}

func TestQueryStringRoundTrip(t *testing.T) {
	src := `SELECT movietitle, LLM('Summarize: ', movieinfo) AS s FROM movies WHERE LLM('Kids?', genres) = 'Yes'`
	q := mustParse(t, src)
	q2 := mustParse(t, q.String())
	if q.String() != q2.String() {
		t.Errorf("round trip changed query:\n%s\n%s", q.String(), q2.String())
	}
}

// --- executor -----------------------------------------------------------------

func ticketsTable() *table.Table {
	t := table.New("ticket_id", "request", "support_response")
	responses := []string{
		"We reset your password and emailed a confirmation link to your inbox.",
		"Your refund was issued and will appear within five business days.",
	}
	for i := 0; i < 40; i++ {
		t.MustAppendRow(
			"T-"+strconv.Itoa(1000+i),
			"Request number "+strconv.Itoa(i)+" about an account issue",
			responses[i%2],
		)
	}
	labels := make([]string, 40)
	for i := range labels {
		if i%4 == 0 {
			labels[i] = "No"
		} else {
			labels[i] = "Yes"
		}
	}
	if err := t.SetHidden("label", labels); err != nil {
		panic(err)
	}
	return t
}

func execCfg() ExecConfig {
	return ExecConfig{Config: query.Config{Policy: query.CacheGGR}}
}

func TestExecIntroExample(t *testing.T) {
	// The paper's introductory query shape.
	db := NewDB()
	db.Register("customer_tickets", ticketsTable())
	res, err := db.ExecContext(t.Context(), `SELECT ticket_id, request, LLM('Did {support_response} address {request}?', support_response, request) AS success FROM customer_tickets`, execCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) != 3 || res.Columns[2] != "success" {
		t.Fatalf("columns = %v", res.Columns)
	}
	if len(res.Rows) != 40 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.LLMCalls != 40 || res.Stages != 1 {
		t.Errorf("calls=%d stages=%d", res.LLMCalls, res.Stages)
	}
	if res.JCT <= 0 {
		t.Error("JCT not positive")
	}
	for i, row := range res.Rows {
		if row[2] == "" {
			t.Fatalf("row %d: empty LLM output", i)
		}
	}
}

func TestExecFilterWithLabels(t *testing.T) {
	db := NewDB()
	db.Register("tickets", ticketsTable())
	res, err := db.ExecContext(t.Context(), `SELECT ticket_id FROM tickets WHERE LLM('Did the response help?', support_response, request) = 'Yes'`, execCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 || len(res.Rows) == 40 {
		t.Errorf("filter passed %d rows, want a strict subset", len(res.Rows))
	}
	for _, row := range res.Rows {
		if !strings.HasPrefix(row[0], "T-") {
			t.Fatalf("unexpected ticket id %q", row[0])
		}
	}
}

func TestExecNegatedFilterComplements(t *testing.T) {
	db := NewDB()
	db.Register("tickets", ticketsTable())
	pos, err := db.ExecContext(t.Context(), `SELECT ticket_id FROM tickets WHERE LLM('help?', support_response) = 'Yes'`, execCfg())
	if err != nil {
		t.Fatal(err)
	}
	neg, err := db.ExecContext(t.Context(), `SELECT ticket_id FROM tickets WHERE LLM('help?', support_response) <> 'Yes'`, execCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(pos.Rows)+len(neg.Rows) != 40 {
		t.Errorf("complement broken: %d + %d != 40", len(pos.Rows), len(neg.Rows))
	}
}

func TestExecAggregate(t *testing.T) {
	d := datagen.Products(datagen.Options{Scale: 0.005, Seed: 3})
	db := NewDB()
	db.Register("products", d.Table)
	res, err := db.ExecContext(t.Context(), `SELECT AVG(LLM('Rate the sentiment 1-5', text, description)) AS score FROM products`, execCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || len(res.Rows[0]) != 1 {
		t.Fatalf("aggregate shape = %v", res.Rows)
	}
	avg, err := strconv.ParseFloat(res.Rows[0][0], 64)
	if err != nil || avg < 1 || avg > 5 {
		t.Errorf("avg = %q", res.Rows[0][0])
	}
	if res.Columns[0] != "score" {
		t.Errorf("column = %q", res.Columns[0])
	}
}

func TestExecMultiLLMPipeline(t *testing.T) {
	// WHERE filter plus SELECT projection = the paper's T3 in SQL form.
	d := datagen.Movies(datagen.Options{Scale: 0.005, Seed: 3})
	db := NewDB()
	db.Register("movies", d.Table)
	res, err := db.ExecContext(t.Context(), `SELECT LLM('Summarize the good qualities', movieinfo, reviewcontent) FROM movies WHERE LLM('Is it suitable for kids?', movieinfo, genres) = 'Yes'`, execCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stages != 2 {
		t.Fatalf("stages = %d, want 2", res.Stages)
	}
	if len(res.Rows) == 0 {
		t.Error("no rows passed the filter")
	}
	if res.HitRate <= 0 {
		t.Error("hit rate missing")
	}
}

func TestExecSelectStar(t *testing.T) {
	db := NewDB()
	db.Register("tickets", ticketsTable())
	res, err := db.ExecContext(t.Context(), `SELECT * FROM tickets WHERE LLM('help?', support_response) = 'Yes'`, execCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) != 3 {
		t.Errorf("columns = %v", res.Columns)
	}
}

func TestExecSyntheticTruthIsDeterministic(t *testing.T) {
	// A filter whose literal is not in the label domain falls back to the
	// synthetic truth column; two runs must agree.
	db := NewDB()
	db.Register("tickets", ticketsTable())
	sql := `SELECT ticket_id FROM tickets WHERE LLM('custom?', request) = 'MAYBE'`
	a, err := db.ExecContext(t.Context(), sql, execCfg())
	if err != nil {
		t.Fatal(err)
	}
	b, err := db.ExecContext(t.Context(), sql, execCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rows) != len(b.Rows) {
		t.Errorf("nondeterministic synthetic filter: %d vs %d rows", len(a.Rows), len(b.Rows))
	}
}

func TestExecGGRNotSlowerThanOriginal(t *testing.T) {
	d := datagen.BIRD(datagen.Options{Scale: 0.01, Seed: 5})
	db := NewDB()
	db.Register("bird", d.Table)
	sql := `SELECT LLM('Summarize the comment', Body, Text) FROM bird`
	cfgGGR := execCfg()
	cfgOrig := ExecConfig{Config: query.Config{Policy: query.CacheOriginal}}
	g, err := db.ExecContext(t.Context(), sql, cfgGGR)
	if err != nil {
		t.Fatal(err)
	}
	o, err := db.ExecContext(t.Context(), sql, cfgOrig)
	if err != nil {
		t.Fatal(err)
	}
	if g.JCT > o.JCT*1.05 {
		t.Errorf("GGR JCT %.1f worse than original %.1f", g.JCT, o.JCT)
	}
}

func TestExecErrors(t *testing.T) {
	db := NewDB()
	db.Register("t", ticketsTable())
	bad := []string{
		`SELECT a FROM missing`,
		`SELECT nope FROM t`,
		`SELECT LLM('p', nope) FROM t`,
		`SELECT a FROM t WHERE LLM('p', nope) = 'x'`,
		`SELECT AVG(LLM('p', request)), ticket_id FROM t`, // mixed agg
		`SELECT !! FROM t`,
	}
	for _, src := range bad {
		if _, err := db.ExecContext(t.Context(), src, execCfg()); err == nil {
			t.Errorf("Exec(%q) succeeded", src)
		}
	}
}

func TestExecDoesNotMutateRegisteredTable(t *testing.T) {
	tbl := ticketsTable()
	db := NewDB()
	db.Register("t", tbl)
	if _, err := db.ExecContext(t.Context(), `SELECT ticket_id FROM t WHERE LLM('odd?', request, *) = 'MAYBE'`, execCfg()); err != nil {
		t.Fatal(err)
	}
	if _, ok := tbl.Hidden("__sql_truth"); ok {
		t.Error("executor attached synthetic truth to the registered table")
	}
}
