package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/datagen"
	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/table"
)

// dataset is one generated input relation as the program receives it: the
// table's JSON wire form (columns, rows, FD groups), registered at set-up
// under a lowercase name. Lowercase names carry no oracle position
// coefficient, so a relation does not depend on the plan that produced it
// and every response can be compared byte for byte with a sequential
// reference.
type dataset struct {
	name string
	data []byte
	rows int
}

// stmt is one statement the load generator sends, with the request body
// pre-encoded (untraced and traced) so the generator does no encoding work
// while the clock runs.
type stmt struct {
	sql    string
	kind   string // template kind, for the input-property report
	body   []byte
	traced []byte
}

// arrival is one open-loop request: due offset from the phase start and the
// statement it sends.
type arrival struct {
	at   time.Duration
	stmt int
}

// inputs is everything a workload sends: the relations, the statement pool,
// and (for the open loop) the arrival schedule of each phase.
type inputs struct {
	datasets []dataset
	stmts    []stmt
	// order is the closed-loop job: statement indices in submission order.
	order []int
	// ref is the open-loop reference phase; ladder the rate-ladder steps.
	ref     []arrival
	refRate float64
	ladder  [][]arrival
	rates   []float64
}

func encodeTable(name string, t *table.Table) (dataset, error) {
	var buf bytes.Buffer
	if err := t.WriteJSON(&buf); err != nil {
		return dataset{}, fmt.Errorf("encode %s: %w", name, err)
	}
	return dataset{name: name, data: buf.Bytes(), rows: t.NumRows()}, nil
}

func newStmt(sql, client, class, kind string) (stmt, error) {
	s := stmt{sql: sql, kind: kind}
	var err error
	req := server.SQLRequest{SQL: sql, Client: client, Class: class}
	if s.body, err = json.Marshal(req); err != nil {
		return s, fmt.Errorf("encode request: %w", err)
	}
	req.Options = &server.SQLOptions{Trace: true}
	if s.traced, err = json.Marshal(req); err != nil {
		return s, fmt.Errorf("encode request: %w", err)
	}
	return s, nil
}

// lit renders s as an SQL string literal.
func lit(s string) string { return "'" + strings.ReplaceAll(s, "'", "''") + "'" }

func prompt(dataset string, t query.Type) string {
	s, err := query.ForDataset(dataset, t)
	if err != nil {
		panic(err) // the registry is static; a missing entry is a bug
	}
	return lit(s.UserPrompt)
}

func promptOf(name string) string {
	s, err := query.ByName(name)
	if err != nil {
		panic(err) // the registry is static; a missing entry is a bug
	}
	return lit(s.UserPrompt)
}

// analyticsInputs builds the offline analyst job: Appendix-A-style
// statements (LLM filter, projection, two-call multi-LLM, aggregation) over
// all five relational datasets, plus a filter over each RAG dataset's
// retrieved (question, contexts) table. scale multiplies the paper's
// dataset sizes.
func analyticsInputs(seed int64, scale float64) (*inputs, error) {
	in := &inputs{}
	opt := datagen.Options{Scale: scale, Seed: seed}
	for _, name := range datagen.RelationalNames {
		d, err := datagen.RelationalByName(name, opt)
		if err != nil {
			return nil, err
		}
		ds, err := encodeTable(strings.ToLower(name), d.Table)
		if err != nil {
			return nil, err
		}
		in.datasets = append(in.datasets, ds)
	}
	// Retrieval tables: questions are far fewer than review rows at the
	// same scale factor, and each row carries 4-5 long contexts.
	ragOpt := datagen.Options{Scale: scale / 6, Seed: seed}
	for _, name := range datagen.RAGNames {
		d, err := datagen.RAGByName(name, ragOpt)
		if err != nil {
			return nil, err
		}
		t, err := query.BuildRAGTable(d)
		if err != nil {
			return nil, err
		}
		ds, err := encodeTable(strings.ToLower(name), t)
		if err != nil {
			return nil, err
		}
		in.datasets = append(in.datasets, ds)
	}
	sqls := []string{
		`SELECT movietitle FROM movies WHERE LLM(` + prompt("Movies", query.Filter) +
			`, movieinfo, reviewcontent, reviewtype, movietitle) = 'Yes'`,
		`SELECT LLM(` + prompt("Movies", query.Projection) + `, reviewcontent, movieinfo) AS summary FROM movies`,
		`SELECT movietitle, LLM(` + promptOf("movies-multi-projection") + `, movieinfo, reviewcontent) AS summary FROM movies WHERE LLM(` +
			prompt("Movies", query.MultiLLM) + `, reviewcontent) = 'NEGATIVE'`,
		`SELECT AVG(LLM(` + prompt("Movies", query.Aggregation) + `, movieinfo, reviewcontent)) AS score FROM movies`,
		`SELECT id FROM products WHERE LLM(` + prompt("Products", query.Filter) +
			`, description, product_title, review_title, text) = 'POSITIVE'`,
		`SELECT LLM(` + prompt("Products", query.Projection) + `, description, product_title, text) AS summary FROM products`,
		`SELECT id, LLM(` + promptOf("products-multi-projection") + `, description, text) AS summary FROM products WHERE LLM(` +
			prompt("Products", query.MultiLLM) + `, text) = 'NEGATIVE'`,
		`SELECT AVG(LLM(` + prompt("Products", query.Aggregation) + `, description, text)) AS score FROM products`,
		`SELECT PostId FROM bird WHERE LLM(` + prompt("BIRD", query.Filter) + `, Body, PostDate) = 'YES'`,
		`SELECT LLM(` + prompt("BIRD", query.Projection) + `, Text, Body) AS summary FROM bird`,
		`SELECT id FROM pdmx WHERE LLM(` + prompt("PDMX", query.Filter) +
			`, metadata, path, artistname, composername, songname, title) = 'YES'`,
		`SELECT LLM(` + prompt("PDMX", query.Projection) + `, genre, tags, metadata, path, songlength, ntracks) AS summary FROM pdmx`,
		`SELECT "beer/name" FROM beer WHERE LLM(` + prompt("Beer", query.Filter) +
			`, "beer/beerId", "beer/name", "beer/style", "review/overall") = 'YES'`,
		`SELECT LLM(` + prompt("Beer", query.Projection) + `, "beer/name", "beer/style", "review/taste") AS summary FROM beer`,
		`SELECT claim FROM fever WHERE LLM(` + lit("Do the pieces of evidence support the claim? Answer SUPPORTS or REFUTES.") +
			`, evidence1, evidence2, evidence3, evidence4, claim) = 'SUPPORTS'`,
		`SELECT question FROM squad WHERE LLM(` + lit("Can the question be answered from the contexts? Answer YES or NO.") +
			`, context1, context2, context3, context4, context5, question) = 'YES'`,
	}
	for i, sql := range sqls {
		s, err := newStmt(sql, "analyst", "batch", "job")
		if err != nil {
			return nil, err
		}
		in.stmts = append(in.stmts, s)
		in.order = append(in.order, i)
	}
	return in, nil
}

// dashboardTemplate is one dashboard panel's statement shape and its share
// of the traffic. gen draws the panel's parameters: Zipf ranks over column
// domains, or fresh literals.
type dashboardTemplate struct {
	kind   string
	weight float64
	gen    func(r *rand.Rand) string
}

// zipfPick draws from values (most frequent first) with Zipf parameter s.
func zipfPick(r *rand.Rand, values []string, s float64) string {
	if len(values) == 1 {
		return values[0]
	}
	z := rand.NewZipf(r, s, 1, uint64(len(values)-1))
	return values[z.Uint64()]
}

// domain lists a column's distinct values, most frequent first.
func domain(t *table.Table, col string) []string {
	ci, ok := t.ColIndex(col)
	if !ok {
		panic("perfbench: unknown column " + col) // static templates; a bug
	}
	vals, rows := t.DistinctValues(ci)
	sort.SliceStable(vals, func(i, j int) bool {
		if len(rows[vals[i]]) != len(rows[vals[j]]) {
			return len(rows[vals[i]]) > len(rows[vals[j]])
		}
		return vals[i] < vals[j]
	})
	return vals
}

// vocabulary lists the distinct words of a text column, most frequent first.
func vocabulary(t *table.Table, col string) []string {
	ci, ok := t.ColIndex(col)
	if !ok {
		panic("perfbench: unknown column " + col) // static templates; a bug
	}
	count := map[string]int{}
	for i := 0; i < t.NumRows(); i++ {
		for _, w := range strings.Fields(t.Cell(i, ci)) {
			w = strings.ToLower(strings.Trim(w, ".,;:!?'\""))
			if len(w) > 3 {
				count[w]++
			}
		}
	}
	words := make([]string, 0, len(count))
	for w := range count {
		words = append(words, w)
	}
	sort.Slice(words, func(i, j int) bool {
		if count[words[i]] != count[words[j]] {
			return count[words[i]] > count[words[j]]
		}
		return words[i] < words[j]
	})
	return words
}

// Dashboard sizing: the reference rate and the share of a run spent at
// it, and the rate ladder for max_rate_sps: ladderSteps steps of
// ladderStepShare of the run each, from ladderStart times the reference
// rate up by ladderGrowth per step. A run stops climbing at the first step
// that misses the latency limit.
const (
	dashboardRefRate  = 200.0
	dashboardRefShare = 0.4
	dashboardClients  = 8
	interactiveShare  = 0.8
	ladderStart       = 2.0
	ladderGrowth      = 1.15
	ladderSteps       = 9
	ladderStepShare   = 0.1
)

// dashboardInputs builds the many-tenant dashboard traffic: short
// statements over few-hundred-row tables drawn from panel templates with
// Zipf-skewed parameters, so exact repeats hit the result cache, panels
// sharing one LLM call under different plain filters exercise coalescing
// and in-flight dedup, and fresh literals miss the plan cache.
func dashboardInputs(seed int64, scale float64, seconds float64) (*inputs, error) {
	in := &inputs{}
	opt := datagen.Options{Scale: 0.02 * scale, Seed: seed}
	movies := datagen.Movies(opt).Table
	products := datagen.Products(opt).Table
	beer := datagen.Beer(datagen.Options{Scale: 0.01 * scale, Seed: seed}).Table
	for _, d := range []struct {
		name string
		t    *table.Table
	}{{"movies", movies}, {"products", products}, {"beer", beer}} {
		ds, err := encodeTable(d.name, d.t)
		if err != nil {
			return nil, err
		}
		in.datasets = append(in.datasets, ds)
	}
	kids := `LLM('Is this movie suitable for kids? Answer Yes or No.', movieinfo, movietitle) = 'Yes'`
	reviewTypes := domain(movies, "reviewtype")
	critics := domain(movies, "topcritic")
	genres := domain(movies, "genres")
	titles := domain(movies, "movietitle")
	ratings := domain(products, "rating")
	styles := domain(beer, "beer/style")
	// Ad-hoc questions draw from the column's most common words, so
	// concurrent questions often share a stage (coalescing, in-flight
	// dedup) while their titles keep bringing new rows.
	words := vocabulary(movies, "reviewcontent")
	words = words[:min(len(words), 200)]
	templates := []dashboardTemplate{
		{"shared-call", 0.2, func(r *rand.Rand) string {
			return `SELECT movietitle FROM movies WHERE reviewtype = ` + lit(zipfPick(r, reviewTypes, 1.5)) + ` AND ` + kids
		}},
		{"shared-call", 0.15, func(r *rand.Rand) string {
			return `SELECT movietitle, reviewtype FROM movies WHERE topcritic = ` + lit(zipfPick(r, critics, 1.5)) + ` AND ` + kids
		}},
		{"shared-call", 0.15, func(r *rand.Rand) string {
			return `SELECT COUNT(*) AS n FROM movies WHERE genres = ` + lit(zipfPick(r, genres, 1.2)) + ` AND ` + kids
		}},
		{"fresh-literal", 0.1, func(r *rand.Rand) string {
			return `SELECT product_title FROM products WHERE rating = ` + lit(zipfPick(r, ratings, 1.3)) +
				` AND LLM('Does the review praise the product? Answer Yes or No.', review_title, text) = 'Yes' LIMIT ` +
				fmt.Sprint(5+r.Intn(60))
		}},
		{"zipf-param", 0.15, func(r *rand.Rand) string {
			return `SELECT COUNT(*) AS n, AVG(LLM('Rate the review sentiment from 1 (bad) to 5 (good).', reviewcontent)) AS score FROM movies WHERE movietitle = ` +
				lit(zipfPick(r, titles, 1.1))
		}},
		{"zipf-param", 0.1, func(r *rand.Rand) string {
			return `SELECT "beer/name", LLM('Describe this beer in five words.', "beer/name", "beer/style") AS blurb FROM beer WHERE "beer/style" = ` +
				lit(zipfPick(r, styles, 1.2))
		}},
		{"fresh-question", 0.15, func(r *rand.Rand) string {
			return `SELECT reviewcontent FROM movies WHERE movietitle = ` + lit(titles[r.Intn(len(titles))]) +
				` AND LLM(` + lit("Does the review mention "+zipfPick(r, words, 1.1)+"? Answer Yes or No.") + `, reviewcontent) = 'Yes'`
		}},
	}
	r := rand.New(rand.NewSource(seed ^ 0x64617368))
	pool := map[string]int{} // statement text+identity -> index
	// Templates follow a smooth weighted round robin, so every run sends
	// each panel exactly its share; only the parameters are random.
	credit := make([]float64, len(templates))
	draw := func() (int, error) {
		pick := 0
		for i, c := range templates {
			credit[i] += c.weight
			if credit[i] > credit[pick] {
				pick = i
			}
		}
		credit[pick]--
		t := templates[pick]
		sql := t.gen(r)
		class := "interactive"
		if r.Float64() >= interactiveShare {
			class = "batch"
		}
		client := fmt.Sprintf("tenant-%d", r.Intn(dashboardClients))
		key := client + "\x00" + class + "\x00" + sql
		if i, ok := pool[key]; ok {
			return i, nil
		}
		s, err := newStmt(sql, client, class, t.kind)
		if err != nil {
			return 0, err
		}
		in.stmts = append(in.stmts, s)
		pool[key] = len(in.stmts) - 1
		return len(in.stmts) - 1, nil
	}
	poisson := func(rate float64, d time.Duration) ([]arrival, error) {
		var out []arrival
		at := time.Duration(0)
		for {
			at += time.Duration(-math.Log(1-r.Float64()) / rate * float64(time.Second))
			if at >= d {
				return out, nil
			}
			i, err := draw()
			if err != nil {
				return nil, err
			}
			out = append(out, arrival{at: at, stmt: i})
		}
	}
	in.refRate = dashboardRefRate * scale
	var err error
	if in.ref, err = poisson(in.refRate, time.Duration(seconds*dashboardRefShare*float64(time.Second))); err != nil {
		return nil, err
	}
	stepDur := time.Duration(seconds * ladderStepShare * float64(time.Second))
	rate := ladderStart * in.refRate
	for i := 0; i < ladderSteps; i, rate = i+1, rate*ladderGrowth {
		step, err := poisson(rate, stepDur)
		if err != nil {
			return nil, err
		}
		in.rates = append(in.rates, rate)
		in.ladder = append(in.ladder, step)
	}
	return in, nil
}
