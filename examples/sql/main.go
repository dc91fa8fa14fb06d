// SQL runs the paper's Appendix A queries verbatim through the LLM-SQL
// front end, showing that the reordering optimization is transparent to the
// SQL user: same results, different serving cost. It then runs a statement
// using the grown dialect — boolean WHERE trees, GROUP BY, ORDER BY/LIMIT —
// both through the logical planner and naively, showing that predicate
// pushdown and LLM-call dedup cut model invocations without changing the
// result relation. Finally it joins two tables and filters with two LLM
// predicates, showing join pushdown plus cost-ordered filter cascading cut
// both calls and serving time against the naive plan of the same statement.
//
//	go run ./examples/sql
package main

import (
	"context"
	"fmt"
	"log"
	"strconv"
	"time"

	"repro/internal/datagen"
	"repro/internal/query"
	"repro/internal/runtime"
	"repro/internal/sqlfront"
	"repro/internal/table"
)

func main() {
	ctx := context.Background()
	movies := datagen.Movies(datagen.Options{Scale: 0.01, Seed: 4})
	db := sqlfront.NewDB()
	db.Register("MOVIES", movies.Table)

	queries := []struct{ title, sql string }{
		{"LLM filter (T1)", `
SELECT movietitle FROM MOVIES
WHERE LLM('Given the following fields, determine whether the movie is suitable for kids. Answer ONLY with "Yes" or "No".',
          movieinfo, reviewcontent, reviewtype, movietitle) = 'Yes'`},
		{"LLM projection (T2)", `
SELECT LLM('Given the following information, summarize good qualities in this movie that led to a favorable rating.',
           reviewcontent, movieinfo) FROM MOVIES`},
		{"LLM aggregation (T4)", `
SELECT AVG(LLM('Rate sentiment in numerical values from 1 (bad) to 5 (good).', reviewcontent, movieinfo)) AS AverageScore
FROM MOVIES`},
	}

	for _, q := range queries {
		fmt.Printf("=== %s ===\n", q.title)
		for _, p := range []query.Policy{query.CacheOriginal, query.CacheGGR} {
			res, err := db.ExecContext(ctx, q.sql, sqlfront.ExecConfig{Config: query.Config{Policy: p}})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %-16s rows=%-5d serving=%7.1fs  hit rate=%5.1f%%  solver=%.3fs\n",
				p, len(res.Rows), res.JCT, 100*res.HitRate, res.SolverSeconds)
		}
		fmt.Println()
	}
	fmt.Println("Identical result relations under every policy; only the serving")
	fmt.Println("cost changes — the optimization never alters query semantics.")
	fmt.Println()

	// The grown dialect: a plain-column predicate AND-joined with an LLM
	// filter, a repeated LLM aggregate (deduplicated to one stage), GROUP
	// BY, and ORDER BY ... LIMIT. The planner pushes reviewtype = 'Fresh'
	// ahead of both model stages and runs the repeated sentiment call once.
	grown := `
SELECT genres, COUNT(*) AS n,
       AVG(LLM('Rate sentiment from 1 (bad) to 5 (good).', reviewcontent)) AS score,
       MAX(LLM('Rate sentiment from 1 (bad) to 5 (good).', reviewcontent)) AS best
FROM MOVIES
WHERE reviewtype = 'Fresh' AND LLM('Is the movie suitable for kids?', movieinfo) = 'Yes'
GROUP BY genres ORDER BY n DESC LIMIT 5`

	fmt.Println("=== Grown dialect: planner vs naive ===")
	for _, naive := range []bool{false, true} {
		cfg := sqlfront.ExecConfig{Config: query.Config{Policy: query.CacheGGR}, Naive: naive}
		res, err := db.ExecContext(ctx, grown, cfg)
		if err != nil {
			log.Fatal(err)
		}
		mode := "planned"
		if naive {
			mode = "naive  "
		}
		fmt.Printf("  %s groups=%-3d stages=%d  LLM calls=%-5d serving=%7.1fs\n",
			mode, len(res.Rows), res.Stages, res.LLMCalls, res.JCT)
	}
	fmt.Println("Predicate pushdown prunes rows before any model call and the")
	fmt.Println("repeated sentiment call runs one stage instead of two.")
	fmt.Println()

	// Multi-table: tickets join their customers; the tier predicate is
	// pushed below the join, and of the two LLM filters — written
	// expensive-first — the planner runs the cheap, selective region filter
	// first, so the long request/response filter pays only for its
	// survivors. The naive plan joins everything and runs both filters over
	// every joined row in occurrence order.
	tickets := table.New("ticket_id", "customer_id", "request", "response")
	for i := 0; i < 120; i++ {
		tickets.MustAppendRow(
			"T-"+strconv.Itoa(1000+i),
			"C-"+strconv.Itoa(i%24),
			fmt.Sprintf("A long, detailed request %d describing an account issue with plenty of context to read", i),
			fmt.Sprintf("A long support response %d walking through each remediation step in detail", i),
		)
	}
	customers := table.New("customer_id", "tier", "region")
	for i := 0; i < 24; i++ {
		tier := "free"
		if i%2 == 0 {
			tier = "pro"
		}
		customers.MustAppendRow("C-"+strconv.Itoa(i), tier, "region-"+strconv.Itoa(i))
	}
	jdb := sqlfront.NewDB()
	jdb.Register("tickets", tickets)
	jdb.Register("customers", customers)

	joinSQL := `
SELECT t.ticket_id, c.region
FROM tickets AS t JOIN customers AS c ON t.customer_id = c.customer_id
WHERE LLM('Does the response fully resolve the request?', t.request, t.response) = 'Yes'
  AND c.tier = 'pro'
  AND LLM('Is this a priority region?', c.region) = 'Yes'`

	fmt.Println("=== Two-table join: cost-ordered LLM filters vs naive ===")
	for _, naive := range []bool{false, true} {
		cfg := sqlfront.ExecConfig{Config: query.Config{Policy: query.CacheGGR}, Naive: naive}
		res, err := jdb.ExecContext(ctx, joinSQL, cfg)
		if err != nil {
			log.Fatal(err)
		}
		mode := "planned"
		if naive {
			mode = "naive  "
		}
		fmt.Printf("  %s rows=%-4d stages=%d  LLM calls=%-5d serving=%7.1fs\n",
			mode, len(res.Rows), res.Stages, res.LLMCalls, res.JCT)
	}
	fmt.Println("Same joined relation either way; the planner pushes the tier")
	fmt.Println("predicate below the join and cascades the cheap region filter")
	fmt.Println("ahead of the expensive request/response one.")
	fmt.Println()

	// Multi-tenant serving: the same statements through the concurrent
	// runtime, each on behalf of a named client in a service class — the
	// shape /v1/sql's request envelope carries ({"sql": ..., "client":
	// "dashboard", "class": "interactive", "options": {...}}). An analytics
	// tenant floods the admission queue with batch-class statements while a
	// dashboard runs one interactive statement against the backlog;
	// weighted-fair admission serves the dashboard ahead of the flood, and
	// the metrics snapshot accounts each tenant separately.
	fmt.Println("=== Multi-tenant runtime: batch flood vs one interactive statement ===")
	rt := runtime.New(jdb, runtime.Config{Workers: 1})
	var handles []*runtime.Handle
	for i := 0; i < 30; i++ {
		handles = append(handles, rt.SubmitContext(ctx,
			fmt.Sprintf(`SELECT ticket_id, LLM('Sweep %d: does the response resolve the request?', request, response) AS ok FROM tickets`, i),
			runtime.Options{Client: "analytics", Class: runtime.ClassBatch}))
	}
	start := time.Now()
	if _, err := rt.ExecContext(ctx,
		`SELECT t.ticket_id FROM tickets AS t WHERE LLM('Is this request urgent?', t.request) = 'Yes'`,
		runtime.Options{Client: "dashboard", Class: runtime.ClassInteractive}); err != nil {
		log.Fatal(err)
	}
	dashLatency := time.Since(start)
	for _, h := range handles {
		if _, err := h.Wait(); err != nil {
			log.Fatal(err)
		}
	}
	m := rt.Metrics()
	rt.Close()
	for _, who := range []runtime.ClientID{"dashboard", "analytics"} {
		c := m.Clients[who]
		fmt.Printf("  %-10s statements=%-3d LLM calls=%-5d queue wait=%6.1fms\n",
			who, c.Statements, c.LLMCalls, 1000*c.QueueWaitSeconds)
	}
	fmt.Printf("  dashboard wall latency %v against a %d-statement batch backlog\n",
		dashLatency.Round(time.Millisecond), len(handles))
	fmt.Println("Fair admission serves the interactive tenant ahead of the flood;")
	fmt.Println("per-client accounting shows who spent the model calls.")
}
