// Command llmqsql executes an LLM-SQL statement over CSV tables and/or the
// bundled benchmark datasets, on the serving simulator.
//
// Usage:
//
//	llmqsql -csv tickets.csv -table tickets \
//	   "SELECT ticket_id, LLM('Did it help?', support_response, request) FROM tickets"
//
//	llmqsql -dataset Movies -scale 0.05 \
//	   "SELECT movietitle FROM Movies WHERE LLM('Suitable for kids?', movieinfo, genres) = 'Yes'"
//
//	llmqsql -csv tickets=tickets.csv -csv customers=customers.csv \
//	   "SELECT t.ticket_id, c.region \
//	    FROM tickets AS t JOIN customers AS c ON t.customer_id = c.customer_id \
//	    WHERE c.tier = 'pro' AND LLM('Did it help?', t.support_response) = 'Yes'"
//
// Both -csv (name=path, or a bare path registered under -table) and
// -dataset repeat, so FROM clauses may join any mix of registrations with
// inner equi-joins, qualifying columns as alias.column. WHERE clauses are
// AND/OR/NOT trees over LLM and plain-column comparisons; SELECT lists admit
// COUNT/SUM/MIN/MAX/AVG aggregates, GROUP BY, and ORDER BY ... LIMIT.
// Statements run through the logical planner (table-local plain predicates
// pushed below the join, distinct LLM calls deduplicated, LLM filters
// cascaded cheapest-first); -naive disables the planner so its savings can
// be measured.
//
// The -policy flag switches scheduling (no-cache / cache-original /
// cache-ggr) without changing results; -backend picks the serving target
// ("sim" = one engine per stage batch, "persistent" = long-lived engine
// replicas whose prefix cache survives between this statement's stages that
// share a prompt, "sharded-sim"/"sharded-persistent" = the same behind a
// data-parallel fan-out, "remote" = a cluster router over the workers named
// by -cluster-workers) and -shards N composes a fan-out of up to N
// concurrent parts with the local backends: an in-process cluster router
// whose one member is the backend. None of these change results; serving
// statistics print on stderr.
//
// Statements run on the same multi-tenant runtime llmqserve serves from, so
// the identity knobs carry through: -client names the tenant the statement
// is accounted to and -class picks its service class ("interactive" or
// "batch" — the class selects the admission weight and coalescing window a
// server would apply; for this one-shot CLI it is mostly an accounting
// label). Neither changes results.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"

	"repro/internal/cluster"
	"repro/internal/datagen"
	"repro/internal/faults"
	"repro/internal/query"
	"repro/internal/runtime"
	"repro/internal/sqlfront"
	"repro/internal/table"
)

// repeatable collects every occurrence of a repeated string flag.
type repeatable []string

func (r *repeatable) String() string { return strings.Join(*r, ",") }

func (r *repeatable) Set(v string) error {
	*r = append(*r, v)
	return nil
}

func main() {
	var csvs, datasets repeatable
	flag.Var(&csvs, "csv", "CSV to register, as name=path or a bare path named by -table (repeatable)")
	flag.Var(&datasets, "dataset", "bundled dataset to register under its own name (repeatable)")
	var (
		tblName = flag.String("table", "t", "name for a bare-path -csv registration")
		scale   = flag.Float64("scale", 0.05, "dataset scale when -dataset is used")
		seed    = flag.Int64("seed", 1, "dataset seed")
		policy  = flag.String("policy", "cache-ggr", "no-cache, cache-original, or cache-ggr")
		naive   = flag.Bool("naive", false, "disable the logical planner (no pushdown, dedup, or cost-ordered filters)")
		client  = flag.String("client", "", "client identity the statement is accounted to (default anonymous)")
		class   = flag.String("class", "", "service class: interactive (default) or batch")
		beName  = flag.String("backend", "sim", "serving backend: sim, persistent, sharded-sim, sharded-persistent, or remote (cluster router; needs -cluster-workers)")
		shards  = flag.Int("shards", 1, "data-parallel part slots: >1 serves -backend through an in-process cluster router that splits each batch into up to this many concurrent parts (sharded-* backends default to 4)")
		workers = flag.String("cluster-workers", "", "comma-separated worker addresses for -backend remote")
		maxRows = flag.Int("max-rows", 20, "result rows to print (0 = all)")
		faultsF = flag.String("faults", "", "chaos fault-injection spec (see docs/API.md): faults the serving path — router→worker wire with -backend remote, the local backend otherwise")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "llmqsql: exactly one SQL statement argument is required")
		os.Exit(2)
	}
	if len(csvs) == 0 && len(datasets) == 0 {
		fmt.Fprintln(os.Stderr, "llmqsql: provide at least one -csv or -dataset")
		os.Exit(2)
	}

	db := sqlfront.NewDB()
	registered := map[string]bool{}
	register := func(name string, t *table.Table) {
		// Register is last-write-wins; a repeated name here is a typo that
		// would silently shadow an earlier table.
		if registered[name] {
			fatal(fmt.Errorf("table %q registered twice; give each -csv/-dataset a distinct name", name))
		}
		registered[name] = true
		db.Register(name, t)
	}
	for _, name := range datasets {
		d, err := datagen.RelationalByName(name, datagen.Options{Scale: *scale, Seed: *seed})
		if err != nil {
			fatal(err)
		}
		register(name, d.Table)
	}
	bare := 0
	for _, spec := range csvs {
		name, path := *tblName, spec
		if i := strings.IndexByte(spec, '='); i >= 0 {
			name, path = spec[:i], spec[i+1:]
			if name == "" || path == "" {
				fatal(fmt.Errorf("malformed -csv %q: want name=path", spec))
			}
		} else if bare++; bare > 1 {
			fatal(fmt.Errorf("only one bare-path -csv may use -table %q; name the others as name=path", *tblName))
		}
		f, err := os.Open(path)
		if err != nil {
			fatal(err)
		}
		t, err := table.ReadCSV(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		register(name, t)
	}

	var workerAddrs []string
	for _, a := range strings.Split(*workers, ",") {
		if a = strings.TrimSpace(a); a != "" {
			workerAddrs = append(workerAddrs, a)
		}
	}
	var injector *faults.Injector
	var clusterCfg cluster.Config
	if *faultsF != "" {
		var err error
		if injector, err = faults.Parse(*faultsF); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "llmqsql: CHAOS MODE, fault injection armed: %s\n", *faultsF)
		clusterCfg.HTTPClient = &http.Client{Transport: faults.NewRoundTripper(nil, injector)}
	}
	be, err := cluster.Resolve(*beName, *shards, workerAddrs, clusterCfg)
	if err != nil {
		fatal(err)
	}
	if injector != nil && *beName != "remote" {
		be = faults.NewBackend(be, injector)
	}
	defer be.Close()

	cls, err := runtime.ParseClass(*class)
	if err != nil {
		fatal(err)
	}

	// One-shot statements still go through the serving runtime, not straight
	// at db.ExecContext: the runtime is what carries client identity and service
	// class, so a CLI run is accounted exactly like a server request.
	rt := runtime.New(db, runtime.Config{Workers: 1, BatchWindow: -1, Backend: be})
	defer rt.Close()
	res, err := rt.ExecContext(context.Background(), flag.Arg(0), runtime.Options{
		Naive:  *naive,
		Policy: query.Policy(*policy),
		Client: runtime.ClientID(*client),
		Class:  cls,
	})
	if err != nil {
		fatal(err)
	}

	out := table.New(res.Columns...)
	n := len(res.Rows)
	if *maxRows > 0 && n > *maxRows {
		n = *maxRows
	}
	for _, row := range res.Rows[:n] {
		out.MustAppendRow(row...)
	}
	if err := out.WriteCSV(os.Stdout); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "%d rows (%d shown), %d LLM calls over %d stage(s)\n",
		len(res.Rows), n, res.LLMCalls, res.Stages)
	plan := "planned"
	if *naive {
		plan = "naive"
	}
	fmt.Fprintf(os.Stderr, "virtual serving time %.1fs, prefix hit rate %.1f%%, solver %.3fs (policy %s, %s)\n",
		res.JCT, 100*res.HitRate, res.SolverSeconds, *policy, plan)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "llmqsql: %v\n", err)
	os.Exit(1)
}
