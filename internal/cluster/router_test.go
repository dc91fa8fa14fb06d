// Router tests run real worker HTTP stacks (internal/server muxes hosted on
// httptest) behind the cluster router and hold it to the seam contract:
// routed relations byte-identical to single-process runs, stage affinity
// that keeps one worker's persistent engines hot across batches, failover
// that degrades instead of failing, and conserved accounting throughout.
package cluster_test

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/cluster"
	"repro/internal/llmsim"
	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/sqlfront"
	"repro/internal/table"
	"repro/internal/tokenizer"
)

func ticketsTable(rows int) *table.Table {
	t := table.New("ticket_id", "region", "request", "response")
	regions := []string{"emea", "amer", "apac"}
	for i := 0; i < rows; i++ {
		t.MustAppendRow(
			fmt.Sprintf("T-%04d", i),
			regions[i%len(regions)],
			fmt.Sprintf("my device model %d stopped working after the update", i%7),
			fmt.Sprintf("we suggest resetting configuration profile %d and retrying", i%5),
		)
	}
	return t
}

func execWith(t *testing.T, be backend.Backend, sql string) *sqlfront.Result {
	t.Helper()
	db := sqlfront.NewDB()
	db.Register("tickets", ticketsTable(24))
	res, err := db.ExecContext(t.Context(), sql, sqlfront.ExecConfig{Config: query.Config{Backend: be}})
	if err != nil {
		t.Fatalf("%q: %v", sql, err)
	}
	return res
}

// startWorker hosts a full worker HTTP stack (the same mux llmqserve -worker
// serves) over the given local backend and returns its server.
func startWorker(be backend.Backend) (*httptest.Server, *server.Worker) {
	wk := server.NewWorker(be, nil)
	return httptest.NewServer(server.NewWithConfig(server.Config{Worker: wk})), wk
}

// newCluster boots n workers, each over its own backend from mk, and a
// router across them. Close order matters: router first, then workers.
func newCluster(t *testing.T, n int, mk func() backend.Backend, cfg cluster.Config) (*cluster.Router, []*httptest.Server) {
	t.Helper()
	var srvs []*httptest.Server
	for i := 0; i < n; i++ {
		srv, _ := startWorker(mk())
		srvs = append(srvs, srv)
		cfg.Workers = append(cfg.Workers, srv.URL)
	}
	rt, err := cluster.NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		rt.Close()
		for _, s := range srvs {
			s.Close()
		}
	})
	return rt, srvs
}

var clusterStatements = []string{
	`SELECT ticket_id, LLM('Did the response resolve the request?', request, response) AS ok
	 FROM tickets WHERE region = 'emea'`,
	`SELECT ticket_id FROM tickets
	 WHERE LLM('Is the request about a hardware fault?', request) = 'Yes' AND region <> 'apac'`,
	`SELECT region, COUNT(*) AS n, AVG(LLM('Rate the anger 1-5.', request)) AS anger
	 FROM tickets GROUP BY region ORDER BY n DESC, region`,
}

// TestClusterIdenticalRelations is the distributed tier's correctness bar:
// the same statements through a 2-worker cluster return relations and
// model-call counts byte-identical to the single-process oracle, and the
// batches demonstrably went over the wire.
func TestClusterIdenticalRelations(t *testing.T) {
	rt, _ := newCluster(t, 2, func() backend.Backend { return backend.NewSim() },
		cluster.Config{})
	for _, sql := range clusterStatements {
		want := execWith(t, nil, sql) // nil = single-process default backend
		got := execWith(t, rt, sql)
		if fmt.Sprint(got.Columns) != fmt.Sprint(want.Columns) {
			t.Errorf("%q: columns differ: %v vs %v", sql, got.Columns, want.Columns)
		}
		if fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) {
			t.Errorf("%q: rows differ\nwant %v\ngot  %v", sql, want.Rows, got.Rows)
		}
		if got.LLMCalls != want.LLMCalls {
			t.Errorf("%q: model calls = %d, oracle made %d", sql, got.LLMCalls, want.LLMCalls)
		}
	}
	var remote int64
	for _, wm := range rt.Metrics().Workers {
		remote += wm.Batches
	}
	if remote == 0 {
		t.Error("no remote batches recorded: statements did not go over the wire")
	}
}

// TestClusterStageAffinity pins the tentpole property: two batch windows
// sharing a stage key land on the SAME stage-affine worker, whose persistent
// engine carries the prefix cache across them — cumulative hit tokens
// strictly above the per-batch sim baseline, relations identical.
// Capacity 1 keeps fan-out width at 1 so whole batches follow the ring.
func TestClusterStageAffinity(t *testing.T) {
	stmts := []string{
		`SELECT ticket_id, LLM('Did the response resolve the request?', request, response) AS ok
		 FROM tickets WHERE region = 'emea'`,
		`SELECT ticket_id, LLM('Did the response resolve the request?', request, response) AS ok
		 FROM tickets WHERE region = 'amer'`,
	}
	run := func(be backend.Backend) (int64, []*sqlfront.Result) {
		rec := backend.NewRecording(be)
		var results []*sqlfront.Result
		for _, sql := range stmts {
			results = append(results, execWith(t, rec, sql))
		}
		var matched int64
		for _, b := range rec.Batches() {
			matched += b.Metrics.MatchedTokens
		}
		return matched, results
	}

	simHit, simRes := run(backend.NewSim())

	rt, _ := newCluster(t, 2, func() backend.Backend { return backend.NewPersistent(0) },
		cluster.Config{Capacity: 1})
	clusterHit, clusterRes := run(rt)

	if clusterHit <= simHit {
		t.Errorf("cluster hit tokens = %d, want strictly above per-batch sim's %d (stage affinity keeps the worker's engine warm)",
			clusterHit, simHit)
	}
	for i := range simRes {
		if fmt.Sprint(simRes[i].Rows) != fmt.Sprint(clusterRes[i].Rows) {
			t.Errorf("statement %d: relations differ between sim and cluster", i)
		}
	}

	serving := 0
	for addr, wm := range rt.Metrics().Workers {
		if wm.Batches > 0 {
			serving++
			t.Logf("worker %s served %d batches", addr, wm.Batches)
		}
	}
	if serving != 1 {
		t.Errorf("%d workers served the shared stage, want exactly 1 (stage-affine placement)", serving)
	}
	t.Logf("cumulative hit tokens: sim %d, cluster %d", simHit, clusterHit)
}

// TestClusterFailoverOnKilledWorker: killing the worker serving a stage
// mid-run degrades to failover — the next statement lands on the survivor
// with an identical relation — and the death is visible as a markdown.
func TestClusterFailoverOnKilledWorker(t *testing.T) {
	// Hedging is off: a hedge to the survivor could answer before the killed
	// worker's refused connection is reported, and a canceled race loser is
	// charged nothing, so the victim would never reach its breaker threshold.
	// Hedges are covered by hedge_test.go and the chaos suite.
	rt, srvs := newCluster(t, 2, func() backend.Backend { return backend.NewSim() },
		cluster.Config{Capacity: 1, HedgeAfter: -1})

	sql := clusterStatements[0]
	want := execWith(t, rt, sql)

	// Find and kill the worker that served the stage.
	var victim string
	for addr, wm := range rt.Metrics().Workers {
		if wm.Batches > 0 {
			victim = addr
		}
	}
	if victim == "" {
		t.Fatal("no worker served the first statement")
	}
	for _, s := range srvs {
		if s.URL == victim {
			s.Close()
		}
	}

	got := execWith(t, rt, sql)
	if fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) {
		t.Errorf("relation after failover differs\nwant %v\ngot  %v", want.Rows, got.Rows)
	}

	// A further statement places with the victim already marked down, so the
	// stage is served off its ring owner — a counted ring move.
	execWith(t, rt, sql)

	m := rt.Metrics()
	if wm := m.Workers[victim]; wm.Markdowns < 1 || !wm.Down {
		t.Errorf("killed worker %s = %+v, want marked down with Markdowns >= 1", victim, wm)
	}
	survived := false
	for addr, wm := range m.Workers {
		if addr != victim && wm.Batches > 0 {
			survived = true
		}
	}
	if !survived {
		t.Error("no surviving worker served the failed-over statement")
	}
	if m.RingMoves < 1 {
		t.Errorf("ring moves = %d, want >= 1 (stage served off its dead owner)", m.RingMoves)
	}
}

// clusterSpec hand-builds a grouped BatchSpec for seam-level router tests.
func clusterSpec(stageKey string, groups []int, promptLen, outTokens int) backend.BatchSpec {
	spec := backend.BatchSpec{StageKey: stageKey, Engine: llmsim.Config{
		Cost:         llmsim.CostModel{Model: llmsim.Llama3_8B, Cluster: llmsim.SingleL4},
		CacheEnabled: true,
	}}
	for _, n := range groups {
		spec.Groups = append(spec.Groups, len(spec.Requests))
		for i := 0; i < n; i++ {
			spec.Requests = append(spec.Requests, &llmsim.Request{
				ID:        len(spec.Requests),
				Prompt:    make([]tokenizer.Token, promptLen),
				OutTokens: outTokens,
			})
		}
	}
	return spec
}

// gateBackend blocks its first batch until released (later calls pass) and
// counts requests served — shared by both workers in the hot-replication
// test so the saturated primary and the replica hit one ledger.
type gateBackend struct {
	mu      sync.Mutex
	calls   int
	rows    int
	started chan struct{}
	release chan struct{}
}

func newGateBackend() *gateBackend {
	return &gateBackend{started: make(chan struct{}), release: make(chan struct{})}
}

func (g *gateBackend) RunBatch(ctx context.Context, spec backend.BatchSpec) (backend.BatchResult, error) {
	g.mu.Lock()
	g.calls++
	g.rows += len(spec.Requests)
	first := g.calls == 1
	g.mu.Unlock()
	if first {
		close(g.started)
		select {
		case <-g.release:
		case <-ctx.Done():
			return backend.BatchResult{}, ctx.Err()
		}
	}
	return backend.BatchResult{ModelCalls: len(spec.Requests)}, nil
}

func (g *gateBackend) Close() error { return nil }

// TestClusterHotStageReplication: with the stage's primary saturated
// (in-flight at the watermark), a grouped batch brings in the next ring node
// as a replica and spreads its parts — the hot stage trades one extra
// warm-up for parallelism, and the accounting stays conserved.
func TestClusterHotStageReplication(t *testing.T) {
	gate := newGateBackend()
	srvA, _ := startWorker(gate)
	srvB, _ := startWorker(gate) // same ledger: both workers serve from gate
	defer srvA.Close()
	defer srvB.Close()

	rt, err := cluster.NewRouter(cluster.Config{
		Workers:  []string{srvA.URL, srvB.URL},
		Capacity: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	// Batch 1 parks on the stage's primary, holding its in-flight gauge at
	// the watermark.
	firstDone := make(chan error, 1)
	go func() {
		_, err := rt.RunBatch(context.Background(), clusterSpec("hot", []int{4}, 16, 4))
		firstDone <- err
	}()
	<-gate.started

	// Batch 2, same stage, two groups: the saturated primary pulls in the
	// replica; width 2 sends one part to each worker.
	res, err := rt.RunBatch(context.Background(), clusterSpec("hot", []int{2, 2}, 16, 4))
	if err != nil {
		t.Fatalf("replicated batch: %v", err)
	}
	if res.ModelCalls != 4 {
		t.Errorf("replicated batch model calls = %d, want 4 (conserved across parts)", res.ModelCalls)
	}

	close(gate.release)
	if err := <-firstDone; err != nil {
		t.Fatalf("parked batch: %v", err)
	}

	m := rt.Metrics()
	if m.HotReplications != 1 {
		t.Errorf("hot replications = %d, want 1", m.HotReplications)
	}
	for addr, wm := range m.Workers {
		if wm.Batches == 0 {
			t.Errorf("worker %s served no batches: the replica never joined", addr)
		}
	}
	gate.mu.Lock()
	defer gate.mu.Unlock()
	if gate.rows != 8 {
		t.Errorf("workers served %d rows, want 8 (4 parked + 2+2 replicated)", gate.rows)
	}
}

// TestClusterRefusesDeadContext: the router honors the Backend contract's
// cancellation clause at entry.
func TestClusterRefusesDeadContext(t *testing.T) {
	rt, _ := newCluster(t, 2, func() backend.Backend { return backend.NewSim() },
		cluster.Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := rt.RunBatch(ctx, clusterSpec("any", []int{2}, 8, 4))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestClusterHealthRecovery: a worker that dies is marked down by the probe
// loop and recovers (marked up, serving again) once its /healthz answers —
// mark-down and mark-up both happen without any batch traffic.
func TestClusterHealthRecovery(t *testing.T) {
	be := backend.NewSim()
	defer be.Close()
	wk := server.NewWorker(be, nil)
	srv := httptest.NewServer(server.NewWithConfig(server.Config{Worker: wk}))
	defer srv.Close()

	rt, err := cluster.NewRouter(cluster.Config{
		Workers: []string{srv.URL},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	waitFor := func(desc string, pred func(cluster.WorkerMetrics) bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if pred(rt.Metrics().Workers[srv.URL]) {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("timed out waiting for worker to be %s", desc)
	}

	// Draining flips /healthz to 503: the probe loop marks the worker down.
	wk.SetDraining(true)
	waitFor("marked down", func(wm cluster.WorkerMetrics) bool { return wm.Down })

	// Un-draining restores 200: the next probe marks it back up.
	wk.SetDraining(false)
	waitFor("marked up", func(wm cluster.WorkerMetrics) bool { return !wm.Down })
}
