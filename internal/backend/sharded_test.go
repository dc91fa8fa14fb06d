package backend_test

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/backend"
	"repro/internal/cluster"
	"repro/internal/query"
	"repro/internal/sqlfront"
)

// localBatches is the parts a static sharding router's in-process member
// has served.
func localBatches(r *cluster.Router) int64 { return r.Metrics().Workers["local"].Batches }

// TestShardedSplitsHotBatch drives one statement through static sharding
// (an in-process router) over a Recording tap and asserts the batch
// actually fanned out: several sub-batches, whose rows sum to the
// statement's model calls, all under one stage key, with the router's
// counters agreeing.
func TestShardedSplitsHotBatch(t *testing.T) {
	rec := backend.NewRecording(nil)
	sh, err := cluster.NewLocal(rec, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()

	res := execWith(t, sh, conformanceStatements[0], false)
	batches := rec.Batches()
	if len(batches) < 2 {
		t.Fatalf("sharded run recorded %d sub-batches, want >= 2 (no fan-out happened)", len(batches))
	}
	rows := 0
	keys := map[string]bool{}
	var jct float64
	for _, b := range batches {
		rows += b.Rows
		keys[b.StageKey] = true
		jct += b.Metrics.JCT
	}
	if rows != res.LLMCalls {
		t.Errorf("sub-batch rows sum to %d, statement reported %d model calls", rows, res.LLMCalls)
	}
	if len(keys) != 1 {
		t.Errorf("sub-batches spread over %d stage keys, want 1 (shards share the stage)", len(keys))
	}
	if got := localBatches(sh); got != int64(len(batches)) {
		t.Errorf("in-process member served %d parts, recording saw %d sub-batches", got, len(batches))
	}
	if jct <= 0 {
		t.Error("no per-shard JCT accounted")
	}
}

// TestShardedPassthrough pins the unsplit paths: one shard, or a batch
// without group annotations, runs exactly one inner batch.
func TestShardedPassthrough(t *testing.T) {
	rec := backend.NewRecording(nil)
	sh, err := cluster.NewLocal(rec, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	execWith(t, sh, conformanceStatements[0], false)
	if n := len(rec.Batches()); n != 1 {
		t.Fatalf("shards=1 recorded %d batches, want 1 (passthrough)", n)
	}
	if got := localBatches(sh); got != 1 {
		t.Errorf("passthrough served %d parts, want 1", got)
	}
}

// TestNewShardedRejectsBadCount pins the shards >= 1 contract.
func TestNewShardedRejectsBadCount(t *testing.T) {
	for _, n := range []int{0, -1} {
		if _, err := cluster.NewLocal(backend.NewSim(), n); err == nil {
			t.Errorf("NewLocal(_, %d) succeeded, want error", n)
		}
	}
}

// failNthBackend fails its nth RunBatch with a distinctive error and
// delegates the rest, so exactly one shard of a fan-out dies for a real
// (non-cancellation) reason.
type failNthBackend struct {
	inner backend.Backend
	n     int32
	calls atomic.Int32
}

var errShardBoom = errors.New("shard backend exploded")

func (f *failNthBackend) RunBatch(ctx context.Context, spec backend.BatchSpec) (backend.BatchResult, error) {
	if f.calls.Add(1) == f.n {
		return backend.BatchResult{}, errShardBoom
	}
	return f.inner.RunBatch(ctx, spec)
}

func (f *failNthBackend) Close() error { return f.inner.Close() }

// TestShardedSurfacesRealShardError pins the failure path: when one shard
// fails for a real reason, the cancellation it induces in peer shards must
// not mask the root cause — the statement fails with the shard's error, not
// context.Canceled.
func TestShardedSurfacesRealShardError(t *testing.T) {
	inner := &failNthBackend{inner: backend.NewSim(), n: 1}
	sh, err := cluster.NewLocal(inner, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	db := sqlfront.NewDB()
	db.Register("tickets", ticketsTable(24))
	_, err = db.ExecContext(t.Context(), conformanceStatements[0], sqlfront.ExecConfig{
		Config: query.Config{Backend: sh},
	})
	if err == nil {
		t.Fatal("statement succeeded with a failing shard")
	}
	if !errors.Is(err, errShardBoom) {
		t.Fatalf("err = %v, want the failing shard's own error", err)
	}
	if errors.Is(err, context.Canceled) {
		t.Fatalf("real shard failure surfaced as cancellation: %v", err)
	}
}

// TestShardedPreservesHitTokens quantifies the prefix-coherence argument at
// the seam: sharding a hot statement must keep at least 90% of the
// unsharded run's matched prefix tokens (the only loss is each shard
// re-warming the fixed prompt prefix), while relations stay identical.
func TestShardedPreservesHitTokens(t *testing.T) {
	run := func(be backend.Backend) (int64, *sqlfront.Result) {
		rec := backend.NewRecording(be)
		defer rec.Close()
		// A hot batch large enough that the per-shard prompt-prefix warm-up
		// (the one constant cost sharding adds) is amortized, as it is in
		// the serving workloads sharding exists for.
		db := sqlfront.NewDB()
		db.Register("tickets", ticketsTable(96))
		sql := `SELECT ticket_id, LLM('Did the response resolve the request?', request, response) AS ok
		        FROM tickets`
		res, err := db.ExecContext(t.Context(), sql, sqlfront.ExecConfig{Config: query.Config{Backend: rec}})
		if err != nil {
			t.Fatal(err)
		}
		var matched int64
		for _, b := range rec.Batches() {
			matched += b.Metrics.MatchedTokens
		}
		return matched, res
	}
	baseHit, baseRes := run(backend.NewSim())
	sh, err := cluster.NewLocal(backend.NewSim(), 4)
	if err != nil {
		t.Fatal(err)
	}
	shardHit, shardRes := run(sh)
	if fmt.Sprint(baseRes.Rows) != fmt.Sprint(shardRes.Rows) {
		t.Error("sharded relation differs from unsharded")
	}
	if min := baseHit * 9 / 10; shardHit < min {
		t.Errorf("sharded hit tokens = %d, want >= 90%% of unsharded %d", shardHit, baseHit)
	}
	t.Logf("hit tokens: unsharded %d, sharded %d", baseHit, shardHit)
}
