package runtime

import (
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/sqlfront"
)

// refreshStatements is a dashboard refresh cycle whose statements share one
// LLM call (one stage fingerprint) over disjoint row sets: executed
// sequentially they land in consecutive batch windows, which is exactly the
// boundary a per-batch engine cannot carry prefix state across.
var refreshStatements = []string{
	dashboardStatements[0], // emea rows
	dashboardStatements[1], // amer rows, same LLM call
}

// runRefreshes executes the refresh cycle one statement at a time on a
// fresh runtime over be and returns the fleet metrics plus the relations.
func runRefreshes(tb testing.TB, be backend.Backend, rows int) (Metrics, []*sqlfront.Result) {
	tb.Helper()
	db := newDB(rows)
	rt := New(db, Config{Workers: 1, BatchWindow: 2 * time.Millisecond, Backend: be})
	defer rt.Close()
	var results []*sqlfront.Result
	for _, sql := range refreshStatements {
		res, err := rt.ExecContext(tb.Context(), sql, Options{})
		if err != nil {
			tb.Fatalf("%q: %v", sql, err)
		}
		results = append(results, res)
	}
	return rt.Metrics(), results
}

// TestPersistentBackendRaisesHitTokens pins the acceptance criterion of the
// Backend seam: across two consecutive batch windows sharing a stage
// fingerprint, the persistent backend's cumulative prefix-hit tokens are
// strictly above the per-batch-engine (sim) baseline — the second window
// finds the first window's prompt prefix still cached — while both backends
// make the same model calls and return byte-identical relations.
func TestPersistentBackendRaisesHitTokens(t *testing.T) {
	simBE := backend.NewSim()
	defer simBE.Close()
	perBE := backend.NewPersistent(0)
	defer perBE.Close()

	simM, simRes := runRefreshes(t, simBE, 36)
	perM, perRes := runRefreshes(t, perBE, 36)

	if perM.MatchedTokens <= simM.MatchedTokens {
		t.Errorf("persistent hit tokens = %d, want strictly above sim's %d",
			perM.MatchedTokens, simM.MatchedTokens)
	}
	if perM.LLMCalls != simM.LLMCalls {
		t.Errorf("model calls diverged: persistent %d, sim %d", perM.LLMCalls, simM.LLMCalls)
	}
	if perM.Batches < 2 {
		t.Fatalf("persistent run produced %d batches, want >= 2 windows", perM.Batches)
	}
	for i := range simRes {
		sameRelation(t, refreshStatements[i], simRes[i], perRes[i])
	}
	if perBE.Engines() != 1 {
		t.Errorf("live engines = %d, want 1 (both windows share one stage fingerprint)", perBE.Engines())
	}
	t.Logf("hit tokens over %d windows: sim %d, persistent %d (+%d)",
		perM.Batches, simM.MatchedTokens, perM.MatchedTokens, perM.MatchedTokens-simM.MatchedTokens)
}

// TestRuntimeBackendOverride checks Config.Backend wins over Exec.Backend:
// the runtime's configured backend is the one that sees every batch.
func TestRuntimeBackendOverride(t *testing.T) {
	rec := backend.NewRecording(nil)
	defer rec.Close()
	inner := backend.NewRecording(nil)
	defer inner.Close()

	db := newDB(12)
	cfg := Config{Workers: 1, Backend: rec}
	cfg.Exec.Backend = inner // must lose to Config.Backend
	rt := New(db, cfg)
	defer rt.Close()
	if _, err := rt.ExecContext(t.Context(), dashboardStatements[0], Options{}); err != nil {
		t.Fatal(err)
	}
	if len(rec.Batches()) == 0 {
		t.Error("configured backend saw no batches")
	}
	if len(inner.Batches()) != 0 {
		t.Error("Exec.Backend was used despite Config.Backend override")
	}
}
