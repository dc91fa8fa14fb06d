package runtime

import (
	"reflect"
	"testing"
	"time"
)

// TestBatcherMemberOrderDeterministic pins the canonical member order of a
// coalesced run: the same group's members flushed in arrival order and in
// reverse must build the same combined table, so the engine reports
// identical Metrics. Arrival order is goroutine timing; without the
// canonical order GGR's positional tie-breaking leaks it into the virtual
// clock.
func TestBatcherMemberOrderDeterministic(t *testing.T) {
	rt := New(newDB(72), Config{Workers: 3, BatchWindow: time.Hour})
	defer rt.Close()
	// Three disjoint slices of one stage: every statement owns its rows, so
	// the group always holds three members.
	stmts := hotStageStatements[:3]
	handles := make([]*Handle, len(stmts))
	for i, sql := range stmts {
		handles[i] = rt.SubmitContext(t.Context(), sql, Options{})
	}

	b := rt.batcher
	var g *group
	for deadline := time.Now().Add(10 * time.Second); g == nil; {
		if time.Now().After(deadline) {
			t.Fatal("the statements never coalesced into one three-member group")
		}
		b.mu.Lock()
		for _, cand := range b.groups {
			if len(cand.members) == len(stmts) {
				g = cand
				g.flushed = true // detach: the window timer must not run it
				g.timer.Stop()
				delete(b.groups, g.fp)
			}
		}
		b.mu.Unlock()
		time.Sleep(time.Millisecond)
	}

	// Release the parked statements first, so a failure below cannot
	// strand them; the members' rows stay readable after their run.
	b.run(g, g.members)
	for i, h := range handles {
		if _, err := h.Wait(); err != nil {
			t.Fatalf("statement %d: %v", i, err)
		}
	}

	// run closes each member's done channel, so every order gets copies.
	runOrder := func(order []int) *member {
		ms := make([]*member, len(order))
		for i, j := range order {
			src := g.members[j]
			ms[i] = &member{spec: src.spec, tbl: src.tbl, rows: src.rows, done: make(chan struct{})}
		}
		b.run(g, ms)
		if ms[0].err != nil {
			t.Fatal(ms[0].err)
		}
		return ms[0]
	}
	forward := runOrder([]int{0, 1, 2})
	reverse := runOrder([]int{2, 1, 0})
	if !reflect.DeepEqual(forward.batch.Metrics, reverse.batch.Metrics) {
		t.Errorf("member order changed the run's Metrics:\nforward %+v\nreverse %+v",
			forward.batch.Metrics, reverse.batch.Metrics)
	}
}
