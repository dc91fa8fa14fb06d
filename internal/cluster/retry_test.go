// Retry tests on a one-worker fleet: with a single candidate the first pass
// is the first attempt, so every later attempt is a budgeted revisit. These
// pin the retry half of the attempt scheduler — conservation, final 4xx,
// Retry-After, deadlines and the router-wide budget.
package cluster_test

import (
	"context"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/cluster"
	"repro/internal/server"
)

// flakyWorker answers its next fail requests with a bare error envelope and
// every other one with a minimal 200 WireResult, counting hits.
type flakyWorker struct {
	fail       atomic.Int64 // requests left to fail
	status     int          // failure status (0 = 503)
	retryAfter string
	hits       atomic.Int64
}

func (f *flakyWorker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.hits.Add(1)
	w.Header().Set("Content-Type", "application/json")
	if f.fail.Add(-1) >= 0 {
		status := f.status
		if status == 0 {
			status = http.StatusServiceUnavailable
		}
		if f.retryAfter != "" {
			w.Header().Set("Retry-After", f.retryAfter)
		}
		w.WriteHeader(status)
		_, _ = w.Write([]byte(`{"error":{"code":"unavailable","message":"flaky"}}`))
		return
	}
	_, _ = w.Write([]byte(`{"metrics":{},"modelCalls":1}`))
}

// oneWorkerRouter hosts h and routes to it alone.
func oneWorkerRouter(t *testing.T, h http.Handler) (*cluster.Router, string) {
	t.Helper()
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	rt, err := cluster.NewRouter(cluster.Config{Workers: []string{srv.URL}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Close() })
	return rt, srv.URL
}

// onePart is a single-group batch: it never fans out, so it is one part.
func onePart() backend.BatchSpec { return clusterSpec("retry-stage", []int{1}, 10, 4) }

// TestRouterRetryConservation: a worker whose first answer is a transient
// 500 costs exactly one retry, and accounting is conserved — the worker's
// engine serves the part once and the result counts it once.
func TestRouterRetryConservation(t *testing.T) {
	rec := backend.NewRecording(backend.NewSim())
	workerMux := server.NewWithConfig(server.Config{Worker: server.NewWorker(rec, nil)})
	var posts atomic.Int64
	rt, addr := oneWorkerRouter(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/batch" && posts.Add(1) == 1 {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusInternalServerError)
			_, _ = w.Write([]byte(`{"error":{"code":"internal","message":"transient fault"}}`))
			return
		}
		workerMux.ServeHTTP(w, r)
	}))

	spec := clusterSpec("conserve-stage", []int{5}, 40, 8)
	want, err := backend.NewSim().RunBatch(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rt.RunBatch(context.Background(), spec)
	if err != nil {
		t.Fatalf("RunBatch after transient 500: %v", err)
	}
	if res.ModelCalls != want.ModelCalls || res.Metrics.PromptTokens != want.Metrics.PromptTokens {
		t.Errorf("result = %d calls / %d prompt tokens, want %d / %d (one serve, conserved)",
			res.ModelCalls, res.Metrics.PromptTokens, want.ModelCalls, want.Metrics.PromptTokens)
	}
	if got := posts.Load(); got != 2 {
		t.Errorf("worker saw %d POSTs, want 2 (one failure + one retry)", got)
	}
	if got := len(rec.Batches()); got != 1 {
		t.Errorf("worker engine served %d batches, want exactly 1", got)
	}
	if wm := rt.Metrics().Workers[addr]; wm.Batches != 1 || wm.Retries != 1 || wm.Errors != 1 {
		t.Errorf("worker metrics = %+v, want Batches 1, Retries 1, Errors 1", wm)
	}
}

// TestRouterRejectionNotRetried: a 4xx envelope is final — one attempt, no
// retry, and the error keeps the worker's structured code.
func TestRouterRejectionNotRetried(t *testing.T) {
	fw := &flakyWorker{status: http.StatusBadRequest}
	fw.fail.Store(100)
	rt, addr := oneWorkerRouter(t, fw)

	_, err := rt.RunBatch(context.Background(), onePart())
	var re *backend.RemoteError
	if !errors.As(err, &re) || re.Status != http.StatusBadRequest || re.Transient() {
		t.Fatalf("err = %v, want a final 400 RemoteError", err)
	}
	if got := fw.hits.Load(); got != 1 {
		t.Errorf("worker saw %d requests, want 1 (4xx is not retried)", got)
	}
	if wm := rt.Metrics().Workers[addr]; wm.Errors != 1 || wm.Retries != 0 {
		t.Errorf("worker metrics = %+v, want Errors 1, Retries 0", wm)
	}
}

// TestRouterDrainingWorkerRetried: a draining worker's 503 is transient, so
// the part revisits it after the 1s Retry-After the worker asked for; each
// refusal counts as an error and each revisit as a retry, and the part
// fails with the worker's 503 once the next wait would outlive its
// deadline. Nothing is served.
func TestRouterDrainingWorkerRetried(t *testing.T) {
	rec := backend.NewRecording(backend.NewSim())
	wk := server.NewWorker(rec, nil)
	wk.SetDraining(true)
	rt, addr := oneWorkerRouter(t, server.NewWithConfig(server.Config{Worker: wk}))

	ctx, cancel := context.WithTimeout(context.Background(), 1500*time.Millisecond)
	defer cancel()
	_, err := rt.RunBatch(ctx, onePart())
	var re *backend.RemoteError
	if !errors.As(err, &re) || re.Status != http.StatusServiceUnavailable {
		t.Fatalf("err = %v, want the draining worker's 503", err)
	}
	if got := len(rec.Batches()); got != 0 {
		t.Errorf("draining worker served %d batches, want 0", got)
	}
	wm := rt.Metrics().Workers[addr]
	if wm.Retries < 1 || wm.Errors != wm.Retries+1 || wm.Batches != 0 {
		t.Errorf("worker metrics = %+v, want >= 1 retry and one error per attempt", wm)
	}
}

// TestRouterHonorsRetryAfter: a worker's Retry-After wins over the router's
// own (much shorter) backoff — the wait between attempts is the worker's.
func TestRouterHonorsRetryAfter(t *testing.T) {
	fw := &flakyWorker{retryAfter: "0.1"}
	fw.fail.Store(2)
	rt, addr := oneWorkerRouter(t, fw)

	start := time.Now()
	if _, err := rt.RunBatch(context.Background(), onePart()); err != nil {
		t.Fatal(err)
	}
	// Two 503s each asked for 100ms; the 25ms backoff alone would finish in
	// well under that.
	if el := time.Since(start); el < 180*time.Millisecond {
		t.Errorf("retries took %v, want >= 180ms (two 100ms Retry-After waits honored)", el)
	}
	if got := fw.hits.Load(); got != 3 {
		t.Errorf("worker saw %d requests, want 3", got)
	}
	if wm := rt.Metrics().Workers[addr]; wm.Retries != 2 || wm.Batches != 1 {
		t.Errorf("worker metrics = %+v, want Retries 2, Batches 1", wm)
	}
}

// TestRouterExpiredDeadline: a batch whose deadline already passed never
// reaches the wire.
func TestRouterExpiredDeadline(t *testing.T) {
	fw := &flakyWorker{}
	rt, _ := oneWorkerRouter(t, fw)

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := rt.RunBatch(ctx, onePart()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if got := fw.hits.Load(); got != 0 {
		t.Errorf("worker saw %d requests, want 0 (expired deadline never dispatches)", got)
	}
}

// TestRouterRetryNeverSleepsPastDeadline: when the next retry's wait is
// longer than the remaining deadline, the part fails at once with the last
// failure instead of sleeping into the deadline.
func TestRouterRetryNeverSleepsPastDeadline(t *testing.T) {
	fw := &flakyWorker{retryAfter: "1"} // far beyond the deadline
	fw.fail.Store(4)
	rt, _ := oneWorkerRouter(t, fw)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel()
	_, err := rt.RunBatch(ctx, onePart())
	if ctx.Err() != nil {
		t.Errorf("the part returned only at its deadline: the retry slept into it (err = %v)", err)
	}
	var re *backend.RemoteError
	if !errors.As(err, &re) || !re.Transient() {
		t.Fatalf("err = %v, want the worker's transient 503", err)
	}
	if got := fw.hits.Load(); got != 1 {
		t.Errorf("worker saw %d requests, want 1 (no retry fits inside the deadline)", got)
	}
}

// drainBudget runs always-failing parts (1ms Retry-After) until the
// router-wide budget denies a retry, checking each part's attempts against
// a model of the bucket, and returns the model's remaining tokens.
func drainBudget(t *testing.T, rt *cluster.Router, fw *flakyWorker) float64 {
	t.Helper()
	fw.fail.Store(math.MaxInt32)
	tokens := float64(cluster.BudgetBurst)
	for part := 1; part <= 10; part++ {
		tokens = math.Min(tokens+cluster.BudgetRatio, cluster.BudgetBurst)
		wantHits := fw.hits.Load() + 1 // the first attempt is free
		denied := false
		for range cluster.MaxAttempts - 1 {
			if tokens < 1 {
				denied = true
				break
			}
			tokens--
			wantHits++
		}
		_, err := rt.RunBatch(context.Background(), onePart())
		if got := errors.Is(err, cluster.ErrRetryBudgetExhausted); got != denied {
			t.Fatalf("part %d: err = %v, budget exhausted = %v, want %v", part, err, got, denied)
		}
		if got := fw.hits.Load(); got != wantHits {
			t.Fatalf("part %d: worker saw %d requests in total, want %d", part, got, wantHits)
		}
		if denied {
			fw.fail.Store(0)
			return tokens
		}
	}
	t.Fatal("ten always-failing parts never exhausted the budget")
	return 0
}

// TestRouterRetryBudgetExhausted: revisits spend the router-wide budget, and
// once it is empty a retryable failure fails fast with the distinct budget
// error after its single free attempt; the denial is counted.
func TestRouterRetryBudgetExhausted(t *testing.T) {
	fw := &flakyWorker{retryAfter: "0.001"}
	rt, addr := oneWorkerRouter(t, fw)
	drainBudget(t, rt, fw)
	if wm := rt.Metrics().Workers[addr]; wm.BudgetDenied != 1 {
		t.Errorf("worker metrics = %+v, want BudgetDenied 1", wm)
	}
}

// TestRouterRetryBudgetRefills: every part deposits, so enough successful
// traffic re-arms a drained budget and a transient failure is retried again.
func TestRouterRetryBudgetRefills(t *testing.T) {
	fw := &flakyWorker{retryAfter: "0.001"}
	rt, addr := oneWorkerRouter(t, fw)
	tokens := drainBudget(t, rt, fw)
	for ; tokens < 1; tokens += cluster.BudgetRatio {
		if _, err := rt.RunBatch(context.Background(), onePart()); err != nil {
			t.Fatalf("healthy part: %v", err)
		}
	}
	retries := rt.Metrics().Workers[addr].Retries
	fw.fail.Store(1)
	if _, err := rt.RunBatch(context.Background(), onePart()); err != nil {
		t.Fatalf("refilled budget did not buy a retry: %v", err)
	}
	if got := rt.Metrics().Workers[addr].Retries - retries; got != 1 {
		t.Errorf("retries = %d, want 1", got)
	}
}
