// Tests for backend.Remote's wire edges: Retry-After parsing and an expired
// X-Llmq-Deadline-Ms budget.
package backend_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/backend"
)

// flakyWorker answers statuses[i] to request i with a bare envelope (a 200
// beyond the list), counting hits.
type flakyWorker struct {
	statuses   []int // per-request status; requests beyond the list get 200
	retryAfter string
	hits       atomic.Int64
}

func (f *flakyWorker) handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := int(f.hits.Add(1)) - 1
		status := http.StatusOK
		if n < len(f.statuses) {
			status = f.statuses[n]
		}
		if status != http.StatusOK {
			if f.retryAfter != "" {
				w.Header().Set("Retry-After", f.retryAfter)
			}
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(status)
			_, _ = w.Write([]byte(`{"error":{"code":"unavailable","message":"flaky"}}`))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"metrics":{},"modelCalls":1}`))
	})
}

// TestRemoteHonorsRetryAfter: a worker's Retry-After — fractional seconds
// accepted — reaches the caller as RemoteError.RetryAfter after one round
// trip, for the router's scheduler to wait on.
func TestRemoteHonorsRetryAfter(t *testing.T) {
	fw := &flakyWorker{statuses: []int{503}, retryAfter: "0.1"}
	srv := httptest.NewServer(fw.handler())
	defer srv.Close()

	rem, err := backend.NewRemote(backend.RemoteConfig{Addr: srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	defer rem.Close()

	_, err = rem.RunBatch(context.Background(), accountingSpec([]int{1}, 10, 4))
	var re *backend.RemoteError
	if !errors.As(err, &re) || !re.Transient() {
		t.Fatalf("err = %v, want transient RemoteError (503)", err)
	}
	if re.RetryAfter != 100*time.Millisecond {
		t.Errorf("RetryAfter = %v, want 100ms", re.RetryAfter)
	}
	if got := fw.hits.Load(); got != 1 {
		t.Errorf("worker saw %d requests, want 1 (Remote never retries)", got)
	}
}

// TestRemoteExpiredDeadline: a statement whose deadline already passed
// never reaches the wire.
func TestRemoteExpiredDeadline(t *testing.T) {
	fw := &flakyWorker{}
	srv := httptest.NewServer(fw.handler())
	defer srv.Close()

	rem, err := backend.NewRemote(backend.RemoteConfig{Addr: srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	defer rem.Close()

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err = rem.RunBatch(ctx, accountingSpec([]int{1}, 10, 4))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if got := fw.hits.Load(); got != 0 {
		t.Errorf("worker saw %d requests, want 0 (expired deadline never dispatches)", got)
	}
}
