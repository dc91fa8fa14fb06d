package backend

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Remote is the network Backend: it ships each BatchSpec to a cluster
// worker's POST /v1/batch endpoint and returns the worker's BatchResult.
// The driver-style seam was designed precisely so this drops in — answers
// are content-keyed above the seam, so a remote batch returns byte-identical
// relations; only the serving cost moves to another process.
//
// Context propagation: the caller's ctx rides the HTTP request, so a
// canceled statement aborts the in-flight request and the worker's engine
// stops between steps (the worker serves against its request context). A
// ctx deadline additionally travels as the Deadline-Ms header so the worker
// bounds its own run even if the connection lingers.
//
// One RunBatch is one round trip: Remote never retries. A worker's non-200
// answer comes back as a *RemoteError whose Transient and RetryAfter tell
// the caller — cluster.Router's attempt scheduler — whether and when
// another attempt could succeed; connect and decode errors are transient.
type Remote struct {
	addr   string
	url    string
	hc     *http.Client
	closed atomic.Bool
}

var _ Backend = (*Remote)(nil)

// DeadlineHeader carries the caller's remaining deadline budget in whole
// milliseconds on a /v1/batch request.
const DeadlineHeader = "X-Llmq-Deadline-Ms"

// RemoteConfig wires a Remote backend to one worker.
type RemoteConfig struct {
	// Addr is the worker's address: "host:port" or a full http(s) URL.
	Addr string
	// Client is the HTTP client to use; nil builds one with no overall
	// timeout (the per-batch ctx bounds each request).
	Client *http.Client
}

// NewRemote builds a Remote speaking to one worker. The address may be a
// bare host:port (http is assumed) or a full URL.
func NewRemote(cfg RemoteConfig) (*Remote, error) {
	if cfg.Addr == "" {
		return nil, fmt.Errorf("backend: remote backend needs a worker address")
	}
	base := cfg.Addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	base = strings.TrimRight(base, "/")
	hc := cfg.Client
	if hc == nil {
		hc = &http.Client{}
	}
	return &Remote{addr: cfg.Addr, url: base + "/v1/batch", hc: hc}, nil
}

// Addr reports the worker address this backend speaks to.
func (r *Remote) Addr() string { return r.addr }

// RemoteError is a worker's structured rejection: the /v1 error envelope
// plus the HTTP status it rode on. Status >= 500 (and connect errors, which
// produce no RemoteError) are transient — another attempt could succeed,
// and the failure counts against the worker's breaker; 4xx are
// deterministic and final.
type RemoteError struct {
	Addr    string
	Status  int
	Code    string
	Message string
	// RetryAfter is the worker's requested wait before the next attempt
	// (from the Retry-After header a draining 503 carries); zero means the
	// worker expressed no preference and the caller's own backoff applies.
	RetryAfter time.Duration
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("worker %s: %s (%s, http %d)", e.Addr, e.Message, e.Code, e.Status)
}

// Transient reports whether retrying the same batch could succeed.
func (e *RemoteError) Transient() bool { return e.Status >= 500 }

// wireEnvelope mirrors the /v1 error envelope without importing the server
// package (which imports this one).
type wireEnvelope struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// RunBatch ships the batch to the worker in one POST /v1/batch round trip
// and returns its result. The statement's trace gets a "remote" child span
// carrying the worker address.
func (r *Remote) RunBatch(ctx context.Context, spec BatchSpec) (BatchResult, error) {
	if err := ctx.Err(); err != nil {
		return BatchResult{}, err
	}
	if r.closed.Load() {
		return BatchResult{}, fmt.Errorf("backend: remote backend is closed")
	}
	body, err := json.Marshal(EncodeWireBatch(spec, ClientInfoFrom(ctx)))
	if err != nil {
		return BatchResult{}, fmt.Errorf("backend: encode wire batch: %w", err)
	}
	sp := obs.FromContext(ctx).Child("remote")
	sp.Set("worker", r.addr)
	sp.Set("requests", len(spec.Requests))
	defer sp.End()

	res, err := r.roundTrip(ctx, body)
	if err != nil {
		// The caller's own death surfaces as ctx.Err(), so the seam's
		// cancellation contract (return the context's error) holds.
		if ctxErr := ctx.Err(); ctxErr != nil {
			return BatchResult{}, ctxErr
		}
		sp.Set("error", err.Error())
		return BatchResult{}, err
	}
	sp.Set("modelCalls", res.ModelCalls)
	return res, nil
}

// roundTrip performs the POST /v1/batch request and decodes the answer.
func (r *Remote) roundTrip(ctx context.Context, body []byte) (BatchResult, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.url, bytes.NewReader(body))
	if err != nil {
		return BatchResult{}, fmt.Errorf("backend: build request: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	if dl, ok := ctx.Deadline(); ok {
		if ms := time.Until(dl).Milliseconds(); ms > 0 {
			req.Header.Set(DeadlineHeader, strconv.FormatInt(ms, 10))
		}
	}
	resp, err := r.hc.Do(req)
	if err != nil {
		return BatchResult{}, fmt.Errorf("backend: post %s: %w", r.url, err)
	}
	defer resp.Body.Close()
	const maxBody = 64 << 20
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxBody))
	if err != nil {
		return BatchResult{}, fmt.Errorf("backend: read %s response: %w", r.url, err)
	}
	if resp.StatusCode != http.StatusOK {
		re := &RemoteError{Addr: r.addr, Status: resp.StatusCode, Code: "internal"}
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			// Integer seconds per RFC 9110; fractional seconds are accepted
			// leniently so a fleet can ask for sub-second waits.
			if secs, err := strconv.ParseFloat(ra, 64); err == nil && secs > 0 {
				re.RetryAfter = time.Duration(secs * float64(time.Second))
			}
		}
		var env wireEnvelope
		if jsonErr := json.Unmarshal(data, &env); jsonErr == nil && env.Error.Code != "" {
			re.Code, re.Message = env.Error.Code, env.Error.Message
		} else {
			re.Message = strings.TrimSpace(string(data))
		}
		return BatchResult{}, re
	}
	var wr WireResult
	if err := json.Unmarshal(data, &wr); err != nil {
		return BatchResult{}, fmt.Errorf("backend: decode %s response: %w", r.url, err)
	}
	return BatchResult{Metrics: wr.Metrics, ModelCalls: wr.ModelCalls}, nil
}

// Close makes further RunBatch calls fail and releases idle connections.
// The worker process is not owned by this client and keeps running.
func (r *Remote) Close() error {
	if r.closed.Swap(true) {
		return nil
	}
	r.hc.CloseIdleConnections()
	return nil
}
