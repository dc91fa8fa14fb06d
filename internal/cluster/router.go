package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backend"
	"repro/internal/obs"
)

// Config sizes a Router. The dispatch policy itself — attempt order, the
// retry budget, backoff, the breaker's thresholds and the health-probe
// period — is fixed; docs/API.md ("Failure semantics") describes it.
type Config struct {
	// Workers are the fleet's /v1/batch addresses ("host:port" or full
	// URLs). At least one is required.
	Workers []string
	// Capacity is a worker's nominal concurrent-part budget, the unit the
	// fan-out and hot-replication decisions are made in: a stage's primary
	// holding Capacity parts counts as saturated and the batch also
	// considers the next ring node (default 4).
	Capacity int
	// HedgeAfter is the hedge delay: a part without an answer after this
	// long also launches on its next first-pass candidate, and the first
	// answer wins. Zero derives the delay from the router's observed p99
	// batch latency; negative disables hedging.
	HedgeAfter time.Duration
	// HTTPClient is shared by batch dispatch and health probes; nil builds
	// a default client. Chaos runs mount a faults.RoundTripper here.
	HTTPClient *http.Client
}

func (c Config) capacity() int {
	if c.Capacity > 0 {
		return c.Capacity
	}
	return 4
}

// The fixed dispatch policy.
const (
	// maxAttempts caps one part's attempts: its first pass over the
	// candidates plus budgeted revisits.
	maxAttempts = 6
	// retryBackoff is the first revisit's base wait, doubled per revisit
	// and equal-jittered; a worker's Retry-After overrides it.
	retryBackoff = 25 * time.Millisecond
	// budgetRatio tokens are deposited per part, up to budgetBurst; every
	// revisit and every hedge withdraws one. The bucket starts full so a
	// cold router can still ride out a short fault burst.
	budgetRatio = 0.2
	budgetBurst = 10
	// healthInterval is the period between health sweeps; healthTimeout
	// bounds one probe.
	healthInterval = 2 * time.Second
	healthTimeout  = 500 * time.Millisecond
	// defaultHedgeDelay is the adaptive hedge delay before any latency
	// samples exist — deliberately conservative so a cold router does not
	// hedge its first batches.
	defaultHedgeDelay = 250 * time.Millisecond
	// latencyWindow is the reservoir size the adaptive hedge delay derives
	// its p99 from.
	latencyWindow = 128
)

// ErrRetryBudgetExhausted is the distinct fail-fast error of a part whose
// next retry the router-wide budget refused: the fleet is failing broadly
// enough that piling on retries would amplify the outage rather than ride
// it out.
var ErrRetryBudgetExhausted = errors.New("cluster: retry budget exhausted")

// budget is the router-wide token bucket, the only limit on extra work.
type budget struct {
	mu     sync.Mutex
	tokens float64 // guarded by mu
}

// deposit credits the bucket for one part.
func (b *budget) deposit() {
	b.mu.Lock()
	b.tokens = math.Min(b.tokens+budgetRatio, budgetBurst)
	b.mu.Unlock()
}

// withdraw spends one token, reporting whether one was there.
func (b *budget) withdraw() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// worker is the router's view of one fleet member: a remote worker reached
// over /v1/batch, or an in-process backend (NewLocal). A worker's "down"
// state is its circuit breaker being non-closed.
type worker struct {
	addr      string
	healthURL string          // "" for an in-process member, which is never probed
	be        backend.Backend // a *backend.Remote, or the in-process backend
	cb        *breaker

	inflight     atomic.Int64 // parts holding their capacity slot here
	batches      atomic.Int64 // successful attempts
	retries      atomic.Int64 // attempts made after a failure of their part
	errors       atomic.Int64 // failed attempts (the caller's cancellation excluded)
	budgetDenied atomic.Int64 // retries here the budget refused
}

func (w *worker) isDown() bool { return w.cb.isOpen() }

// inProcess reports a NewLocal member: its errors are final (no failover,
// retry or hedge) and never reach its breaker.
func (w *worker) inProcess() bool { return w.healthURL == "" }

// Router is the cluster Backend: it consistent-hashes each batch's StageKey
// onto the worker ring so persistent engines stay stage-affine fleet-wide,
// fans a grouped batch out across workers sized by live capacity, and
// degrades — not fails — when workers die, drain, or lie.
//
// Placement per batch:
//
//  1. The ring names the stage's owner; an owner whose circuit breaker is
//     open is demoted behind the admitted workers (counted as a ring move),
//     so a broken worker's stages land deterministically on its successor.
//  2. If the primary is saturated (Capacity parts in flight) the next ring
//     node joins as a replica target (counted as a hot replication): the
//     stage's prefix warms on a second node, trading one extra warm-up for
//     parallelism.
//  3. Fan-out width is min(group count, live spare capacity across the
//     chosen targets), never a static flag: the batch splits along its
//     prefix-group boundaries (backend.SplitByGroups) and parts go to the
//     least-loaded target first.
//
// Each part then runs under one attempt scheduler (runPart). A failover, a
// retry and a hedge are all attempts over the stage's candidate order — the
// part's target, then ring order — each a single backend.Remote round trip:
//
//   - After a transient failure the next attempt goes to the next untried
//     candidate, admitted (closed-circuit) ones first. This first pass
//     visits each worker at most once and spends no budget.
//   - Once every candidate was tried, further attempts revisit them after
//     an equal-jitter doubling backoff (a worker's Retry-After overrides
//     it), never sleeping past the caller's deadline. Each revisit
//     withdraws a token from the router-wide budget; a denied one fails the
//     part with ErrRetryBudgetExhausted. At most maxAttempts run per part.
//   - A part without an answer after the hedge delay also launches on its
//     next first-pass candidate, if a token is there; the first success
//     wins, the others are canceled, and only the winner's result merges,
//     so hedges never double-charge.
//   - 4xx rejections and the caller's own cancellation are final.
//
// A part holds one capacity slot, on its placed worker, however many
// attempts race. The breaker sees one outcome per attempt and only filters
// the order.
//
// The fleet is live: AddWorker/RemoveWorker rebalance the consistent-hash
// ring on a running router (~1/N of stages move), in-flight batches drain
// on their old assignment, and removed workers stop counting toward ring
// moves the moment they leave.
//
// Results merge with backend.MergeBatchResults, so accounting is conserved:
// each part's tokens and calls count exactly once however many workers were
// tried.
//
// The same router is static sharding when its one member is in-process
// (NewLocal): an idle member splits a grouped batch into min(groups,
// Capacity) parts, and concurrent batches share the member's Capacity part
// slots.
type Router struct {
	cfg    Config
	hc     *http.Client
	budget budget

	mu      sync.RWMutex
	ring    *ring              // guarded by mu
	workers map[string]*worker // guarded by mu

	ringMoves       atomic.Int64
	hotReplications atomic.Int64
	hedgesLaunched  atomic.Int64
	hedgeWins       atomic.Int64
	hedgesCanceled  atomic.Int64
	rebalanceJoins  atomic.Int64
	rebalanceLeaves atomic.Int64

	latMu   sync.Mutex
	lats    []time.Duration // successful-attempt latency reservoir; guarded by latMu
	latNext int             // next reservoir slot; guarded by latMu

	closed   atomic.Bool
	stopOnce sync.Once
	stop     chan struct{}
	loopDone sync.WaitGroup
	drains   sync.WaitGroup
}

var _ backend.Backend = (*Router)(nil)

// NewRouter builds the router and starts its health loop.
func NewRouter(cfg Config) (*Router, error) {
	rg, err := newRing(cfg.Workers)
	if err != nil {
		return nil, err
	}
	hc := cfg.HTTPClient
	if hc == nil {
		hc = &http.Client{}
	}
	workers := make(map[string]*worker, len(cfg.Workers))
	for _, addr := range cfg.Workers {
		w, err := newWorker(hc, addr)
		if err != nil {
			return nil, err
		}
		workers[addr] = w
	}
	rt := &Router{cfg: cfg, hc: hc, budget: budget{tokens: budgetBurst}, ring: rg, workers: workers, stop: make(chan struct{})}
	rt.loopDone.Add(1)
	go rt.healthLoop(hc)
	return rt, nil
}

// DefaultShards is the in-process fan-out the "sharded-*" backend names use
// when no explicit -shards value composes with them.
const DefaultShards = 4

// localAddr names NewLocal's member in Metrics and the exposition.
const localAddr = "local"

// NewLocal is static sharding: a router whose one ring member is the
// in-process inner backend (nil is a fresh backend.Sim) with capacity part
// slots. A grouped batch splits at its prefix-group boundaries into up to
// capacity parts served concurrently on inner; capacity 1 passes every
// batch through whole. The member is never probed — the router runs no
// health loop — and its errors are final: no failover, retry or hedge.
// capacity < 1 is an error.
func NewLocal(inner backend.Backend, capacity int) (*Router, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("cluster: in-process member needs capacity >= 1, got %d", capacity)
	}
	if inner == nil {
		inner = backend.NewSim()
	}
	rg, err := newRing([]string{localAddr})
	if err != nil {
		return nil, err
	}
	w := &worker{addr: localAddr, be: inner, cb: newBreaker(breakerConfig{})}
	return &Router{cfg: Config{Capacity: capacity, HedgeAfter: -1}, hc: &http.Client{}, budget: budget{tokens: budgetBurst},
		ring: rg, workers: map[string]*worker{localAddr: w}, stop: make(chan struct{})}, nil
}

// newWorker builds the router's view of one fleet member.
func newWorker(hc *http.Client, addr string) (*worker, error) {
	rem, err := backend.NewRemote(backend.RemoteConfig{Addr: addr, Client: hc})
	if err != nil {
		return nil, fmt.Errorf("cluster: worker %s: %w", addr, err)
	}
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return &worker{
		addr:      addr,
		healthURL: strings.TrimRight(base, "/") + "/healthz",
		be:        rem,
		cb:        newBreaker(breakerConfig{}),
	}, nil
}

// Workers lists the fleet's current addresses, sorted.
func (rt *Router) Workers() []string {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	addrs := make([]string, 0, len(rt.workers))
	for addr := range rt.workers {
		addrs = append(addrs, addr)
	}
	sort.Strings(addrs)
	return addrs
}

// AddWorker joins a worker to the running fleet: the consistent-hash ring
// rebuilds with the new member (≈1/N of stages move to it; everything else
// keeps its assignment), and subsequent batches route on the new ring.
func (rt *Router) AddWorker(addr string) error {
	if rt.closed.Load() {
		return fmt.Errorf("cluster: router is closed")
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if _, ok := rt.workers[addr]; ok {
		return fmt.Errorf("cluster: worker %s is already in the fleet", addr)
	}
	addrs := make([]string, 0, len(rt.workers)+1)
	for a := range rt.workers {
		addrs = append(addrs, a)
	}
	addrs = append(addrs, addr)
	rg, err := newRing(addrs)
	if err != nil {
		return err
	}
	w, err := newWorker(rt.hc, addr)
	if err != nil {
		return err
	}
	rt.workers[addr] = w
	rt.ring = rg
	rt.rebalanceJoins.Add(1)
	return nil
}

// RemoveWorker removes a worker from the running fleet. The ring rebuilds
// without it immediately — its stages move to their ring successors and it
// stops counting toward ring moves — while batches already dispatched to it
// drain on the old assignment; its connections close once they finish. The
// last worker cannot be removed.
func (rt *Router) RemoveWorker(addr string) error {
	rt.mu.Lock()
	w, ok := rt.workers[addr]
	if !ok {
		rt.mu.Unlock()
		return fmt.Errorf("cluster: worker %s is not in the fleet", addr)
	}
	if len(rt.workers) == 1 {
		rt.mu.Unlock()
		return fmt.Errorf("cluster: cannot remove the last worker %s", addr)
	}
	delete(rt.workers, addr)
	addrs := make([]string, 0, len(rt.workers))
	for a := range rt.workers {
		addrs = append(addrs, a)
	}
	rg, err := newRing(addrs)
	if err != nil {
		// Unreachable (non-empty, deduplicated by construction); restore.
		rt.workers[addr] = w
		rt.mu.Unlock()
		return err
	}
	rt.ring = rg
	rt.rebalanceLeaves.Add(1)
	rt.mu.Unlock()

	// Drain: in-flight batches hold their worker and finish on the old
	// assignment; the remote closes only when the last one lands (or the
	// router itself closes).
	rt.drains.Add(1)
	go func() {
		defer rt.drains.Done()
		for w.inflight.Load() > 0 && !rt.closed.Load() {
			time.Sleep(5 * time.Millisecond)
		}
		_ = w.be.Close()
	}()
	return nil
}

// candidates returns the stage's failover preference list — ring order from
// the owner, admitted (circuit-closed) workers first, ring order preserved
// within each tier — plus the owning address on the current ring. With the
// whole fleet's circuits open the raw ring order is returned: batches still
// try the owner, so a flapping fleet cannot wedge the router.
func (rt *Router) candidates(stageKey string) (cands []*worker, owner string) {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	var healthy, down []*worker
	for _, addr := range rt.ring.ordered(stageKey) {
		w := rt.workers[addr]
		if w == nil {
			continue // removed mid-iteration; ring and map swap atomically under mu
		}
		if w.isDown() {
			down = append(down, w)
		} else {
			healthy = append(healthy, w)
		}
	}
	return append(healthy, down...), rt.ring.owner(stageKey)
}

// RunBatch routes the batch per the placement rules above.
func (rt *Router) RunBatch(ctx context.Context, spec backend.BatchSpec) (backend.BatchResult, error) {
	if err := ctx.Err(); err != nil {
		return backend.BatchResult{}, err
	}
	if rt.closed.Load() {
		return backend.BatchResult{}, fmt.Errorf("cluster: router is closed")
	}

	cands, owner := rt.candidates(spec.StageKey)
	if len(cands) == 0 {
		return backend.BatchResult{}, fmt.Errorf("cluster: no workers in the fleet")
	}
	primary := cands[0]
	if primary.addr != owner {
		rt.ringMoves.Add(1)
	}
	targets := []*worker{primary}
	capacity := rt.cfg.capacity()
	if primary.inflight.Load() >= int64(capacity) && len(cands) > 1 {
		targets = append(targets, cands[1])
		rt.hotReplications.Add(1)
	}

	// Fan-out width from group structure and live spare capacity — never a
	// static flag. An unsplittable batch serves whole on the primary.
	width := 1
	if len(spec.Groups) > 1 && len(spec.Requests) >= 2 {
		spare := 0
		for _, w := range targets {
			if s := capacity - int(w.inflight.Load()); s > 1 {
				spare += s
			} else {
				spare++ // a saturated target still serves at least one part
			}
		}
		if spare < len(spec.Groups) {
			width = spare
		} else {
			width = len(spec.Groups)
		}
	}
	parts, err := backend.SplitByGroups(spec, width)
	if err != nil {
		return backend.BatchResult{}, err
	}

	sp := obs.FromContext(ctx)
	sp.Set("cluster.primary", primary.addr)
	if len(parts) > 1 {
		sp.Set("cluster.fanout", len(parts))
	}

	// Assign parts to the least-loaded target first (live in-flight plus
	// what this batch already assigned).
	assigned := make(map[*worker]int, len(targets))
	pick := func() *worker {
		best := targets[0]
		bestLoad := int(best.inflight.Load()) + assigned[best]
		for _, w := range targets[1:] {
			if load := int(w.inflight.Load()) + assigned[w]; load < bestLoad {
				best, bestLoad = w, load
			}
		}
		assigned[best]++
		return best
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make([]backend.BatchResult, len(parts))
	errs := make([]error, len(parts))
	var wg sync.WaitGroup
	for i, part := range parts {
		first := pick()
		wg.Add(1)
		go func(i int, part backend.BatchSpec, first *worker) {
			defer wg.Done()
			results[i], errs[i] = rt.runPart(runCtx, part, first, cands)
			if errs[i] != nil {
				cancel() // fail fast: peer parts stop between engine steps
			}
		}(i, part, first)
	}
	wg.Wait()

	var firstErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if firstErr == nil {
			firstErr = err
		}
		// A failing part cancels its peers, which then report
		// context.Canceled: surface the root cause, the first error that is
		// not a cancellation.
		if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			firstErr = err
			break
		}
	}
	if firstErr != nil {
		if ctxErr := ctx.Err(); ctxErr != nil && errors.Is(firstErr, ctxErr) {
			return backend.BatchResult{}, ctxErr
		}
		return backend.BatchResult{}, firstErr
	}

	sizes := make([]int, len(parts))
	for i, part := range parts {
		sizes[i] = len(part.Requests)
	}
	return backend.MergeBatchResults(results, sizes), nil
}

// attempt is the outcome of one try of a part on one worker.
type attempt struct {
	w     *worker
	res   backend.BatchResult
	err   error
	hedge bool
}

// runPart serves one part by the attempt schedule documented on Router.
// first is the part's placed (least-loaded) target; cands is the stage's
// candidate order.
func (rt *Router) runPart(ctx context.Context, part backend.BatchSpec, first *worker, cands []*worker) (backend.BatchResult, error) {
	first.inflight.Add(1)
	defer first.inflight.Add(-1)
	rt.budget.deposit()

	order := []*worker{first}
	for _, w := range cands {
		if w != first {
			order = append(order, w)
		}
	}
	tried := make(map[*worker]bool, len(order))
	retryAfter := make(map[*worker]time.Duration, len(order))
	pctx, cancel := context.WithCancel(ctx)
	defer cancel() // stops the losers of a race
	done := make(chan attempt, maxAttempts)
	var (
		attempts, running int
		pass              = 1
		hedgeC            <-chan time.Time
		hedged            bool // a hedge joined the current race
		backoff           = retryBackoff
		lastErr           error
	)
	// launch starts one attempt; a first-pass attempt that is not itself a
	// hedge arms the race's hedge timer.
	launch := func(w *worker, hedge bool) {
		tried[w] = true
		attempts++
		running++
		go func() {
			res, err := rt.send(pctx, part, w)
			done <- attempt{w, res, err, hedge}
		}()
		hedgeC = nil
		if !hedge && pass == 1 {
			if d, ok := rt.hedgeDelay(ctx); ok {
				hedgeC = time.After(d)
			}
		}
	}

	launch(next(order, tried, false), false)
	for {
		select {
		case <-hedgeC:
			if h := next(order, tried, true); h != nil && attempts < maxAttempts && rt.budget.withdraw() {
				launch(h, true)
				hedged = true
				rt.hedgesLaunched.Add(1)
			}
			hedgeC = nil
			continue
		case a := <-done:
			running--
			if a.err == nil {
				if hedged {
					if a.hedge {
						rt.hedgeWins.Add(1)
					} else {
						rt.hedgesCanceled.Add(1)
					}
				}
				if !a.hedge && a.w != first {
					rt.ringMoves.Add(1)
				}
				return a.res, nil
			}
			if ctxErr := ctx.Err(); ctxErr != nil {
				return backend.BatchResult{}, ctxErr
			}
			if a.w.inProcess() {
				return backend.BatchResult{}, a.err
			}
			var re *backend.RemoteError
			if errors.As(a.err, &re) {
				if !re.Transient() {
					return backend.BatchResult{}, a.err
				}
				retryAfter[a.w] = re.RetryAfter
			}
			lastErr = a.err
			if running > 0 {
				continue // the race partner may still answer
			}
		}

		// Every attempt so far failed: schedule the next one.
		hedged = false
		if attempts >= maxAttempts {
			return backend.BatchResult{}, fmt.Errorf("cluster: part failed after %d attempts: %w", attempts, lastErr)
		}
		w := next(order, tried, false)
		if w == nil {
			pass++
			clear(tried)
			w = next(order, tried, false)
		}
		if pass > 1 {
			// Equal jitter: [backoff/2, backoff] decorrelates a retry
			// stampede while keeping the mean wait meaningful.
			wait := backoff/2 + time.Duration(rand.Int64N(int64(backoff/2)+1))
			backoff *= 2
			if ra := retryAfter[w]; ra > 0 {
				wait = ra
			}
			if dl, ok := ctx.Deadline(); ok && time.Until(dl) <= wait {
				return backend.BatchResult{}, fmt.Errorf("cluster: next retry on %s would outlive the deadline: %w", w.addr, lastErr)
			}
			if !rt.budget.withdraw() {
				w.budgetDenied.Add(1)
				return backend.BatchResult{}, fmt.Errorf("cluster: retry on %s: %w (last attempt: %w)", w.addr, ErrRetryBudgetExhausted, lastErr)
			}
			select {
			case <-ctx.Done():
				return backend.BatchResult{}, ctx.Err()
			case <-time.After(wait):
			}
		}
		w.retries.Add(1)
		launch(w, false)
	}
}

// next returns the part's next untried candidate in order: the first one
// its breaker admits (a closed circuit, or the half-open probe of an open
// one past its cooldown). With every untried circuit cut off it returns the
// first untried candidate anyway, so a fleet-wide brownout degrades instead
// of wedging — unless hedge is set: a hedge is latency insurance and takes
// only a closed circuit. nil means every candidate was tried.
func next(order []*worker, tried map[*worker]bool, hedge bool) *worker {
	var fallback *worker
	for _, w := range order {
		switch {
		case tried[w]:
		case hedge:
			if !w.cb.isOpen() {
				return w
			}
		case w.cb.allow():
			return w
		case fallback == nil:
			fallback = w
		}
	}
	if hedge {
		return nil
	}
	return fallback
}

// hedgeDelay resolves the effective hedge delay for this part, and whether
// hedging applies at all: disabled by config, or suppressed when the
// caller's remaining deadline is no longer than the delay.
func (rt *Router) hedgeDelay(ctx context.Context) (time.Duration, bool) {
	d := rt.cfg.HedgeAfter
	if d < 0 {
		return 0, false
	}
	if d == 0 {
		if d = rt.latencyP99(); d == 0 {
			d = defaultHedgeDelay
		}
	}
	if dl, ok := ctx.Deadline(); ok && time.Until(dl) <= d {
		return 0, false
	}
	return d, true
}

// send runs one attempt on w and feeds its circuit breaker one outcome: a
// success credits the circuit and lands in the latency reservoir; a
// transient remote failure counts one failure. The caller's own
// cancellation — including a race loser's — is not the worker's fault and
// is charged nowhere.
func (rt *Router) send(ctx context.Context, part backend.BatchSpec, w *worker) (backend.BatchResult, error) {
	start := time.Now()
	res, err := w.be.RunBatch(ctx, part)
	if err == nil {
		rt.observeLatency(time.Since(start))
		w.batches.Add(1)
		w.cb.record(false)
		return res, nil
	}
	if ctx.Err() == nil {
		w.errors.Add(1)
		var re *backend.RemoteError
		if !w.inProcess() && (!errors.As(err, &re) || re.Transient()) {
			w.cb.record(true)
		}
	}
	return backend.BatchResult{}, err
}

// observeLatency folds one successful batch latency into the reservoir the
// adaptive hedge delay derives its p99 from.
func (rt *Router) observeLatency(d time.Duration) {
	rt.latMu.Lock()
	defer rt.latMu.Unlock()
	if len(rt.lats) < latencyWindow {
		rt.lats = append(rt.lats, d)
		return
	}
	rt.lats[rt.latNext] = d
	rt.latNext = (rt.latNext + 1) % latencyWindow
}

// latencyP99 reports the reservoir's p99 batch latency (0 with no samples).
func (rt *Router) latencyP99() time.Duration {
	rt.latMu.Lock()
	defer rt.latMu.Unlock()
	if len(rt.lats) == 0 {
		return 0
	}
	sorted := make([]time.Duration, len(rt.lats))
	copy(sorted, rt.lats)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := (len(sorted)*99 + 99) / 100
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// snapshotWorkers copies the live worker set for lock-free iteration.
func (rt *Router) snapshotWorkers() []*worker {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	ws := make([]*worker, 0, len(rt.workers))
	for _, w := range rt.workers {
		ws = append(ws, w)
	}
	return ws
}

// healthLoop probes every worker each healthInterval: a 200 from /healthz
// counts as a breaker success (closing an open circuit on recovery),
// anything else — including a draining worker's 503 — counts one failure
// toward the breaker's threshold. Open-circuit workers keep being probed;
// the first healthy answer closes the circuit.
func (rt *Router) healthLoop(hc *http.Client) {
	defer rt.loopDone.Done()
	ticker := time.NewTicker(healthInterval)
	defer ticker.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-ticker.C:
		}
		for _, w := range rt.snapshotWorkers() {
			rt.probe(hc, w)
		}
	}
}

// probe performs one health check against w, feeding its circuit breaker.
func (rt *Router) probe(hc *http.Client, w *worker) {
	// The health loop outlives any one batch; its probes are detached from
	// request contexts by design.
	//llmqlint:detached -- background health loop, bounded by healthTimeout
	ctx, cancel := context.WithTimeout(context.Background(), healthTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.healthURL, nil)
	if err != nil {
		w.cb.record(true)
		return
	}
	resp, err := hc.Do(req)
	if err != nil {
		w.cb.record(true)
		return
	}
	resp.Body.Close()
	w.cb.record(resp.StatusCode != http.StatusOK)
}

// WorkerMetrics is one worker's routing accounting.
//
// Counting fields are conserved accounting: the llmqlint accounting
// analyzer rejects keyed literals that set some counters and omit others.
//
//llmqlint:accounting
type WorkerMetrics struct {
	// Batches counts successful attempts on the worker, Errors failed ones
	// (the caller's own cancellation excluded), Retries the attempts it
	// received after a failure of their part (hedges are counted in
	// Metrics.HedgesLaunched), and BudgetDenied the retries it would have
	// received that the router-wide budget refused. Markdowns counts
	// circuit-open transitions; InFlight is the parts holding their
	// capacity slot on the worker.
	Batches      int64 `json:"batches"`
	Retries      int64 `json:"retries"`
	Errors       int64 `json:"errors"`
	BudgetDenied int64 `json:"budgetDenied"`
	Markdowns    int64 `json:"markdowns"`
	InFlight     int64 `json:"inFlight"`
	// Down reports a non-closed circuit; Breaker names the state exactly.
	Down    bool         `json:"down"`
	Breaker BreakerState `json:"breaker"`
}

// Metrics is the router's fleet accounting, folded into runtime.Metrics and
// the Prometheus exposition.
//
// Counting fields are conserved accounting: the llmqlint accounting
// analyzer rejects keyed literals that set some counters and omit others.
//
//llmqlint:accounting
type Metrics struct {
	// Workers maps worker address to its counters (current fleet members
	// only; a removed worker's counters leave with it).
	Workers map[string]WorkerMetrics `json:"workers"`
	// RingMoves counts moves along the ring: batches placed off their
	// stage's owner because its circuit was open, and parts served by a
	// failover or retry attempt on a worker other than their placed one.
	// HotReplications counts batches that added a replica target because
	// the primary was saturated.
	RingMoves       int64 `json:"ringMoves"`
	HotReplications int64 `json:"hotReplications"`
	// HedgesLaunched counts hedge dispatches; HedgeWins the races the hedge
	// answered first; HedgesCanceled the races the primary won after the
	// hedge launched. Wins + canceled ≤ launched (races whose winner was an
	// error resolve as neither).
	HedgesLaunched int64 `json:"hedgesLaunched"`
	HedgeWins      int64 `json:"hedgeWins"`
	HedgesCanceled int64 `json:"hedgesCanceled"`
	// RebalanceJoins / RebalanceLeaves count live fleet membership changes.
	RebalanceJoins  int64 `json:"rebalanceJoins"`
	RebalanceLeaves int64 `json:"rebalanceLeaves"`
}

// Metrics snapshots the fleet counters.
func (rt *Router) Metrics() Metrics {
	rt.mu.RLock()
	ws := make(map[string]WorkerMetrics, len(rt.workers))
	for addr, w := range rt.workers {
		state, opens := w.cb.snapshot()
		ws[addr] = WorkerMetrics{
			Batches:      w.batches.Load(),
			Retries:      w.retries.Load(),
			Errors:       w.errors.Load(),
			BudgetDenied: w.budgetDenied.Load(),
			Markdowns:    opens,
			InFlight:     w.inflight.Load(),
			Down:         state != BreakerClosed,
			Breaker:      state,
		}
	}
	rt.mu.RUnlock()
	return Metrics{
		Workers:         ws,
		RingMoves:       rt.ringMoves.Load(),
		HotReplications: rt.hotReplications.Load(),
		HedgesLaunched:  rt.hedgesLaunched.Load(),
		HedgeWins:       rt.hedgeWins.Load(),
		HedgesCanceled:  rt.hedgesCanceled.Load(),
		RebalanceJoins:  rt.rebalanceJoins.Load(),
		RebalanceLeaves: rt.rebalanceLeaves.Load(),
	}
}

// Close stops the health loop, waits for removed-worker drains, and closes
// every member: remote workers' connections (worker processes are not owned
// by the router and keep serving) and an in-process member's backend.
func (rt *Router) Close() error {
	rt.closed.Store(true)
	rt.stopOnce.Do(func() { close(rt.stop) })
	rt.loopDone.Wait()
	rt.drains.Wait()
	var firstErr error
	for _, w := range rt.snapshotWorkers() {
		if err := w.be.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
