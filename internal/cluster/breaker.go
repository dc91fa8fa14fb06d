package cluster

import (
	"sync"
	"time"
)

// BreakerState names a circuit breaker's position.
type BreakerState string

const (
	// BreakerClosed: traffic flows; failures are being counted.
	BreakerClosed BreakerState = "closed"
	// BreakerOpen: the worker is cut off until the cooldown elapses.
	BreakerOpen BreakerState = "open"
	// BreakerHalfOpen: the cooldown elapsed and exactly one probe batch is
	// in flight; its outcome closes or re-opens the circuit.
	BreakerHalfOpen BreakerState = "half-open"
)

// breakerConfig sizes one worker's circuit breaker. Zero fields take the
// defaults, which are the router's.
type breakerConfig struct {
	// threshold opens the circuit on this many consecutive failures
	// (default 2).
	threshold int
	// window and errorRate open the circuit when at least minSamples
	// outcomes are in the rolling window and the failure fraction reaches
	// errorRate — catching a worker that fails often without ever failing
	// threshold times in a row (defaults 20 / 10 / 0.5).
	window     int
	minSamples int
	errorRate  float64
	// cooldown is how long an open circuit blocks before admitting the
	// half-open probe (default 1s).
	cooldown time.Duration
}

// breaker is a per-worker circuit breaker: closed → open on consecutive
// failures or windowed error rate, open → half-open after the cooldown,
// half-open → closed on a probe success (or back to open on failure). It
// replaces the raw consecutive-failure mark-down: an open breaker is what
// "down" means to the router, and health-probe outcomes feed the same
// circuit as batch outcomes, so a recovered worker closes its breaker on
// the first healthy answer.
type breaker struct {
	cfg breakerConfig

	mu       sync.Mutex
	state    BreakerState // guarded by mu
	failures int          // consecutive failures; guarded by mu
	outcomes []bool       // rolling window, true = failure; guarded by mu
	next     int          // next outcome slot (ring index); guarded by mu
	openedAt time.Time    // when the circuit last opened; guarded by mu
	probing  bool         // half-open probe in flight; guarded by mu
	opens    int64        // closed/half-open → open transitions; guarded by mu
}

func newBreaker(cfg breakerConfig) *breaker {
	if cfg.threshold <= 0 {
		cfg.threshold = 2
	}
	if cfg.window <= 0 {
		cfg.window = 20
	}
	if cfg.minSamples <= 0 {
		cfg.minSamples = 10
	}
	if cfg.errorRate <= 0 || cfg.errorRate > 1 {
		cfg.errorRate = 0.5
	}
	if cfg.cooldown <= 0 {
		cfg.cooldown = time.Second
	}
	return &breaker{cfg: cfg, state: BreakerClosed}
}

// allow reports whether a batch may be dispatched to the worker right now.
// A closed circuit always admits; an open one admits nothing until the
// cooldown elapses, at which point exactly one caller is admitted as the
// half-open probe (concurrent callers keep seeing the circuit open).
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if time.Since(b.openedAt) < b.cfg.cooldown {
			return false
		}
		b.state = BreakerHalfOpen
		b.probing = true
		return true
	default: // half-open
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// record feeds one outcome — of one attempt or one health probe — into
// the circuit. It reports whether this call opened the circuit.
func (b *breaker) record(failed bool) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.outcomes) < b.cfg.window {
		b.outcomes = append(b.outcomes, failed)
	} else {
		b.outcomes[b.next] = failed
		b.next = (b.next + 1) % b.cfg.window
	}
	if !failed {
		b.failures = 0
		b.probing = false
		if b.state != BreakerClosed {
			b.state = BreakerClosed
			// A recovered worker starts with a clean slate: stale window
			// failures from before the outage must not instantly re-open.
			b.outcomes = b.outcomes[:0]
			b.next = 0
		}
		return false
	}
	b.failures++
	b.probing = false
	if b.state == BreakerOpen {
		return false
	}
	if b.state == BreakerHalfOpen || b.failures >= b.cfg.threshold || b.rateTrippedLocked() {
		b.state = BreakerOpen
		b.openedAt = time.Now()
		b.opens++
		return true
	}
	return false
}

// rateTrippedLocked reports whether the rolling-window error rate crossed
// the configured threshold.
//
//llmqlint:holds mu
func (b *breaker) rateTrippedLocked() bool {
	if len(b.outcomes) < b.cfg.minSamples {
		return false
	}
	fails := 0
	for _, f := range b.outcomes {
		if f {
			fails++
		}
	}
	return float64(fails)/float64(len(b.outcomes)) >= b.cfg.errorRate
}

// snapshot returns the current state and the open-transition count.
func (b *breaker) snapshot() (BreakerState, int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state, b.opens
}

// isOpen reports whether the circuit currently blocks regular traffic
// (open or probing half-open) — the router's notion of "down".
func (b *breaker) isOpen() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state != BreakerClosed
}
