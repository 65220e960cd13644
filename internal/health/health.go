// Package health holds the fault-domain bookkeeping shared by the serving
// layers: one circuit Breaker (closed → open → half-open with a single probe
// slot) and one consecutive-failure Member machine (healthy → suspect →
// quarantined → probing). alignsvc puts a breaker on each simulated GPU tier,
// cluster puts one on each peer, and fleet devices and cluster peers both
// track their health with a Member.
//
// Neither type performs side effects beyond its own state. Callers observe
// transitions through the returned values or the OnTransition/OnChange
// hooks and do their own work there: ring rebuilds, queue drains, metrics,
// fleet health signals.
package health

import (
	"fmt"
	"sync"
	"time"
)

// BreakerState is one of the three classic circuit-breaker states.
type BreakerState int

const (
	// BreakerClosed lets every call through; consecutive failures are
	// counted and trip the breaker open at the configured threshold.
	BreakerClosed BreakerState = iota
	// BreakerOpen short-circuits every call until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen lets exactly one probe call through; its success
	// closes the breaker, its failure re-opens it for another cooldown.
	BreakerHalfOpen
)

var breakerNames = [...]string{"closed", "open", "half-open"}

func (s BreakerState) String() string {
	if s < 0 || int(s) >= len(breakerNames) {
		return fmt.Sprintf("state(%d)", int(s))
	}
	return breakerNames[s]
}

// MarshalText renders the state name, so snapshots JSON-encode readably.
func (s BreakerState) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText parses a breaker state name.
func (s *BreakerState) UnmarshalText(b []byte) error {
	for i, n := range breakerNames {
		if n == string(b) {
			*s = BreakerState(i)
			return nil
		}
	}
	return fmt.Errorf("health: unknown breaker state %q", b)
}

// Outcome is what an allowed call reports back to its breaker.
type Outcome int

const (
	// Succeeded resets the failure streak; a probe's success closes the
	// breaker.
	Succeeded Outcome = iota
	// Failed extends the failure streak; a probe's failure re-opens the
	// breaker.
	Failed
	// Abandoned means the call ended on a context error: the target's
	// health is unknown, so the outcome must not move the breaker, but a
	// half-open probe slot has to be released.
	Abandoned
)

// BreakerStats is a breaker's state and counters at snapshot time.
type BreakerStats struct {
	State    BreakerState
	Failures int // consecutive failures while closed

	Trips         int64 // closed→open and half-open→open transitions
	ShortCircuits int64 // calls refused while open or while a probe ran
	Probes        int64 // half-open probe calls admitted
}

// Breaker is a circuit breaker. It is safe for concurrent use. A nil
// *Breaker is valid and always allows, which is how callers disable one.
type Breaker struct {
	mu        sync.Mutex
	threshold int           // consecutive failures that trip the breaker
	cooldown  time.Duration // open duration before the half-open probe
	now       func() time.Time

	state    BreakerState
	failures int
	openedAt time.Time
	probing  bool // a half-open probe is in flight

	trips, shortCircuits, probes int64

	onTransition func(to BreakerState)
}

// NewBreaker returns a closed breaker that trips after threshold consecutive
// failures and probes again after cooldown. now is the clock (nil means
// time.Now). onTransition, when non-nil, observes every state change; it runs
// under the breaker's lock, so it must not call back into the breaker.
func NewBreaker(threshold int, cooldown time.Duration, now func() time.Time, onTransition func(to BreakerState)) *Breaker {
	if now == nil {
		now = time.Now
	}
	return &Breaker{threshold: threshold, cooldown: cooldown, now: now, onTransition: onTransition}
}

// setState moves the breaker to a new state, notifying the hook. Callers
// hold b.mu.
func (b *Breaker) setState(to BreakerState) {
	if b.state == to {
		return
	}
	b.state = to
	if b.onTransition != nil {
		b.onTransition(to)
	}
}

// trip opens the breaker for a fresh cooldown. Callers hold b.mu.
func (b *Breaker) trip() {
	b.setState(BreakerOpen)
	b.openedAt = b.now()
	b.trips++
}

// Allow decides whether a call may run now. probe is true when the caller
// holds the single half-open probe slot. Every allowed call must report
// back through Done with the probe value Allow returned.
func (b *Breaker) Allow() (allowed, probe bool) {
	if b == nil {
		return true, false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true, false
	case BreakerOpen:
		if b.now().Sub(b.openedAt) < b.cooldown {
			b.shortCircuits++
			return false, false
		}
		b.setState(BreakerHalfOpen)
		b.probing = false
	}
	if b.probing {
		b.shortCircuits++
		return false, false
	}
	b.probing = true
	b.probes++
	return true, true
}

// Done reports the outcome of a call Allow admitted. Only the probe decides
// a half-open breaker. A non-probe call that finishes after the breaker
// opened (a straggler) resets or extends the streak but never closes or
// re-trips it.
func (b *Breaker) Done(out Outcome, probe bool) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if probe {
		b.probing = false
		switch out {
		case Succeeded:
			b.setState(BreakerClosed)
			b.failures = 0
		case Failed:
			b.trip()
		}
		return
	}
	switch out {
	case Succeeded:
		b.failures = 0
	case Failed:
		b.failures++
		if b.state == BreakerClosed && b.failures >= b.threshold {
			b.trip()
		}
	}
}

// Stats snapshots the breaker. A nil breaker reports closed and zeros.
func (b *Breaker) Stats() BreakerStats {
	if b == nil {
		return BreakerStats{}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return BreakerStats{State: b.state, Failures: b.failures,
		Trips: b.trips, ShortCircuits: b.shortCircuits, Probes: b.probes}
}
