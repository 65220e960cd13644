package alignsvc

// This file is the simulated-GPU side of the service: the two backends that
// run the paper's pipelines on cudasim, and the fault-tolerance ladder those
// devices need because they inject faults. Per-attempt fault streams,
// same-tier retry with jittered backoff, sampled validation against the CPU
// reference and one circuit breaker per tier all live here.
// The Service and the exact backends know none of it.

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync/atomic"
	"time"

	"repro/internal/cudasim"
	"repro/internal/dna"
	"repro/internal/health"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/swa"
)

// BreakerState is a simulated tier's circuit-breaker state (see
// health.Breaker).
type BreakerState = health.BreakerState

// The tier breaker states, exported in Stats and as the
// alignsvc_breaker_state gauge (0 closed, 1 open, 2 half-open).
const (
	BreakerClosed   = health.BreakerClosed
	BreakerOpen     = health.BreakerOpen
	BreakerHalfOpen = health.BreakerHalfOpen
)

// BreakerSnapshot is the exported view of one tier's breaker, published
// through Stats (and from there /statsz).
type BreakerSnapshot struct {
	Tier     Tier
	State    BreakerState
	Failures int // consecutive tier failures while closed
}

// ValidationError reports a score that disagreed with the CPU reference
// (the signature of silent device-memory corruption).
type ValidationError struct {
	Index     int
	Got, Want int
}

func (e *ValidationError) Error() string {
	return fmt.Sprintf("alignsvc: score validation failed at pair %d: got %d, want %d",
		e.Index, e.Got, e.Want)
}

// simTiers are the rungs served by simulated pipelines.
var simTiers = [...]Tier{TierBitwise, TierWordwise}

// simRuntime is what the simulated tiers of one service share: the ladder
// configuration, the live fault config, the per-tier breakers and the
// counters Stats reports.
type simRuntime struct {
	cfg      Config
	obs      *obs.Registry
	faults   atomic.Pointer[cudasim.FaultConfig]
	breakers [numTiers]*health.Breaker // nil (always allows) when disabled

	retries, faultsInjected atomic.Int64
}

func newSimRuntime(cfg Config) *simRuntime {
	reg := cfg.registry()
	rt := &simRuntime{cfg: cfg, obs: reg}
	rt.setFaults(cfg.Faults)
	reg.Help("alignsvc_retries_total", "same-tier re-runs after a failed attempt")
	reg.Help("alignsvc_breaker_transitions_total", "circuit-breaker state transitions by tier")
	reg.Help("alignsvc_breaker_state", "current breaker state (0 closed, 1 open, 2 half-open)")
	if cfg.BreakerFailures <= 0 {
		return rt
	}
	for _, t := range simTiers {
		tier := t.String()
		state := reg.Gauge(obs.L("alignsvc_breaker_state", "tier", tier))
		state.Set(float64(BreakerClosed))
		rt.breakers[t] = health.NewBreaker(cfg.BreakerFailures, cfg.BreakerCooldown, nil, func(to BreakerState) {
			reg.Counter(obs.L("alignsvc_breaker_transitions_total", "tier", tier, "to", to.String())).Inc()
			state.Set(float64(to))
		})
	}
	return rt
}

func (rt *simRuntime) setFaults(f cudasim.FaultConfig) { rt.faults.Store(&f) }

// addStats fills in the simulated tiers' share of a Stats snapshot.
func (rt *simRuntime) addStats(st *Stats) {
	st.Retries = rt.retries.Load()
	st.FaultsInjected = rt.faultsInjected.Load()
	for _, t := range simTiers {
		b := rt.breakers[t].Stats()
		st.Breakers = append(st.Breakers, BreakerSnapshot{Tier: t, State: b.State, Failures: b.Failures})
		st.BreakerTrips += b.Trips
		st.BreakerShortCircuits += b.ShortCircuits
		st.BreakerProbes += b.Probes
	}
}

// pipelineConfig is the base pipeline config, handed the service registry
// (unless it has its own) so one scrape sees the whole stack.
func (rt *simRuntime) pipelineConfig() pipeline.Config {
	cfg := rt.cfg.Pipeline
	if cfg.Metrics == nil {
		cfg.Metrics = rt.obs
	}
	return cfg
}

// simBackend serves one tier through its simulated pipeline, behind the
// tier's breaker and retry ladder.
type simBackend struct {
	name string
	tier Tier
	rt   *simRuntime
}

func (b *simBackend) Name() string { return b.name }

// AlignBatch returns ErrBreakerOpen while the tier's breaker refuses the
// batch; otherwise it runs the retry ladder and reports the outcome to the
// breaker.
func (b *simBackend) AlignBatch(ctx context.Context, pairs []dna.Pair, opts BatchOpts) (scores []int, st BatchStats, err error) {
	br := b.rt.breakers[b.tier]
	allowed, probe := br.Allow()
	if !allowed {
		return nil, st, ErrBreakerOpen
	}
	out := health.Failed // also the outcome of a panic unwinding through here
	defer func() { br.Done(out, probe) }()
	scores, st, err = b.attempts(ctx, pairs, opts)
	switch {
	case err == nil:
		out = health.Succeeded
	case isCtxErr(err):
		out = health.Abandoned
	}
	return scores, st, err
}

// attempts runs up to MaxAttempts tries with backoff, recording every
// attempt. It returns the first scores that pass validation, a bare context
// error on cancellation, or the last attempt error.
func (b *simBackend) attempts(ctx context.Context, pairs []dna.Pair, opts BatchOpts) ([]int, BatchStats, error) {
	rt := b.rt
	n := rt.cfg.MaxAttempts
	rng := rand.New(rand.NewPCG(rt.cfg.Seed^opts.Seq, 0xa1195c7e))
	var st BatchStats
	var lastErr error
	for a := 0; a < n; a++ {
		if err := ctx.Err(); err != nil {
			return nil, st, err
		}
		scores, counts, err := b.attempt(ctx, pairs, opts.Seq, opts.Attempt+uint64(int(b.tier)*n+a))
		st.Faults = st.Faults.Add(counts)
		rt.faultsInjected.Add(int64(counts.Total()))
		rt.obs.Counter("alignsvc_faults_injected_total").Add(int64(counts.Total()))
		at := Attempt{Tier: b.tier, Faults: counts}
		if err == nil {
			var checked int
			checked, err = rt.validate(ctx, pairs, scores, rng)
			st.Validated += checked
			var ve *ValidationError
			at.ValidationFailed = errors.As(err, &ve)
		}
		if err == nil {
			st.Attempts = append(st.Attempts, at)
			return scores, st, nil
		}
		at.Err = err.Error()
		st.Attempts = append(st.Attempts, at)
		if at.ValidationFailed {
			rt.obs.Counter(obs.L("alignsvc_validation_failures_total", "tier", b.tier.String())).Inc()
		}
		if isCtxErr(err) {
			return nil, st, err
		}
		lastErr = err
		if a+1 < n {
			st.Retries++
			rt.retries.Add(1)
			rt.obs.Counter(obs.L("alignsvc_retries_total", "tier", b.tier.String())).Inc()
			if err := rt.backoff(ctx, a, rng); err != nil {
				return nil, st, err
			}
		}
	}
	return nil, st, lastErr
}

// attempt runs the pipeline once, with its own deterministic fault stream
// so a retry does not replay the faults that just killed the batch.
func (b *simBackend) attempt(ctx context.Context, pairs []dna.Pair, seq, attempt uint64) ([]int, cudasim.FaultCounts, error) {
	cfg := b.rt.pipelineConfig()
	fcfg := *b.rt.faults.Load()
	fcfg.Seed ^= (seq*0x9e3779b97f4a7c15 + attempt) | 1
	inj := cudasim.NewFaultInjector(fcfg)
	cfg.Faults = inj
	var r *pipeline.Result
	var err error
	switch {
	case b.tier == TierWordwise:
		r, err = pipeline.RunWordwise(ctx, pairs, cfg)
	case b.rt.cfg.Lanes == 64:
		r, err = pipeline.RunBitwise[uint64](ctx, pairs, cfg)
	default:
		r, err = pipeline.RunBitwise[uint32](ctx, pairs, cfg)
	}
	if err != nil {
		return nil, inj.Counts(), err
	}
	return r.Scores, inj.Counts(), nil
}

// validate re-scores a sample of the batch on the CPU reference and fails
// on the first disagreement. Returns how many pairs were checked.
func (rt *simRuntime) validate(ctx context.Context, pairs []dna.Pair, scores []int, rng *rand.Rand) (int, error) {
	frac := rt.cfg.ValidateFrac
	if frac < 0 || len(pairs) == 0 {
		return 0, nil
	}
	if len(scores) != len(pairs) {
		return 0, fmt.Errorf("alignsvc: got %d scores for %d pairs", len(scores), len(pairs))
	}
	sc := rt.cfg.scoring()
	n := len(pairs)
	if frac < 1 {
		n = max(1, int(float64(len(pairs))*frac))
	}
	for k := 0; k < n; k++ {
		if k%64 == 0 {
			if err := ctx.Err(); err != nil {
				return k, err
			}
		}
		i := k
		if frac < 1 {
			i = rng.IntN(len(pairs))
		}
		if want := swa.Score(pairs[i].X, pairs[i].Y, sc); scores[i] != want {
			return k + 1, &ValidationError{Index: i, Got: scores[i], Want: want}
		}
	}
	return n, nil
}

// backoff sleeps base·2^attempt with half-interval jitter, capped at
// MaxBackoff, honouring the context.
func (rt *simRuntime) backoff(ctx context.Context, attempt int, rng *rand.Rand) error {
	d := rt.cfg.BaseBackoff << attempt
	if d > rt.cfg.MaxBackoff || d <= 0 {
		d = rt.cfg.MaxBackoff
	}
	d = d/2 + time.Duration(rng.Int64N(int64(d/2)+1))
	return rt.cfg.sleep(ctx, d)
}
