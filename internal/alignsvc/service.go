// Package alignsvc is the batch-alignment service layer. Every scoring
// engine — the native striped CPU engine, the simulated GPU pipelines and
// the scalar reference — sits behind one pluggable Backend seam. A batch
// passes the optional content-addressed score cache (Config.Cache), then
// bounded admission (at most Config.Workers batches run at once; further
// callers block on their own goroutine, the backpressure signal), then its
// backend's degradation ladder, e.g.
//
//	striped CPU engine → CPU swa.Score
//	bitwise GPU pipeline → wordwise GPU pipeline → CPU swa.Score
//
// The ladder recovers backend panics, skips a rung whose circuit breaker is
// open (ErrBreakerOpen) and falls through to the next rung on any other
// error, so callers always receive exact scores (or a context error)
// together with a per-batch Report. The fault-tolerance machinery the
// simulated GPU needs — per-attempt fault streams, retry with backoff,
// sampled validation against the CPU reference and per-tier breakers —
// lives inside the simulated backends (sim.go); the exact engines are
// called once. The default backend is chosen by Config.Backend; Align uses
// it, AlignBackend overrides it per request.
// Service-level counters are exposed through Stats.
package alignsvc

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/aligncache"
	"repro/internal/cudasim"
	"repro/internal/dna"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/striped"
	"repro/internal/swa"
)

// ErrClosed is returned by Align after Close.
var ErrClosed = errors.New("alignsvc: service closed")

// Config tunes the service. The zero value is usable: bitwise tier first,
// GOMAXPROCS workers, three attempts per simulated tier, millisecond-scale
// backoff, 5% score validation, no fault injection.
type Config struct {
	// Backend selects the default serving engine and its degradation
	// ladder by name: BackendBitwiseSim (also the "" default, preserving
	// the classic sim ladder), BackendWordwiseSim, BackendStriped or
	// BackendCPURef. Every ladder ends at the CPU reference unless
	// NoCPUFallback is set. New panics on an unknown name — a misspelled
	// backend must not silently serve with a different engine.
	Backend string
	// Pipeline is the base GPU-pipeline configuration (scoring, device,
	// lane behaviour). Its Faults field is overwritten per attempt.
	Pipeline pipeline.Config
	// Lanes selects the bitwise lane width, 32 (default) or 64.
	Lanes int
	// Workers bounds how many batches run concurrently (default
	// GOMAXPROCS). Beyond that, Align blocks until a batch finishes — the
	// backpressure signal.
	Workers int

	// The knobs below shape the simulated tiers' fault-tolerance ladder
	// (sim.go); the exact backends ignore them.

	// MaxAttempts is the number of tries per simulated tier before
	// degrading (default 3).
	MaxAttempts int
	// BaseBackoff and MaxBackoff shape the exponential backoff between
	// same-tier retries (defaults 1ms and 50ms). Jitter halves the low end.
	BaseBackoff, MaxBackoff time.Duration
	// ValidateFrac is the fraction of each simulated batch's scores
	// re-checked against the CPU reference (default 0.05; >= 1 checks every
	// score, negative disables validation). Validation failures count as
	// attempt failures and trigger retry/degradation.
	ValidateFrac float64
	// Seed drives jitter, validation sampling, and the per-attempt fault
	// streams, making whole-service runs reproducible.
	Seed uint64
	// Faults enables deterministic fault injection on every simulated
	// attempt. Each attempt derives its own stream from Faults.Seed, the
	// batch number and the attempt number, so retries see fresh faults.
	Faults cudasim.FaultConfig
	// BreakerFailures is how many consecutive batch-level failures of a
	// simulated tier trip its circuit breaker open (default 5; negative
	// disables the breakers). While a breaker is open the ladder skips that
	// tier entirely instead of paying the retry ladder on every batch.
	BreakerFailures int
	// BreakerCooldown is how long a tripped breaker stays open before a
	// single half-open probe batch is let through (default 500ms). The
	// probe's success closes the breaker; its failure re-opens it.
	BreakerCooldown time.Duration
	// Metrics receives the service's queue-wait and batch-latency
	// histograms plus retry/fallback/breaker counters (nil = obs.Default()).
	// It is also handed to the pipelines unless Pipeline.Metrics is set.
	Metrics *obs.Registry
	// NoCPUFallback removes TierCPU from the ladder, so a batch that
	// exhausts the other rungs fails typed instead of being served by the
	// host reference. Tests use it to observe typed device errors end to
	// end; production configs leave it false.
	NoCPUFallback bool
	// Cache, when non-nil, memoizes per-pair scores by content hash
	// (pattern bytes, text bytes, scoring, lane width). Cache hits bypass
	// admission and the ladder entirely; a partially cached batch
	// dispatches only its uncached remainder, and concurrent identical
	// pairs coalesce onto one computation. nil (the default) keeps the
	// service byte-identical to the uncached behaviour.
	Cache *aligncache.Cache

	// sleep replaces the backoff sleep in tests.
	sleep func(context.Context, time.Duration) error
}

func (c Config) withDefaults() Config {
	if c.Lanes == 0 {
		c.Lanes = 32
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 50 * time.Millisecond
	}
	if c.ValidateFrac == 0 {
		c.ValidateFrac = 0.05
	}
	if c.BreakerFailures == 0 {
		c.BreakerFailures = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 500 * time.Millisecond
	}
	if c.sleep == nil {
		c.sleep = sleepCtx
	}
	return c
}

// registry is the metrics registry: the configured one, or obs.Default().
func (c Config) registry() *obs.Registry {
	if c.Metrics != nil {
		return c.Metrics
	}
	return obs.Default()
}

// scoring is the effective scoring scheme: the pipeline's, or the paper's.
func (c Config) scoring() swa.Scoring {
	if c.Pipeline.Scoring == (swa.Scoring{}) {
		return swa.PaperScoring
	}
	return c.Pipeline.Scoring
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Service is a long-lived batch-alignment service. Create with New, submit
// with Align (safe for concurrent use), and Close when done.
type Service struct {
	cfg Config
	obs *obs.Registry

	// slots holds one token per running batch: Align acquires one on the
	// caller's goroutine, so Workers bounds concurrency without a pool.
	slots     chan struct{}
	quit      chan struct{}
	closeOnce sync.Once
	batchSeq  atomic.Uint64

	// backends holds one Backend per tier; the ladder routes every rung
	// through this seam. stripedEng is the native engine behind
	// backends[TierStriped]; sim is the state the two simulated backends
	// share (faults, breakers, counters).
	backends   [numTiers]Backend
	stripedEng *striped.Engine
	sim        *simRuntime

	batches, batchesFailed, fallbacks         atomic.Int64
	cpuFallbacks, deadlineHits, cancellations atomic.Int64
	panicsRecovered                           atomic.Int64
}

// New builds the service. It panics on an unknown Config.Backend name —
// serving with a different engine than the operator asked for is worse than
// failing fast.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	if err := checkBackend(cfg.Backend); err != nil {
		panic(err.Error())
	}
	reg := cfg.registry()
	s := &Service{
		cfg:   cfg,
		obs:   reg,
		slots: make(chan struct{}, cfg.Workers),
		quit:  make(chan struct{}),
	}
	s.stripedEng = striped.New(striped.Config{})
	s.sim = newSimRuntime(cfg)
	s.backends[TierBitwise] = &simBackend{name: BackendBitwiseSim, tier: TierBitwise, rt: s.sim}
	s.backends[TierWordwise] = &simBackend{name: BackendWordwiseSim, tier: TierWordwise, rt: s.sim}
	s.backends[TierStriped] = &stripedBackend{eng: s.stripedEng, sc: cfg.scoring()}
	s.backends[TierCPU] = &cpuBackend{sc: cfg.scoring()}
	reg.Help("alignsvc_queue_wait_seconds", "time a batch waited for an admission slot")
	reg.Help("alignsvc_batch_seconds", "admission-to-scores latency of successful batches, by serving tier")
	reg.Help("alignsvc_batches_total", "successful batches by serving tier")
	reg.Help("alignsvc_fallbacks_total", "tier downgrades after exhausting a tier")
	return s
}

// SetFaults replaces the fault-injection config for all future simulated
// attempts. Chaos harnesses use it to start and stop fault storms against a
// live service (and to let tripped breakers recover via their probes).
func (s *Service) SetFaults(f cudasim.FaultConfig) { s.sim.setFaults(f) }

// Close waits for the running batches to finish. Waiting and future Align
// calls return ErrClosed.
func (s *Service) Close() {
	s.closeOnce.Do(func() {
		close(s.quit)
		for i := 0; i < cap(s.slots); i++ {
			s.slots <- struct{}{}
		}
	})
}

// Align scores one uniform batch of pairs through the default backend's
// degradation ladder. It blocks while Workers batches are already running
// (backpressure) and honours ctx at every stage: admission, retry backoff,
// kernel-block boundaries, and the CPU fallback loop. On success the scores
// are exact; the report says how many attempts, fallbacks and injected
// faults it took to get them.
//
// With Config.Cache set, pairs whose scores are already cached are served
// without admission or the ladder; only the uncached remainder is
// dispatched (see alignCached). Scores are exact either way — a cache hit
// is byte-identical to a recompute by key construction, whichever backend
// filled it (see aligncache.KeyOf).
func (s *Service) Align(ctx context.Context, pairs []dna.Pair) (*BatchResult, error) {
	return s.align(ctx, pairs, s.cfg.Backend)
}

// Cells is the DP work a batch represents: Σ |pattern|·|text| matrix cells.
// Tenant cells/sec rate limits and capacity planning meter this quantity —
// request counts alone are meaningless when one request can carry a
// thousand-fold more dynamic-programming work than another.
func Cells(pairs []dna.Pair) int64 {
	var n int64
	for _, p := range pairs {
		n += int64(len(p.X)) * int64(len(p.Y))
	}
	return n
}

// AlignBackend is Align with a per-request backend override: the batch is
// served by the named backend's ladder instead of the configured default.
// An unknown name fails before any work is admitted.
func (s *Service) AlignBackend(ctx context.Context, pairs []dna.Pair, backend string) (*BatchResult, error) {
	if err := checkBackend(backend); err != nil {
		return nil, err
	}
	return s.align(ctx, pairs, backend)
}

func (s *Service) align(ctx context.Context, pairs []dna.Pair, backend string) (*BatchResult, error) {
	if s.cfg.Cache.Enabled() {
		return s.alignCached(ctx, pairs, backend)
	}
	return s.dispatch(ctx, pairs, backend)
}

// dispatch is the uncached path: take a slot, then walk the ladder on the
// caller's goroutine.
func (s *Service) dispatch(ctx context.Context, pairs []dna.Pair, backend string) (*BatchResult, error) {
	submitted := time.Now()
	select {
	case s.slots <- struct{}{}:
	case <-ctx.Done():
		return nil, s.noteCtxErr(ctx.Err())
	case <-s.quit:
		return nil, ErrClosed
	}
	defer func() { <-s.slots }()
	select {
	case <-s.quit: // admitted in the race with Close
		return nil, ErrClosed
	default:
	}
	wait := time.Since(submitted)
	s.obs.Histogram("alignsvc_queue_wait_seconds", obs.LatencyBuckets).ObserveDuration(wait)
	tr := obs.FromContext(ctx)
	tr.AddSpan("alignsvc.queue_wait", submitted, wait)
	defer tr.StartSpan("alignsvc.process")()
	return s.process(ctx, pairs, s.batchSeq.Add(1), backend)
}

// Stats snapshots the service counters, including the per-tier circuit
// breaker states.
func (s *Service) Stats() Stats {
	defaultBackend := s.cfg.Backend
	if defaultBackend == "" {
		defaultBackend = BackendBitwiseSim
	}
	st := Stats{
		Backend:         defaultBackend,
		Batches:         s.batches.Load(),
		BatchesFailed:   s.batchesFailed.Load(),
		Fallbacks:       s.fallbacks.Load(),
		CPUFallbacks:    s.cpuFallbacks.Load(),
		DeadlineHits:    s.deadlineHits.Load(),
		Cancellations:   s.cancellations.Load(),
		PanicsRecovered: s.panicsRecovered.Load(),
	}
	s.sim.addStats(&st)
	ss := s.stripedEng.Stats()
	st.Striped = &ss
	return st
}

func (s *Service) noteCtxErr(err error) error {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.deadlineHits.Add(1)
		s.obs.Counter("alignsvc_deadline_total").Inc()
	case errors.Is(err, context.Canceled):
		s.cancellations.Add(1)
		s.obs.Counter("alignsvc_canceled_total").Inc()
	}
	return err
}

func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// ladders maps each backend name to its degradation ladder: the backend's
// own rung first, then the cheaper rungs it degrades through, always ending
// at the CPU reference.
var ladders = map[string][]Tier{
	"":                 {TierBitwise, TierWordwise, TierCPU},
	BackendBitwiseSim:  {TierBitwise, TierWordwise, TierCPU},
	BackendWordwiseSim: {TierWordwise, TierCPU},
	BackendStriped:     {TierStriped, TierCPU},
	BackendCPURef:      {TierCPU},
}

// checkBackend rejects a backend name that has no ladder.
func checkBackend(name string) error {
	if _, ok := ladders[name]; !ok {
		return fmt.Errorf("alignsvc: unknown backend %q", name)
	}
	return nil
}

// ladder returns the backend's ladder. NoCPUFallback drops the reference
// rung except for the cpu-ref backend, whose only rung it is.
func (s *Service) ladder(backend string) []Tier {
	rungs := ladders[backend]
	if s.cfg.NoCPUFallback && len(rungs) > 1 {
		rungs = rungs[:len(rungs)-1]
	}
	return rungs
}

// process walks the backend's degradation ladder for one batch: a rung
// whose breaker is open is skipped, a rung that fails falls through to the
// next, and the first rung to succeed serves the batch.
func (s *Service) process(ctx context.Context, pairs []dna.Pair, seq uint64, backend string) (*BatchResult, error) {
	var rep Report
	start := time.Now()
	var lastErr error
	ladder := s.ladder(backend)
	for li, tier := range ladder {
		if err := ctx.Err(); err != nil {
			return nil, s.noteCtxErr(err)
		}
		endTier := obs.FromContext(ctx).StartSpan("alignsvc.tier." + tier.String())
		scores, st, err := s.runRung(ctx, tier, pairs, seq)
		endTier()
		if errors.Is(err, ErrBreakerOpen) {
			rep.Skips = append(rep.Skips, tier)
			s.obs.Counter(obs.L("alignsvc_breaker_skips_total", "tier", tier.String())).Inc()
			continue
		}
		rep.record(tier, st, err)
		switch {
		case err == nil:
			rep.Tier = tier
			rep.Elapsed = time.Since(start)
			s.batches.Add(1)
			s.obs.Counter(obs.L("alignsvc_batches_total", "tier", tier.String())).Inc()
			if tier == TierCPU {
				s.cpuFallbacks.Add(1)
			}
			s.obs.Histogram(obs.L("alignsvc_batch_seconds", "tier", tier.String()),
				obs.LatencyBuckets).ObserveDuration(rep.Elapsed)
			return &BatchResult{Scores: scores, Report: rep}, nil
		case isCtxErr(err):
			return nil, s.noteCtxErr(err)
		}
		lastErr = err
		if li+1 < len(ladder) {
			rep.Fallbacks++
			s.fallbacks.Add(1)
			s.obs.Counter(obs.L("alignsvc_fallbacks_total", "from", tier.String())).Inc()
		}
	}
	s.batchesFailed.Add(1)
	s.obs.Counter("alignsvc_batches_failed_total").Inc()
	if lastErr == nil {
		// Every rung was skipped (open breakers with NoCPUFallback): there
		// is no attempt error to propagate, only the configuration.
		return nil, fmt.Errorf("alignsvc: no tier available (%s)", rep.String())
	}
	return nil, fmt.Errorf("alignsvc: all tiers exhausted (%s): %w", rep.String(), lastErr)
}

// runRung calls one rung's backend, converting a panic into an error.
func (s *Service) runRung(ctx context.Context, tier Tier, pairs []dna.Pair, seq uint64) (scores []int, st BatchStats, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.panicsRecovered.Add(1)
			s.obs.Counter(obs.L("alignsvc_panics_recovered_total", "tier", tier.String())).Inc()
			err = fmt.Errorf("alignsvc: recovered %s-tier panic: %v", tier, r)
		}
	}()
	return s.backends[tier].AlignBatch(ctx, pairs, BatchOpts{Seq: seq})
}

// Scoring reports the effective scoring scheme the service aligns with.
// The cluster layer uses it to derive the same cache keys this service
// derives, so consistent-hash routing lands forwards on warm caches.
func (s *Service) Scoring() swa.Scoring { return s.cfg.scoring() }

// Lanes reports the effective bitwise lane width (32 or 64), the other
// input of the content-address cache key.
func (s *Service) Lanes() int { return s.cfg.Lanes }
