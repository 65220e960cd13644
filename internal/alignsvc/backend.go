package alignsvc

// This file is the pluggable-backend seam: every engine the service can
// serve scores with — the two simulated GPU pipelines, the native striped
// CPU engine and the scalar reference — sits behind the Backend interface,
// so the degradation ladder, the metrics and the benchmarks all select
// engines through one seam instead of hard-coded tier switches. The exact
// engines live here; the simulated ones, with their fault-tolerance ladder,
// live in sim.go.

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/cudasim"
	"repro/internal/dna"
	"repro/internal/pipeline"
	"repro/internal/striped"
	"repro/internal/swa"
)

// Backend names, as accepted by Config.Backend, AlignBackend and the
// swaserver -backend flag / X-SWA-Backend header.
const (
	// BackendBitwiseSim serves through the paper's bitwise BPBC pipeline on
	// the simulated GPU, degrading wordwise-sim → cpu-ref on failure.
	BackendBitwiseSim = "bitwise-sim"
	// BackendWordwiseSim serves through the conventional wordwise pipeline
	// on the simulated GPU, degrading to cpu-ref on failure.
	BackendWordwiseSim = "wordwise-sim"
	// BackendStriped serves with the native striped CPU engine
	// (internal/striped), degrading to cpu-ref on failure. This is the
	// wall-clock serving path.
	BackendStriped = "striped"
	// BackendCPURef serves with the scalar swa.Score reference directly.
	BackendCPURef = "cpu-ref"
)

// BackendNames lists every backend name, primary serving path first.
func BackendNames() []string {
	return []string{BackendStriped, BackendBitwiseSim, BackendWordwiseSim, BackendCPURef}
}

// BatchOpts carries per-batch context into a backend.
type BatchOpts struct {
	// Seq is the service-wide batch sequence number, Attempt the first
	// attempt ordinal; together they derive the deterministic fault streams
	// of simulated backends.
	Seq, Attempt uint64
}

// BatchStats is what one backend call reports back. The exact engines make
// one attempt and report nothing; the service records that attempt itself.
type BatchStats struct {
	// Attempts lists every attempt the call made, in order.
	Attempts []Attempt
	// Retries counts same-tier re-runs after a failed attempt.
	Retries int
	// Validated counts pairs re-scored on the CPU reference.
	Validated int
	// Faults counts the faults injected across the call's attempts.
	Faults cudasim.FaultCounts
}

// ErrBreakerOpen is what a backend returns when its circuit breaker refuses
// the batch: the ladder records the rung in Report.Skips and moves on
// without counting a fallback.
var ErrBreakerOpen = errors.New("alignsvc: breaker open")

// Backend is one scoring engine behind the service. AlignBatch scores every
// pair or fails as a unit. When err is nil the scores are exact: the native
// and reference engines by construction, the simulated ones up to what their
// sampled validation catches (ValidateFrac >= 1 checks every score).
type Backend interface {
	Name() string
	AlignBatch(ctx context.Context, pairs []dna.Pair, opts BatchOpts) ([]int, BatchStats, error)
}

// NewBackend constructs a standalone backend: no admission, no retry
// ladder, no breaker, no fleet, no fault injection — just the engine. The
// benchmark harness and the cross-backend exactness oracle use it to measure
// and compare engines in isolation. cfg supplies the scoring scheme (and,
// for the simulated backends, the device model); lanes selects the bitwise
// width as in Config.Lanes.
func NewBackend(name string, cfg pipeline.Config, lanes int) (Backend, error) {
	c := Config{Pipeline: cfg, Lanes: lanes, Metrics: cfg.Metrics,
		MaxAttempts: 1, ValidateFrac: -1, BreakerFailures: -1}.withDefaults()
	switch name {
	case BackendBitwiseSim:
		return &simBackend{name: name, tier: TierBitwise, rt: newSimRuntime(c, nil)}, nil
	case BackendWordwiseSim:
		return &simBackend{name: name, tier: TierWordwise, rt: newSimRuntime(c, nil)}, nil
	case BackendStriped:
		return &stripedBackend{eng: striped.New(striped.Config{}), sc: c.scoring()}, nil
	case BackendCPURef:
		return &cpuBackend{sc: c.scoring()}, nil
	}
	return nil, fmt.Errorf("alignsvc: unknown backend %q", name)
}

// stripedBackend serves with the native striped CPU engine. It is exact by
// construction: overflowed narrow passes are always re-scored wider, down
// to the scalar reference.
type stripedBackend struct {
	eng *striped.Engine
	sc  swa.Scoring
}

func (b *stripedBackend) Name() string { return BackendStriped }

func (b *stripedBackend) AlignBatch(ctx context.Context, pairs []dna.Pair, _ BatchOpts) ([]int, BatchStats, error) {
	scores, _, err := b.eng.ScoreBatch(ctx, pairs, b.sc)
	return scores, BatchStats{}, err
}

// cpuPollCells bounds how many alignment cells the scalar reference scores
// between context polls: a batch of a few huge pairs (or very many small
// ones) aborts promptly on cancellation instead of running to completion.
const cpuPollCells = 1 << 16

// cpuBackend is the scalar swa.Score reference: the last rung of every
// ladder, exact and fault-free, failing only on cancellation.
type cpuBackend struct {
	sc swa.Scoring
}

func (b *cpuBackend) Name() string { return BackendCPURef }

func (b *cpuBackend) AlignBatch(ctx context.Context, pairs []dna.Pair, _ BatchOpts) ([]int, BatchStats, error) {
	scores, err := runCPURef(ctx, pairs, b.sc)
	return scores, BatchStats{}, err
}

// runCPURef scores pairs with the scalar reference, polling the context
// every cpuPollCells cells (not a fixed pair stride: pair sizes vary by
// orders of magnitude, and a stride counted in pairs lets a handful of
// huge pairs run for seconds after cancellation). A mid-batch abort
// returns an *AbortError recording how many pairs were fully scored.
func runCPURef(ctx context.Context, pairs []dna.Pair, sc swa.Scoring) ([]int, error) {
	scores := make([]int, len(pairs))
	cells := cpuPollCells // poll before the first pair too
	for i, p := range pairs {
		if cells >= cpuPollCells {
			if err := ctx.Err(); err != nil {
				return nil, &AbortError{Scored: i, Err: err}
			}
			cells = 0
		}
		scores[i] = swa.Score(p.X, p.Y, sc)
		cells += len(p.X) * len(p.Y)
	}
	return scores, nil
}

// AbortError reports a batch abandoned mid-computation because its context
// was cancelled, recording how far the computation got. It unwraps to the
// context error, so errors.Is(err, context.Canceled) and
// errors.Is(err, context.DeadlineExceeded) both see through it.
type AbortError struct {
	// Scored is how many leading pairs had exact scores when the batch
	// aborted (the scores themselves are discarded — the batch fails as a
	// unit).
	Scored int
	// Err is the underlying context error.
	Err error
}

func (e *AbortError) Error() string {
	return fmt.Sprintf("alignsvc: batch aborted after %d pairs: %v", e.Scored, e.Err)
}

func (e *AbortError) Unwrap() error { return e.Err }
