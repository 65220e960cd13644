package cudasim

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
)

// FaultOp names a device operation class that the injector can fail.
type FaultOp string

const (
	FaultHtoD    FaultOp = "HtoD"
	FaultDtoH    FaultOp = "DtoH"
	FaultAlloc   FaultOp = "Alloc"
	FaultLaunch  FaultOp = "Launch"
	FaultBitFlip FaultOp = "BitFlip"
)

// ErrInjected is the sentinel wrapped by every injected fault, so callers
// can distinguish deliberate faults from genuine simulator errors with
// errors.Is(err, cudasim.ErrInjected).
var ErrInjected = errors.New("cudasim: injected fault")

// FaultError is a deterministic injected device fault.
type FaultError struct {
	Op  FaultOp // which operation class failed
	Seq uint64  // injector decision sequence number, for reproducibility
}

func (e *FaultError) Error() string {
	return fmt.Sprintf("cudasim: injected %s fault (decision #%d)", e.Op, e.Seq)
}

// Unwrap makes errors.Is(err, ErrInjected) hold.
func (e *FaultError) Unwrap() error { return ErrInjected }

// FaultConfig configures deterministic fault injection. Each rate is the
// per-operation probability in [0, 1] that the operation fails (or, for
// BitFlip, that a completed transfer silently corrupts one bit of the
// bytes it moved). The zero value injects nothing.
type FaultConfig struct {
	Seed    uint64
	HtoD    float64 // MemcpyHtoD returns a *FaultError
	DtoH    float64 // MemcpyDtoH returns a *FaultError
	Alloc   float64 // Alloc returns a *FaultError (simulated cudaMalloc failure)
	Launch  float64 // Launch fails before any block runs
	BitFlip float64 // a successful transfer flips one random bit it touched
}

func (c FaultConfig) enabled() bool {
	return c.HtoD > 0 || c.DtoH > 0 || c.Alloc > 0 || c.Launch > 0 || c.BitFlip > 0
}

// FaultCounts tallies injected faults by class.
type FaultCounts struct {
	HtoD, DtoH, Alloc, Launch, BitFlips int
}

// Total sums all classes.
func (c FaultCounts) Total() int {
	return c.HtoD + c.DtoH + c.Alloc + c.Launch + c.BitFlips
}

// Add returns the class-by-class sum of c and o.
func (c FaultCounts) Add(o FaultCounts) FaultCounts {
	return FaultCounts{HtoD: c.HtoD + o.HtoD, DtoH: c.DtoH + o.DtoH, Alloc: c.Alloc + o.Alloc,
		Launch: c.Launch + o.Launch, BitFlips: c.BitFlips + o.BitFlips}
}

// FaultInjector draws deterministic fault decisions from a seeded PCG
// stream. It is safe for concurrent use; the decision sequence depends only
// on the seed and the order of device operations.
type FaultInjector struct {
	mu     sync.Mutex
	rng    *rand.Rand
	cfg    FaultConfig
	seq    uint64
	counts FaultCounts
}

// NewFaultInjector builds an injector for the config, or nil when the
// config injects nothing (a nil injector is valid and inert everywhere).
func NewFaultInjector(cfg FaultConfig) *FaultInjector {
	if !cfg.enabled() {
		return nil
	}
	return &FaultInjector{cfg: cfg, rng: rand.New(rand.NewPCG(cfg.Seed, 0x6661756c74))}
}

// Counts snapshots the faults injected so far.
func (f *FaultInjector) Counts() FaultCounts {
	if f == nil {
		return FaultCounts{}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.counts
}

// trip decides whether the next operation of class op fails, returning the
// fault error to surface (nil = proceed).
func (f *FaultInjector) trip(op FaultOp) error {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.seq++
	var rate float64
	var slot *int
	switch op {
	case FaultHtoD:
		rate, slot = f.cfg.HtoD, &f.counts.HtoD
	case FaultDtoH:
		rate, slot = f.cfg.DtoH, &f.counts.DtoH
	case FaultAlloc:
		rate, slot = f.cfg.Alloc, &f.counts.Alloc
	case FaultLaunch:
		rate, slot = f.cfg.Launch, &f.counts.Launch
	default:
		return nil
	}
	if rate <= 0 || f.rng.Float64() >= rate {
		return nil
	}
	*slot++
	return &FaultError{Op: op, Seq: f.seq}
}

// flipBit decides whether a completed transfer of n bytes silently corrupts
// one bit, returning the bit index to flip in [0, 8n) or -1 for none.
func (f *FaultInjector) flipBit(n int) int64 {
	if f == nil || n <= 0 {
		return -1
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.seq++
	if f.cfg.BitFlip <= 0 || f.rng.Float64() >= f.cfg.BitFlip {
		return -1
	}
	f.counts.BitFlips++
	return f.rng.Int64N(int64(n) * 8)
}
