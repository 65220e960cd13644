// Package fleet schedules alignment work across a fleet of simulated
// devices treated as independent fault domains. It is the scale-out layer
// between alignsvc's degradation ladder and the single-device pipeline:
// batches are split into shards, shards are spread over per-device bounded
// queues with work-stealing for load balance, stragglers are hedged onto a
// second device, and a per-device health state machine (healthy → suspect →
// quarantined → probing → readmitted, internal/health) takes failing devices
// out of rotation and probes them back in. Device loss is first-class: KillDevice flips a
// cudasim.KillSwitch observed mid-launch, the lost shards are re-queued to
// surviving members (the CPU fallback is the last-resort member), and the
// merge of results is claim-once, so a hedged shard is never double-counted.
//
// The partitioning approach follows SWAPHI's multi-card design (static
// split plus dynamic work distribution); the health machine is the one
// internal/cluster applies to remote peers (see DESIGN.md §12).
package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cudasim"
	"repro/internal/dna"
	"repro/internal/health"
	"repro/internal/obs"
)

// ErrClosed is returned by Run after Close.
var ErrClosed = errors.New("fleet: scheduler closed")

// ErrNoDevices is returned (wrapped, with the last shard error) when a
// shard has exhausted every live device.
var ErrNoDevices = errors.New("fleet: no device could run the shard")

// ExecFunc runs one shard on one device and returns exactly one score per
// pair. The fleet derives nothing about how the shard is executed — the
// caller's closure builds the pipeline, typically seeding a fresh injector
// via Device.NewInjector so every execution has an independent fault
// stream.
type ExecFunc func(ctx context.Context, d *Device, pairs []dna.Pair) ([]int, error)

// Config configures a Scheduler. The zero value of every knob gets a
// sensible default at New.
type Config struct {
	// Devices lists the fleet members. At least one is required; exactly
	// one CPU member is recommended as the last-resort fault domain.
	Devices []DeviceConfig
	// QueueDepth bounds each device's work queue (default 16). Run blocks
	// (respecting its context) when every eligible queue is full.
	QueueDepth int
	// MinShard is the smallest shard worth dispatching (default 4 pairs);
	// small batches use fewer shards rather than tiny ones.
	MinShard int
	// SuspectAfter is the consecutive-failure count that marks a device
	// suspect (default 1).
	SuspectAfter int
	// QuarantineAfter is the consecutive-failure count that quarantines a
	// device (default 3).
	QuarantineAfter int
	// ProbeInterval is the quarantine cooldown before a readmission probe
	// (default 1s).
	ProbeInterval time.Duration
	// HedgeAfter re-dispatches a shard still running on one device after
	// this long to a second device (0 = hedging disabled). The first copy
	// to finish wins; the other is discarded, never double-merged.
	HedgeAfter time.Duration
	// ShardTimeout bounds one execution attempt (0 = no per-shard bound).
	ShardTimeout time.Duration
	// MaxRedispatch bounds how many times one shard may be re-queued after
	// failures before the whole batch fails (default 2×len(Devices)+2).
	MaxRedispatch int
	// Metrics receives per-device gauges and fleet counters (nil = none).
	Metrics *obs.Registry
	// Seed feeds probe fault streams (exec seeds are the caller's concern).
	Seed uint64

	// now is a test hook for the clock; nil means time.Now.
	now func() time.Time
}

// Scheduler drives the fleet: one worker goroutine per device plus a prober
// and (when hedging is on) a hedger. Close stops everything and fails the
// in-flight batches with ErrClosed.
type Scheduler struct {
	cfg    Config
	policy health.Policy

	mu       sync.Mutex
	cond     *sync.Cond
	devices  []*Device
	byName   map[string]*Device
	inflight map[*batch]struct{}
	closed   bool

	// Aggregate counters, guarded by mu (kept consistent with the
	// per-device counters: Stats sums both under one lock hold).
	batches, batchesFailed int64
	shards, requeues       int64
	hedges, hedgeWaste     int64
	kills, revives         int64

	seq  atomic.Uint64 // probe-seed derivation
	stop chan struct{}
	wg   sync.WaitGroup

	mBatches, mBatchesFailed, mShards *obs.Counter
	mRequeues, mHedges                *obs.Counter
	mKills, mRevives                  *obs.Counter
}

// batch is one Run call: the pairs, the score sink and the completion latch.
type batch struct {
	ctx    context.Context
	exec   ExecFunc
	pairs  []dna.Pair
	scores []int

	remaining atomic.Int64
	done      chan struct{}
	settled   atomic.Bool
	errMu     sync.Mutex
	err       error
}

// fail settles the batch with err (first settler wins) and releases Run.
func (b *batch) fail(err error) {
	if b.settled.CompareAndSwap(false, true) {
		b.errMu.Lock()
		b.err = err
		b.errMu.Unlock()
		close(b.done)
	}
}

// finishShard records one shard's completion; the last one releases Run.
func (b *batch) finishShard() {
	if b.remaining.Add(-1) == 0 && b.settled.CompareAndSwap(false, true) {
		close(b.done)
	}
}

// finished reports whether the batch has settled (success, failure or
// cancellation); settled batches' queued shards are dropped, not run.
func (b *batch) finished() bool { return b.settled.Load() }

// task is one shard of a batch. claimed is the double-merge guard: with
// hedging, two devices may finish the same shard, and only the CAS winner
// copies its scores and decrements the batch's remaining count.
type task struct {
	b       *batch
	offset  int
	n       int
	claimed atomic.Bool

	// Guarded by the scheduler mu.
	attempts int
	hedged   bool
	tried    map[int]bool // device id → failed here before
}

func (t *task) pairs() []dna.Pair { return t.b.pairs[t.offset : t.offset+t.n] }

// New builds the scheduler and starts its workers.
func New(cfg Config) (*Scheduler, error) {
	if len(cfg.Devices) == 0 {
		return nil, errors.New("fleet: no devices configured")
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	if cfg.MinShard <= 0 {
		cfg.MinShard = 4
	}
	if cfg.SuspectAfter <= 0 {
		cfg.SuspectAfter = 1
	}
	if cfg.QuarantineAfter <= 0 {
		cfg.QuarantineAfter = 3
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = time.Second
	}
	if cfg.MaxRedispatch <= 0 {
		cfg.MaxRedispatch = 2*len(cfg.Devices) + 2
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	s := &Scheduler{
		cfg:      cfg,
		policy:   health.Policy{SuspectAfter: cfg.SuspectAfter, QuarantineAfter: cfg.QuarantineAfter},
		byName:   make(map[string]*Device, len(cfg.Devices)),
		inflight: make(map[*batch]struct{}),
		stop:     make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	for i, dc := range cfg.Devices {
		if dc.Name == "" {
			return nil, fmt.Errorf("fleet: device %d has no name", i)
		}
		if _, dup := s.byName[dc.Name]; dup {
			return nil, fmt.Errorf("fleet: duplicate device name %q", dc.Name)
		}
		d := &Device{
			id:          i,
			name:        dc.Name,
			cpu:         dc.CPU,
			spec:        dc.Spec,
			globalBytes: dc.GlobalBytes,
			flaky:       dc.Flaky,
			ks:          &cudasim.KillSwitch{},
		}
		if m := cfg.Metrics; m != nil {
			d.mState = m.Gauge(obs.L("fleet_device_state", "device", d.name))
			d.health.OnChange = func(to State) { d.mState.Set(float64(to)) }
			d.mDepth = m.Gauge(obs.L("fleet_device_queue_depth", "device", d.name))
			d.mSteals = m.Counter(obs.L("fleet_steals_total", "device", d.name))
			d.mQuar = m.Counter(obs.L("fleet_quarantines_total", "device", d.name))
			d.mRead = m.Counter(obs.L("fleet_readmissions_total", "device", d.name))
			d.mState.Set(float64(Healthy))
		}
		s.devices = append(s.devices, d)
		s.byName[dc.Name] = d
	}
	if m := cfg.Metrics; m != nil {
		m.Help("fleet_device_state", "Device health state (0 healthy, 1 suspect, 2 quarantined, 3 probing)")
		m.Help("fleet_device_queue_depth", "Shards waiting in the device's queue")
		s.mBatches = m.Counter("fleet_batches_total")
		s.mBatchesFailed = m.Counter("fleet_batches_failed_total")
		s.mShards = m.Counter("fleet_shards_total")
		s.mRequeues = m.Counter("fleet_requeues_total")
		s.mHedges = m.Counter("fleet_hedges_total")
		s.mKills = m.Counter("fleet_kills_total")
		s.mRevives = m.Counter("fleet_revives_total")
	}
	for _, d := range s.devices {
		s.wg.Add(1)
		go s.worker(d)
	}
	s.wg.Add(1)
	go s.prober()
	if cfg.HedgeAfter > 0 {
		s.wg.Add(1)
		go s.hedger()
	}
	return s, nil
}

// Close stops the workers, fails every in-flight batch with ErrClosed and
// waits for the goroutines to exit. Safe to call once.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	for b := range s.inflight {
		b.fail(ErrClosed)
	}
	close(s.stop)
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
}

// Run splits pairs into shards, spreads them over the fleet and blocks
// until every shard completed (returning exactly one score per pair), the
// context is done, or a shard exhausted every device (the returned error
// wraps both ErrNoDevices and the last shard error, so typed causes like
// cudasim.ErrDeviceKilled remain matchable with errors.Is).
func (s *Scheduler) Run(ctx context.Context, pairs []dna.Pair, exec ExecFunc) ([]int, error) {
	if len(pairs) == 0 {
		return []int{}, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	b := &batch{
		ctx:    ctx,
		exec:   exec,
		pairs:  pairs,
		scores: make([]int, len(pairs)),
		done:   make(chan struct{}),
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	live := 0
	gpuLive := 0
	for _, d := range s.devices {
		if d.takesWork() {
			live++
			if !d.cpu {
				gpuLive++
			}
		}
	}
	if live == 0 {
		// Everything is quarantined or probing. The CPU member exists to
		// make this near-impossible, but a fully-killed fleet must still
		// fail typed rather than hang.
		s.mu.Unlock()
		return nil, ErrNoDevices
	}
	width := gpuLive
	if width == 0 {
		width = live
	}
	nShards := min(width, max(1, len(pairs)/s.cfg.MinShard))
	tasks := makeShards(b, nShards)
	b.remaining.Store(int64(len(tasks)))
	s.inflight[b] = struct{}{}
	s.batches++
	s.shards += int64(len(tasks))
	if s.mBatches != nil {
		s.mBatches.Inc()
		s.mShards.Add(int64(len(tasks)))
	}
	for _, t := range tasks {
		if err := s.enqueueLocked(t, false); err != nil {
			// Queues full: wait for space, re-checking the context (the
			// prober broadcasts every tick, bounding the wait).
			for err != nil && ctx.Err() == nil && !s.closed {
				s.cond.Wait()
				err = s.enqueueLocked(t, false)
			}
			if err != nil {
				if s.closed {
					err = ErrClosed
				} else {
					err = ctx.Err()
				}
				delete(s.inflight, b)
				s.mu.Unlock()
				b.fail(err)
				return nil, err
			}
		}
	}
	s.mu.Unlock()

	select {
	case <-b.done:
	case <-ctx.Done():
		b.fail(ctx.Err())
	}
	<-b.done

	s.mu.Lock()
	delete(s.inflight, b)
	s.mu.Unlock()

	b.errMu.Lock()
	err := b.err
	b.errMu.Unlock()
	if err != nil {
		s.mu.Lock()
		s.batchesFailed++
		if s.mBatchesFailed != nil {
			s.mBatchesFailed.Inc()
		}
		s.mu.Unlock()
		return nil, err
	}
	return b.scores, nil
}

// makeShards cuts the batch into n contiguous shards of near-equal size.
func makeShards(b *batch, n int) []*task {
	total := len(b.pairs)
	base, rem := total/n, total%n
	tasks := make([]*task, 0, n)
	off := 0
	for i := 0; i < n; i++ {
		sz := base
		if i < rem {
			sz++
		}
		if sz == 0 {
			continue
		}
		tasks = append(tasks, &task{b: b, offset: off, n: sz, tried: make(map[int]bool)})
		off += sz
	}
	return tasks
}

// enqueueLocked places t on the best eligible queue. Preference order: the
// shortest queue among devices that take work, have room (unless force) and
// have not already failed this task — GPUs before the CPU member on first
// dispatch, anyone on re-dispatch. force (used for re-queues, where losing
// the shard is worse than overflowing the bound) ignores the depth bound
// and the tried set as a last resort. Caller holds mu.
func (s *Scheduler) enqueueLocked(t *task, force bool) error {
	pick := func(allowTried, allowCPU, bounded bool) *Device {
		var best *Device
		for _, d := range s.devices {
			if !d.takesWork() {
				continue
			}
			if d.cpu && !allowCPU {
				continue
			}
			if !allowTried && t.tried[d.id] {
				continue
			}
			if bounded && len(d.queue) >= s.cfg.QueueDepth {
				continue
			}
			if best == nil || len(d.queue) < len(best.queue) {
				best = d
			}
		}
		return best
	}
	redispatch := t.attempts > 0
	d := pick(false, redispatch, true)
	if d == nil {
		d = pick(false, true, true) // open up the CPU member
	}
	if d == nil && force {
		d = pick(false, true, false) // ignore the depth bound
		if d == nil {
			d = pick(true, true, false) // last resort: retry a tried device
		}
	}
	if d == nil {
		if pick(true, true, false) == nil {
			return ErrNoDevices
		}
		return errQueuesFull
	}
	d.queue = append(d.queue, t)
	d.noteDepth()
	s.cond.Broadcast()
	return nil
}

var errQueuesFull = errors.New("fleet: all eligible queues full")

// worker is one device's execution loop: take a shard (own queue first,
// then steal), run it, account the outcome.
func (s *Scheduler) worker(d *Device) {
	defer s.wg.Done()
	for {
		t := s.take(d)
		if t == nil {
			return
		}
		s.runTask(d, t)
	}
}

// take blocks until the device has a shard to run (or the scheduler is
// closed, returning nil). Quarantined and probing devices do not take work;
// their own queues are drained by the other members' stealing.
func (s *Scheduler) take(d *Device) *task {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.closed {
			return nil
		}
		if d.takesWork() {
			// Own queue first (FIFO).
			if t := popFront(&d.queue, d); t != nil {
				d.running, d.runningSince = t, s.cfg.now()
				return t
			}
			// Steal from the longest queue — including quarantined
			// members' queues, which is how their stranded shards escape.
			// The CPU member stays last-resort: while any GPU is live it
			// only steals shards that already failed somewhere or shards
			// orphaned on a member that can no longer run them.
			gpuLive := false
			for _, v := range s.devices {
				if !v.cpu && v.takesWork() {
					gpuLive = true
					break
				}
			}
			var victim *Device
			for _, v := range s.devices {
				if v == d || len(v.queue) == 0 {
					continue
				}
				if victim == nil || len(v.queue) > len(victim.queue) {
					victim = v
				}
			}
			if victim != nil {
				steal := func(*task) bool { return true }
				if d.cpu && gpuLive && victim.takesWork() {
					steal = func(t *task) bool { return t.attempts > 0 }
				}
				if t := popBackWhere(&victim.queue, victim, steal); t != nil {
					d.steals++
					if d.mSteals != nil {
						d.mSteals.Inc()
					}
					d.running, d.runningSince = t, s.cfg.now()
					return t
				}
			}
		}
		s.cond.Wait()
	}
}

// popFront pops the first live task (dropping settled/claimed ones).
func popFront(q *[]*task, d *Device) *task {
	for len(*q) > 0 {
		t := (*q)[0]
		*q = (*q)[1:]
		d.noteDepth()
		if t.b.finished() || t.claimed.Load() {
			continue
		}
		return t
	}
	return nil
}

// popBackWhere pops the last live task matching ok — stealing takes from
// the cold end. Dead (settled/claimed) tasks are dropped regardless;
// non-matching live tasks stay queued.
func popBackWhere(q *[]*task, d *Device, ok func(*task) bool) *task {
	for i := len(*q) - 1; i >= 0; i-- {
		t := (*q)[i]
		if t.b.finished() || t.claimed.Load() {
			*q = append((*q)[:i], (*q)[i+1:]...)
			d.noteDepth()
			continue
		}
		if !ok(t) {
			continue
		}
		*q = append((*q)[:i], (*q)[i+1:]...)
		d.noteDepth()
		return t
	}
	return nil
}

// runTask executes one shard on one device and settles the outcome.
func (s *Scheduler) runTask(d *Device, t *task) {
	ctx := t.b.ctx
	cancel := func() {}
	if s.cfg.ShardTimeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, s.cfg.ShardTimeout)
	}
	start := s.cfg.now()
	scores, err := runGuarded(ctx, t.b.exec, d, t.pairs())
	cancel()
	elapsed := s.cfg.now().Sub(start)
	if err == nil && len(scores) != t.n {
		err = fmt.Errorf("fleet: exec returned %d scores for %d pairs", len(scores), t.n)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	d.running, d.runningSince = nil, time.Time{}
	d.busy += elapsed

	if err == nil {
		d.completed++
		d.pairsDone += int64(t.n)
		// A served shard clears suspicion but never readmits: a quarantined
		// device comes back only through its self-test.
		d.health.Success(false)
		if t.claimed.CompareAndSwap(false, true) {
			copy(t.b.scores[t.offset:t.offset+t.n], scores)
			t.b.finishShard()
		} else {
			s.hedgeWaste++ // the hedge twin won; this result is discarded
		}
		s.cond.Broadcast()
		return
	}

	if t.b.ctx.Err() != nil {
		// The batch was cancelled, not the device failing: the batch is
		// settled by Run; don't punish the device or re-queue.
		s.cond.Broadcast()
		return
	}
	d.failed++
	d.lastErr = err.Error()
	if errors.Is(err, context.DeadlineExceeded) {
		d.timeouts++
	}
	s.noteFailureLocked(d)
	if t.b.finished() || t.claimed.Load() {
		s.cond.Broadcast()
		return // a hedge twin already completed the shard
	}
	t.tried[d.id] = true
	t.attempts++
	if t.attempts > s.cfg.MaxRedispatch {
		t.b.fail(fmt.Errorf("fleet: shard [%d,%d) gave up after %d attempts: %w (last error: %w)",
			t.offset, t.offset+t.n, t.attempts, ErrNoDevices, err))
		s.cond.Broadcast()
		return
	}
	s.requeues++
	if s.mRequeues != nil {
		s.mRequeues.Inc()
	}
	if qerr := s.enqueueLocked(t, true); qerr != nil {
		t.b.fail(fmt.Errorf("fleet: shard [%d,%d) unplaceable: %w (last error: %w)",
			t.offset, t.offset+t.n, ErrNoDevices, err))
	}
	s.cond.Broadcast()
}

// runGuarded invokes exec, converting a panic into an error so one bad
// kernel cannot take down the whole fleet's worker.
func runGuarded(ctx context.Context, exec ExecFunc, d *Device, pairs []dna.Pair) (scores []int, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("fleet: exec panicked on %s: %v", d.Name(), r)
		}
	}()
	return exec(ctx, d, pairs)
}

// noteFailureLocked advances the failure streak through the health machine.
func (s *Scheduler) noteFailureLocked(d *Device) {
	if d.health.Failure(s.policy, s.cfg.now()) && d.mQuar != nil {
		d.mQuar.Inc()
	}
}

// KillDevice flips the named device's kill switch: every operation on it —
// including launches already in flight — fails with a typed
// cudasim.ErrDeviceKilled until ReviveDevice. Quarantine follows from the
// traffic-driven failures, exactly as a real device loss would surface.
func (s *Scheduler) KillDevice(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.byName[name]
	if !ok {
		return fmt.Errorf("fleet: unknown device %q", name)
	}
	d.ks.Kill()
	s.kills++
	if s.mKills != nil {
		s.mKills.Inc()
	}
	return nil
}

// ReviveDevice clears the named device's kill switch. Readmission is not
// immediate: the device stays quarantined until the prober's self-test
// passes.
func (s *Scheduler) ReviveDevice(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.byName[name]
	if !ok {
		return fmt.Errorf("fleet: unknown device %q", name)
	}
	d.ks.Revive()
	s.revives++
	if s.mRevives != nil {
		s.mRevives.Inc()
	}
	return nil
}

// NoteBreakerOpen feeds alignsvc's circuit-breaker signal into device
// health: when a GPU tier's breaker opens, every healthy GPU member turns
// suspect, so the next few shard failures quarantine the right device
// quickly instead of re-walking the whole failure streak.
func (s *Scheduler) NoteBreakerOpen(tier string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, d := range s.devices {
		if !d.cpu {
			d.health.MarkSuspect()
		}
	}
}

// prober periodically moves quarantined devices (past the cooldown) to
// Probing, runs the self-test off-lock, and readmits or re-quarantines. It
// also broadcasts every tick so enqueue backpressure waits re-check their
// contexts within a bounded delay.
func (s *Scheduler) prober() {
	defer s.wg.Done()
	tick := max(s.cfg.ProbeInterval/4, time.Millisecond)
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
		}
		s.mu.Lock()
		var due []*Device
		for _, d := range s.devices {
			if d.health.StartProbe(s.cfg.ProbeInterval, s.cfg.now()) {
				d.probes++
				due = append(due, d)
			}
		}
		s.cond.Broadcast()
		s.mu.Unlock()
		for _, d := range due {
			err := d.selfTest(s.seq.Add(1))
			s.mu.Lock()
			if d.health.State == Probing { // a shard failure may have re-quarantined it
				if err == nil {
					d.health.Success(true)
					if d.mRead != nil {
						d.mRead.Inc()
					}
					s.cond.Broadcast()
				} else {
					d.health.Failure(s.policy, s.cfg.now())
					d.lastErr = err.Error()
				}
			}
			s.mu.Unlock()
		}
	}
}

// hedger re-dispatches the slowest outstanding shard: any shard running on
// one device longer than HedgeAfter is duplicated (once) onto another
// eligible device's queue. The claim CAS in runTask guarantees only one
// copy's scores are merged.
func (s *Scheduler) hedger() {
	defer s.wg.Done()
	tick := max(s.cfg.HedgeAfter/2, time.Millisecond)
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
		}
		s.mu.Lock()
		now := s.cfg.now()
		for _, d := range s.devices {
			t := d.running
			if t == nil || t.hedged || now.Sub(d.runningSince) < s.cfg.HedgeAfter {
				continue
			}
			if t.b.finished() || t.claimed.Load() {
				continue
			}
			// Find a second home: takes work, not the current runner, has
			// room, and hasn't already failed this shard.
			var alt *Device
			for _, v := range s.devices {
				if v == d || !v.takesWork() || t.tried[v.id] || len(v.queue) >= s.cfg.QueueDepth {
					continue
				}
				if alt == nil || len(v.queue) < len(alt.queue) {
					alt = v
				}
			}
			if alt == nil {
				continue
			}
			t.hedged = true
			alt.queue = append(alt.queue, t)
			alt.noteDepth()
			s.hedges++
			if s.mHedges != nil {
				s.mHedges.Inc()
			}
		}
		s.cond.Broadcast()
		s.mu.Unlock()
	}
}
