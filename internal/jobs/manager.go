// Package jobs turns the synchronous alignment service and corpus search
// into durable async batch jobs. A Manager splits each job into fixed-size
// chunks — pairs of an alignment batch, or sequence IDs of a corpus — runs
// every chunk (alignment chunks through alignsvc.Align, inheriting its
// retry, circuit breaker and degradation machinery; search chunks through
// the corpus searcher), and checkpoints each completed chunk to a jobstore
// WAL — so a crash, SIGKILL or drain loses at most the chunk in flight.
// Both kinds share one submit path and one chunk loop; only the per-chunk
// step differs. On startup the manager replays the WAL and requeues every
// incomplete job, resuming from the last checkpoint: already-checkpointed
// chunks are skipped, never re-executed (the store rejects duplicate
// checkpoints outright).
//
// Execution is a bounded pool: MaxConcurrent runner goroutines pull job IDs
// from a FIFO queue whose depth submission enforces (ErrQueueFull beyond
// it).
// Terminal jobs are garbage-collected after a TTL. BeginDrain stops runners
// at the next chunk boundary and requeues their jobs (running → queued in
// the WAL) instead of waiting for completion — the durable analogue of the
// server's graceful drain.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/alignsvc"
	"repro/internal/corpus"
	"repro/internal/dna"
	"repro/internal/jobstore"
	"repro/internal/obs"
	"repro/internal/tenant"
)

// Typed manager errors, mapped onto HTTP statuses by the server.
var (
	// ErrQueueFull rejects a submission when MaxQueued jobs are already
	// waiting (backpressure; retryable).
	ErrQueueFull = errors.New("jobs: queue full")
	// ErrDraining rejects submissions during shutdown.
	ErrDraining = errors.New("jobs: manager draining")
	// ErrNotFound is returned for unknown job IDs.
	ErrNotFound = errors.New("jobs: job not found")
	// ErrNotReady is returned by Result for a job that has no result yet.
	ErrNotReady = errors.New("jobs: job not finished")
	// ErrQuota rejects a submission that would exceed the tenant's
	// running-job cap (429 quota_exceeded at the server; retry after a job
	// finishes).
	ErrQuota = errors.New("jobs: tenant running-job quota exceeded")
)

// Config tunes the manager. Store and Service are required.
type Config struct {
	// Store is the WAL-backed job store (already opened and replayed).
	// The manager does not own it: callers Close it after Manager.Close.
	Store *jobstore.Store
	// Service executes the chunks. Shared with the synchronous /align path.
	Service *alignsvc.Service
	// ChunkSize is the number of pairs per chunk — the checkpoint (and
	// resume) granularity (default 64).
	ChunkSize int
	// Corpora, when set, enables kind:"search" jobs against its mounted
	// corpora (see SubmitSearchFor). Nil rejects search submissions.
	Corpora *corpus.Registry
	// SearchChunkSize is the number of corpus sequence IDs per search-job
	// chunk — the search checkpoint granularity (default 4096).
	SearchChunkSize int
	// MaxConcurrent bounds how many jobs execute at once (default 2).
	// MaxQueued bounds how many more may wait in FIFO order (default 64);
	// beyond that a submission fails fast with ErrQueueFull.
	MaxConcurrent, MaxQueued int
	// ChunkTimeout is the per-chunk deadline flowing into the service's
	// ladder (default 60s). A chunk that exceeds it fails the job.
	ChunkTimeout time.Duration
	// TTL is how long terminal jobs stay queryable before GC drops them
	// from the store (default 15m). GCInterval is the sweep period
	// (default 1m).
	TTL, GCInterval time.Duration
	// Metrics receives job-state gauges, checkpoint/recovery counters and
	// chunk-latency histograms (default obs.Default()).
	Metrics *obs.Registry
	// Traces, when set, receives one trace per finished job run with spans
	// for every executed chunk (the server wires its /tracez ring here).
	Traces *obs.TraceRing
	// Tenants, when set, supplies per-tenant running-job caps enforced by
	// SubmitFor against the WAL-backed store (so quotas hold across
	// restarts). Nil means every tenant is unlimited.
	Tenants *tenant.Registry
	// EventBuffer is each progress subscriber's ring-buffer depth; a slow
	// SSE client beyond it loses its oldest events instead of slowing the
	// runners (default 16).
	EventBuffer int

	// now replaces the GC clock in tests.
	now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.ChunkSize <= 0 {
		c.ChunkSize = 64
	}
	if c.SearchChunkSize <= 0 {
		c.SearchChunkSize = 4096
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2
	}
	if c.MaxQueued <= 0 {
		c.MaxQueued = 64
	}
	if c.ChunkTimeout <= 0 {
		c.ChunkTimeout = 60 * time.Second
	}
	if c.TTL <= 0 {
		c.TTL = 15 * time.Minute
	}
	if c.GCInterval <= 0 {
		c.GCInterval = time.Minute
	}
	if c.Metrics == nil {
		c.Metrics = obs.Default()
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// fifo is the unbounded job queue: submission enforces the depth bound, while
// recovery may exceed it (durable jobs are never dropped for queue space).
type fifo struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []string
	closed bool
}

func newFIFO() *fifo {
	q := &fifo{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *fifo) push(id string) {
	q.mu.Lock()
	q.items = append(q.items, id)
	q.mu.Unlock()
	q.cond.Signal()
}

// pop blocks for the next ID; ok is false once the queue is closed and
// empty of signals (drain/shutdown).
func (q *fifo) pop() (string, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && !q.closed {
		q.cond.Wait()
	}
	if q.closed {
		return "", false
	}
	id := q.items[0]
	q.items = q.items[1:]
	return id, true
}

func (q *fifo) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

func (q *fifo) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

// Manager runs the durable job state machine. Create with New (which
// recovers and requeues incomplete jobs from the store), submit with
// SubmitFor or SubmitSearchFor, and shut down with BeginDrain + Drain +
// Close.
type Manager struct {
	cfg   Config
	store *jobstore.Store
	queue *fifo
	hub   *hub

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup
	gcQuit     chan struct{}
	gcDone     chan struct{}

	draining  chan struct{}
	drainOnce sync.Once
	closing   atomic.Bool

	running atomic.Int64

	submitted, dedupHits                          atomic.Int64
	completed, failed, cancelled                  atomic.Int64
	recovered, requeued                           atomic.Int64
	chunksExecuted, chunksCheckpointed            atomic.Int64
	chunksSkipped, gcDropped, recoveredChunksDone atomic.Int64
	cacheWarmed                                   atomic.Int64

	obs *obs.Registry
}

// New builds the manager, initializes the state gauges from the replayed
// store, requeues every incomplete job (resuming from its checkpoints), and
// starts the runner pool and the GC sweep.
func New(cfg Config) (*Manager, error) {
	cfg = cfg.withDefaults()
	if cfg.Store == nil || cfg.Service == nil {
		return nil, errors.New("jobs: Config.Store and Config.Service are required")
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		cfg:        cfg,
		store:      cfg.Store,
		queue:      newFIFO(),
		hub:        newHub(cfg.EventBuffer),
		baseCtx:    ctx,
		baseCancel: cancel,
		gcQuit:     make(chan struct{}),
		gcDone:     make(chan struct{}),
		draining:   make(chan struct{}),
		obs:        cfg.Metrics,
	}
	m.obs.Help("jobs_state", "Jobs currently in each state.")
	m.obs.Help("jobs_submitted_total", "Jobs accepted (excluding idempotency dedup hits).")
	m.obs.Help("jobs_terminal_total", "Jobs reaching a terminal state, by state.")
	m.obs.Help("jobs_chunks_executed_total", "Chunks actually computed by the alignment service.")
	m.obs.Help("jobs_chunks_checkpointed_total", "Chunk score checkpoints appended to the WAL.")
	m.obs.Help("jobs_chunks_skipped_total", "Already-checkpointed chunks skipped on resume.")
	m.obs.Help("jobs_recovered_total", "Incomplete jobs requeued by startup recovery.")
	m.obs.Help("jobs_requeued_total", "Running jobs checkpointed and requeued by drain.")
	m.obs.Help("jobs_chunk_seconds", "Wall time per executed chunk.")
	m.obs.Help("jobs_cache_warmed_total", "Pair scores republished from WAL checkpoints into the score cache at startup.")

	// Recovery: every incomplete job in the replayed store goes back on the
	// FIFO in submission order. Jobs the crash left "running" are returned
	// to queued first, so the WAL and the gauges agree with reality.
	for _, j := range m.store.List() {
		switch j.State {
		case jobstore.StateRunning:
			if _, err := m.store.SetState(j.ID, jobstore.StateQueued, ""); err != nil {
				return nil, fmt.Errorf("jobs: recover %s: %w", j.ID, err)
			}
			fallthrough
		case jobstore.StateQueued:
			m.queue.push(j.ID)
			m.recovered.Add(1)
			m.recoveredChunksDone.Add(int64(j.ChunksDone()))
			m.obs.Counter("jobs_recovered_total").Inc()
		}
	}
	m.refreshStateGauges()

	// Checkpointed chunk scores are durable and exact, so republish them
	// into the service's score cache: replayed chunks and re-submitted
	// identical pairs then hit instead of recomputing, even across process
	// restarts. Warming walks every job — terminal ones included, since
	// their scores are just as valid for future submissions.
	if cfg.Service.CacheEnabled() {
		warmed := 0
		for _, j := range m.store.List() {
			if j.Kind != "" {
				continue // search checkpoints hold hits, not pair scores
			}
			for c, scores := range j.Chunks {
				lo, hi := j.ChunkBounds(c)
				pairs, err := parsePairs(j.Pairs[lo:hi])
				if err != nil {
					continue // corrupt pairs fail the job at execution time, not here
				}
				warmed += cfg.Service.WarmCache(pairs, scores)
			}
		}
		if warmed > 0 {
			m.cacheWarmed.Add(int64(warmed))
			m.obs.Counter("jobs_cache_warmed_total").Add(int64(warmed))
		}
	}

	m.wg.Add(cfg.MaxConcurrent)
	for i := 0; i < cfg.MaxConcurrent; i++ {
		go m.runner()
	}
	go m.gcLoop()
	return m, nil
}

// refreshStateGauges re-derives the per-state job gauges from the store.
func (m *Manager) refreshStateGauges() {
	counts := m.store.StateCounts()
	for _, st := range []jobstore.State{jobstore.StateQueued, jobstore.StateRunning,
		jobstore.StateDone, jobstore.StateFailed, jobstore.StateCancelled} {
		m.obs.Gauge(obs.L("jobs_state", "state", st.String())).Set(float64(counts[st]))
	}
}

// newJobID returns a fresh random job ID, re-rolling on the (cosmic-ray)
// chance of a collision with a live job.
func (m *Manager) newJobID() string {
	for {
		id := fmt.Sprintf("job-%016x", rand.Uint64())
		if _, exists := m.store.Get(id); !exists {
			return id
		}
	}
}

// normalizeTenant maps the wire tenant ID onto the store's owner field:
// the anonymous tenant is stored as "" (matching pre-tenancy WAL records).
func normalizeTenant(id string) string {
	if id == tenant.AnonymousID {
		return ""
	}
	return id
}

// displayTenant is the inverse of normalizeTenant, for errors and wire
// output.
func displayTenant(id string) string {
	if id == "" {
		return tenant.AnonymousID
	}
	return id
}

// storeKey namespaces an idempotency key by owning tenant, so equal keys
// from different tenants deduplicate independently (and one tenant can
// never be handed another tenant's job by key collision). Anonymous keys
// stay bare for WAL back-compat. The NUL separator cannot appear in either
// side: tenant.NewRegistry rejects NUL in tenant IDs and SubmitFor (plus
// the server's request validation) rejects NUL in client keys, so the
// namespacing is not forgeable through the JSON body.
func storeKey(tenantID, key string) string {
	if key == "" || tenantID == "" {
		return key
	}
	return tenantID + "\x00" + key
}

// SubmitFor persists a new alignment job owned by a tenant and queues it,
// returning its snapshot. A non-empty idempotency key that matches one of
// the tenant's live jobs returns that job instead (created=false) —
// re-sent submissions are deduplicated, not re-executed. Submissions
// beyond the tenant's MaxRunningJobs cap fail with ErrQuota.
func (m *Manager) SubmitFor(pairs []dna.Pair, key, tenantID string) (snap Snapshot, created bool, err error) {
	if len(pairs) == 0 {
		return Snapshot{}, false, errors.New("jobs: empty batch")
	}
	return m.submit(key, tenantID, func(id, sk, tid string) (*jobstore.Job, error) {
		data := make([]jobstore.PairData, len(pairs))
		for i, p := range pairs {
			data[i] = jobstore.PairData{X: p.X.String(), Y: p.Y.String()}
		}
		return m.store.SubmitOwned(id, sk, tid, m.cfg.ChunkSize, data)
	})
}

// submit is the submission path both kinds share: refuse while draining
// or for a NUL key, answer an idempotency-key match with the existing job,
// enforce the tenant's running-job quota and the queue bound, then persist
// the job through write (given the new ID, the tenant-namespaced key and
// the stored tenant), publish it and queue it.
func (m *Manager) submit(key, tenantID string, write func(id, storeKey, tenant string) (*jobstore.Job, error)) (Snapshot, bool, error) {
	tid := normalizeTenant(tenantID)
	if m.Draining() {
		return Snapshot{}, false, ErrDraining
	}
	if strings.ContainsRune(key, 0) {
		return Snapshot{}, false, errors.New("jobs: idempotency key must not contain NUL bytes")
	}
	sk := storeKey(tid, key)
	if sk != "" {
		if j, ok := m.store.ByKey(sk); ok && j.Tenant == tid {
			m.dedupHits.Add(1)
			m.obs.Counter("jobs_dedup_hits_total").Inc()
			return m.snapshot(j), false, nil
		}
	}
	if max := m.cfg.Tenants.MaxRunningJobs(tid); max > 0 {
		if live := m.store.ActiveByTenant(tid); live >= max {
			return Snapshot{}, false, fmt.Errorf("%w: tenant %q has %d live job(s), cap %d",
				ErrQuota, displayTenant(tid), live, max)
		}
	}
	if m.queue.len() >= m.cfg.MaxQueued {
		return Snapshot{}, false, fmt.Errorf("%w (%d queued)", ErrQueueFull, m.cfg.MaxQueued)
	}
	j, err := write(m.newJobID(), sk, tid)
	if err != nil {
		return Snapshot{}, false, err
	}
	m.submitted.Add(1)
	m.obs.Counter("jobs_submitted_total").Inc()
	m.refreshStateGauges()
	m.hub.publish(j.ID, EventState, m.snapshot(j))
	m.queue.push(j.ID)
	return m.snapshot(j), true, nil
}

// owned fetches a job iff the tenant owns it. Another tenant's job answers
// ErrNotFound — existence itself is tenant-private.
func (m *Manager) owned(id, tenantID string) (*jobstore.Job, error) {
	j, ok := m.store.Get(id)
	if !ok || j.Tenant != normalizeTenant(tenantID) {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return j, nil
}

// GetFor returns a snapshot of one of the tenant's jobs.
func (m *Manager) GetFor(id, tenantID string) (Snapshot, error) {
	j, err := m.owned(id, tenantID)
	if err != nil {
		return Snapshot{}, err
	}
	return m.snapshot(j), nil
}

// ResultFor returns the assembled scores of one of the tenant's done
// alignment jobs (see finished for the other states). A done search job
// fails with ErrWrongKind.
func (m *Manager) ResultFor(id, tenantID string) ([]int, Snapshot, error) {
	j, snap, err := m.finished(id, tenantID)
	if j == nil {
		return nil, snap, err
	}
	scores, err := j.Scores()
	return scores, snap, err
}

// finished is the terminal-state mapping both result accessors share. It
// returns the job only when it is done, for the caller to assemble its
// result. A failed or cancelled job returns its snapshot and no error, so
// the caller can surface the terminal reason; an unfinished job fails with
// ErrNotReady.
func (m *Manager) finished(id, tenantID string) (*jobstore.Job, Snapshot, error) {
	j, err := m.owned(id, tenantID)
	if err != nil {
		return nil, Snapshot{}, err
	}
	snap := m.snapshot(j)
	switch j.State {
	case jobstore.StateDone:
		return j, snap, nil
	case jobstore.StateFailed, jobstore.StateCancelled:
		return nil, snap, nil
	}
	return nil, snap, fmt.Errorf("%w: %s is %s", ErrNotReady, id, j.State)
}

// CancelFor moves one of the tenant's jobs to cancelled. Queued jobs are
// cancelled in place (the runner skips them); running jobs are cancelled
// authoritatively in the store, and the runner's next write observes the
// terminal state and stops. Cancelling an already-terminal job is a no-op.
func (m *Manager) CancelFor(id, tenantID string) (Snapshot, error) {
	j, err := m.owned(id, tenantID)
	if err != nil {
		return Snapshot{}, err
	}
	if j.State.Terminal() {
		return m.snapshot(j), nil
	}
	if _, err := m.store.SetState(id, jobstore.StateCancelled, ""); err != nil {
		// A racing transition (the runner finishing this instant) may win;
		// surface the job as it now is.
		if j2, ok := m.store.Get(id); ok && j2.State.Terminal() {
			return m.snapshot(j2), nil
		}
		return Snapshot{}, err
	}
	m.cancelled.Add(1)
	m.obs.Counter(obs.L("jobs_terminal_total", "state", "cancelled")).Inc()
	m.refreshStateGauges()
	m.publishEvent(id, EventState)
	j, _ = m.store.Get(id)
	return m.snapshot(j), nil
}

// EventsFor subscribes to a job's live progress feed, scoped to the owning
// tenant. The subscription is seeded with a snapshot event carrying the
// job's current progress (so a late subscriber replays the last
// checkpoint), then receives a state event per transition and a chunk
// event per checkpoint. The caller must Close the subscription.
func (m *Manager) EventsFor(id, tenantID string) (*Sub, error) {
	j, err := m.owned(id, tenantID)
	if err != nil {
		return nil, err
	}
	return m.hub.subscribe(id, func() Snapshot {
		if cur, ok := m.store.Get(id); ok {
			return m.snapshot(cur)
		}
		return m.snapshot(j)
	}), nil
}

// publishEvent publishes the job's current store state on its feed.
func (m *Manager) publishEvent(id, typ string) {
	if j, ok := m.store.Get(id); ok {
		m.hub.publish(id, typ, m.snapshot(j))
	}
}

// BeginDrain stops runners at their next chunk boundary (requeueing their
// jobs) and makes submissions fail fast. Queued jobs stay queued — they are
// durable and resume on the next start. Safe to call more than once.
func (m *Manager) BeginDrain() {
	m.drainOnce.Do(func() {
		close(m.draining)
		m.queue.close()
		// Progress feeds end with a drain event; SSE handlers unblock
		// immediately instead of stalling the HTTP server's shutdown.
		m.hub.close()
	})
}

// Draining reports whether BeginDrain has been called.
func (m *Manager) Draining() bool {
	select {
	case <-m.draining:
		return true
	default:
		return false
	}
}

// Drain blocks until every runner has checkpointed and parked its job, or
// ctx expires. It implies BeginDrain.
func (m *Manager) Drain(ctx context.Context) error {
	m.BeginDrain()
	t := time.NewTicker(2 * time.Millisecond)
	defer t.Stop()
	for {
		if m.running.Load() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("jobs: drain: %d job(s) still running: %w", m.running.Load(), ctx.Err())
		case <-t.C:
		}
	}
}

// Close hard-stops the manager: the runner pool and GC exit without
// waiting for chunk boundaries (in-flight chunks are abandoned exactly as a
// crash would abandon them — the WAL keeps those jobs resumable). For a
// graceful stop, Drain first.
func (m *Manager) Close() {
	m.closing.Store(true)
	m.baseCancel()
	m.BeginDrain()
	m.wg.Wait()
	close(m.gcQuit)
	<-m.gcDone
}

// runner is one slot of the bounded pool: pull a job ID, run it to a
// terminal state (or a drain/crash boundary), repeat.
func (m *Manager) runner() {
	defer m.wg.Done()
	for {
		id, ok := m.queue.pop()
		if !ok {
			return
		}
		m.runJob(id)
	}
}

// chunkStep is one job kind's part of the chunk loop, built once per job
// run. run computes chunk c and returns the write that checkpoints it;
// span names the chunk's trace span.
type chunkStep struct {
	span string
	run  func(ctx context.Context, c int) (checkpoint func() error, err error)
}

// step builds the job's chunk step, or fails with the message the job
// fails with.
func (m *Manager) step(j *jobstore.Job) (chunkStep, error) {
	if j.Kind == jobstore.KindSearch {
		return m.searchStep(j)
	}
	return chunkStep{span: "jobs.chunk", run: func(ctx context.Context, c int) (func() error, error) {
		lo, hi := j.ChunkBounds(c)
		pairs, err := parsePairs(j.Pairs[lo:hi])
		if err != nil {
			return nil, err
		}
		res, err := m.cfg.Service.Align(ctx, pairs)
		if err != nil {
			return nil, err
		}
		return func() error { return m.store.AddChunk(j.ID, c, res.Scores) }, nil
	}}, nil
}

// runJob executes one job chunk by chunk, checkpointing each completed
// chunk. It resumes past chunks that are already checkpointed (recovery),
// parks the job at a chunk boundary when draining, and converts step
// errors into a failed state with a typed message. Both job kinds run
// here; only the step differs.
func (m *Manager) runJob(id string) {
	// Claim: queued → running. Losing this transition means the job was
	// cancelled while queued — nothing to do.
	if _, err := m.store.SetState(id, jobstore.StateRunning, ""); err != nil {
		return
	}
	m.running.Add(1)
	defer m.running.Add(-1)
	m.refreshStateGauges()
	m.publishEvent(id, EventState)

	j, ok := m.store.Get(id)
	if !ok {
		return
	}
	tr := obs.NewTrace("")
	ctx := obs.WithTrace(m.baseCtx, tr)
	endJob := tr.StartSpan("jobs.run." + id)
	// stopped ends a run that writes no state of its own: finish has just
	// written it, or the job was cancelled (or dropped) underneath us and
	// the store already holds its terminal state.
	stopped := func() {
		endJob()
		if m.cfg.Traces != nil {
			m.cfg.Traces.Add(tr)
		}
	}
	finish := func(to jobstore.State, msg string) {
		if _, err := m.store.SetState(id, to, msg); err == nil {
			switch to {
			case jobstore.StateDone:
				m.completed.Add(1)
				m.obs.Counter(obs.L("jobs_terminal_total", "state", "done")).Inc()
			case jobstore.StateFailed:
				m.failed.Add(1)
				m.obs.Counter(obs.L("jobs_terminal_total", "state", "failed")).Inc()
			case jobstore.StateQueued:
				m.requeued.Add(1)
				m.obs.Counter("jobs_requeued_total").Inc()
			}
			m.publishEvent(id, EventState)
		}
		m.refreshStateGauges()
		stopped()
	}
	terminal := func() bool {
		cur, ok := m.store.Get(id)
		return ok && cur.State.Terminal()
	}

	step, err := m.step(j)
	if err != nil {
		finish(jobstore.StateFailed, err.Error())
		return
	}
	chunkLat := m.obs.Histogram("jobs_chunk_seconds", obs.LatencyBuckets)
	n := j.NumChunks()
	for c := 0; c < n; c++ {
		if j.Checkpointed(c) {
			// Checkpointed before a crash or drain: skip, never re-execute.
			m.chunksSkipped.Add(1)
			m.obs.Counter("jobs_chunks_skipped_total").Inc()
			continue
		}
		if m.closing.Load() {
			// Hard stop: leave the job running in the WAL, exactly like a
			// crash; the next open recovers and resumes it.
			endJob()
			return
		}
		if m.Draining() {
			finish(jobstore.StateQueued, "") // checkpoint-and-requeue
			return
		}
		if cur, ok := m.store.Get(id); !ok || cur.State != jobstore.StateRunning {
			stopped()
			return
		}

		chunkCtx, cancel := context.WithTimeout(ctx, m.cfg.ChunkTimeout)
		endChunk := tr.StartSpan(fmt.Sprintf("%s.%d", step.span, c))
		begin := time.Now()
		checkpoint, err := step.run(chunkCtx, c)
		cancel()
		endChunk()
		if err != nil {
			switch {
			case m.closing.Load():
				endJob() // crash semantics, see above
			case terminal():
				stopped() // cancelled mid-chunk
			case errors.Is(err, context.DeadlineExceeded):
				finish(jobstore.StateFailed, fmt.Sprintf("chunk %d/%d: deadline exceeded after %v",
					c, n, m.cfg.ChunkTimeout))
			case errors.Is(err, context.Canceled):
				finish(jobstore.StateFailed, fmt.Sprintf("chunk %d/%d: canceled", c, n))
			default:
				finish(jobstore.StateFailed, fmt.Sprintf("chunk %d/%d: %v", c, n, err))
			}
			return
		}
		m.chunksExecuted.Add(1)
		m.obs.Counter("jobs_chunks_executed_total").Inc()
		chunkLat.ObserveDuration(time.Since(begin))
		if err := checkpoint(); err != nil {
			if terminal() {
				stopped() // cancelled between the chunk and its checkpoint
			} else {
				finish(jobstore.StateFailed, fmt.Sprintf("checkpoint chunk %d: %v", c, err))
			}
			return
		}
		m.chunksCheckpointed.Add(1)
		m.obs.Counter("jobs_chunks_checkpointed_total").Inc()
		m.publishEvent(id, EventChunk)
	}
	finish(jobstore.StateDone, "")
}

// parsePairs converts stored ACGT strings back into dna.Pairs.
func parsePairs(data []jobstore.PairData) ([]dna.Pair, error) {
	out := make([]dna.Pair, len(data))
	for i, p := range data {
		x, err := dna.Parse(p.X)
		if err != nil {
			return nil, fmt.Errorf("pair %d pattern: %w", i, err)
		}
		y, err := dna.Parse(p.Y)
		if err != nil {
			return nil, fmt.Errorf("pair %d text: %w", i, err)
		}
		out[i] = dna.Pair{X: x, Y: y}
	}
	return out, nil
}

// gcLoop drops terminal jobs older than TTL on every sweep.
func (m *Manager) gcLoop() {
	defer close(m.gcDone)
	t := time.NewTicker(m.cfg.GCInterval)
	defer t.Stop()
	for {
		select {
		case <-m.gcQuit:
			return
		case <-t.C:
			m.gcOnce()
		}
	}
}

// gcOnce performs one GC sweep (exported to tests via gc_test hooks).
func (m *Manager) gcOnce() {
	cutoff := m.cfg.now().Add(-m.cfg.TTL)
	for _, j := range m.store.List() {
		if j.State.Terminal() && j.Updated.Before(cutoff) {
			if _, err := m.store.Drop(j.ID); err == nil {
				m.gcDropped.Add(1)
				m.obs.Counter("jobs_gc_dropped_total").Inc()
			}
		}
	}
	m.refreshStateGauges()
}

// Stats snapshots the manager counters for /statsz.
func (m *Manager) Stats() Stats {
	counts := m.store.StateCounts()
	return Stats{
		Submitted:          m.submitted.Load(),
		DedupHits:          m.dedupHits.Load(),
		Completed:          m.completed.Load(),
		Failed:             m.failed.Load(),
		Cancelled:          m.cancelled.Load(),
		Recovered:          m.recovered.Load(),
		RecoveredChunks:    m.recoveredChunksDone.Load(),
		Requeued:           m.requeued.Load(),
		ChunksExecuted:     m.chunksExecuted.Load(),
		ChunksCheckpointed: m.chunksCheckpointed.Load(),
		ChunksSkipped:      m.chunksSkipped.Load(),
		CacheWarmed:        m.cacheWarmed.Load(),
		GCDropped:          m.gcDropped.Load(),
		Queued:             int64(counts[jobstore.StateQueued]),
		Running:            int64(counts[jobstore.StateRunning]),
		JobsHeld:           int64(m.store.Len()),
		MaxQueued:          int64(m.cfg.MaxQueued),
	}
}
