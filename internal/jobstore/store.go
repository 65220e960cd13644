package jobstore

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// State is one node of the job state machine:
//
//	queued → running → done
//	              ↘  → failed
//	queued/running → cancelled
//	running → queued        (drain requeue / crash recovery)
type State int

const (
	// StateQueued jobs wait in FIFO order for a runner slot.
	StateQueued State = iota
	// StateRunning jobs have a runner executing chunks.
	StateRunning
	// StateDone jobs have every chunk checkpointed; scores are assembled
	// from the checkpoints.
	StateDone
	// StateFailed jobs hit a non-retryable error (recorded in Job.Error).
	StateFailed
	// StateCancelled jobs were cancelled by the client.
	StateCancelled
	numStates
)

func (s State) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	case StateFailed:
		return "failed"
	case StateCancelled:
		return "cancelled"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// ParseState is the inverse of State.String.
func ParseState(s string) (State, error) {
	for st := StateQueued; st < numStates; st++ {
		if st.String() == s {
			return st, nil
		}
	}
	return 0, fmt.Errorf("jobstore: unknown job state %q", s)
}

func (s State) known() bool { return s >= 0 && s < numStates }

// Terminal reports whether the state ends the job's lifecycle.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// MarshalJSON renders the state name.
func (s State) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// UnmarshalJSON parses the state name.
func (s *State) UnmarshalJSON(b []byte) error {
	if len(b) < 2 || b[0] != '"' || b[len(b)-1] != '"' {
		return fmt.Errorf("jobstore: state must be a JSON string, got %q", b)
	}
	v, err := ParseState(string(b[1 : len(b)-1]))
	if err != nil {
		return err
	}
	*s = v
	return nil
}

// validTransition is the state machine's edge set.
func validTransition(from, to State) bool {
	switch from {
	case StateQueued:
		return to == StateRunning || to == StateCancelled
	case StateRunning:
		return to == StateDone || to == StateFailed || to == StateCancelled || to == StateQueued
	}
	return false
}

// Job is the durable view of one async job, rebuilt from the WAL on
// every open. Alignment jobs (Kind "") carry Pairs and checkpoint scores
// into Chunks; search jobs (KindSearch) carry a SearchSpec and
// checkpoint per-chunk top-K hits into SearchChunks.
type Job struct {
	ID        string
	Key       string // idempotency key ("" when the client sent none)
	Tenant    string // owning tenant ID ("" = the anonymous tenant)
	Kind      string // "" = alignment, KindSearch = corpus search
	State     State
	Error     string // failure message for StateFailed
	ChunkSize int
	Pairs     []PairData
	Search    *SearchSpec
	Chunks    map[int][]int
	// SearchChunks holds the checkpointed per-chunk top-K hits of a
	// search job by chunk index (present-but-empty is a legitimate
	// checkpoint: no candidate fell in the chunk's ID range).
	SearchChunks map[int][]HitData
	SubmitSeq    uint64    // WAL sequence of the submit record: FIFO order
	Created      time.Time // submit record timestamp
	Updated      time.Time // timestamp of the job's latest record
}

// units is how many items the job chunks over: pairs for alignment,
// corpus sequences for search.
func (j *Job) units() int {
	if j.Kind == KindSearch {
		return j.Search.SeqCount
	}
	return len(j.Pairs)
}

// NumChunks is how many chunks the job splits into.
func (j *Job) NumChunks() int {
	return (j.units() + j.ChunkSize - 1) / j.ChunkSize
}

// ChunkBounds returns the [lo, hi) item range of chunk idx: pair indices
// for alignment jobs, corpus sequence IDs for search jobs.
func (j *Job) ChunkBounds(idx int) (lo, hi int) {
	lo = idx * j.ChunkSize
	hi = min(lo+j.ChunkSize, j.units())
	return lo, hi
}

// ChunksDone counts checkpointed chunks of either kind.
func (j *Job) ChunksDone() int { return len(j.Chunks) + len(j.SearchChunks) }

// Checkpointed reports whether chunk idx holds a checkpoint of either kind.
func (j *Job) Checkpointed(idx int) bool {
	_, scores := j.Chunks[idx]
	_, hits := j.SearchChunks[idx]
	return scores || hits
}

// Scores assembles an alignment job's final score slice from the chunk
// checkpoints, failing if any chunk is missing or misshapen.
func (j *Job) Scores() ([]int, error) {
	if j.Kind == KindSearch {
		return nil, fmt.Errorf("%w: job %s is a search job", ErrWrongKind, j.ID)
	}
	out := make([]int, 0, len(j.Pairs))
	for c := 0; c < j.NumChunks(); c++ {
		lo, hi := j.ChunkBounds(c)
		scores, ok := j.Chunks[c]
		if !ok {
			return nil, fmt.Errorf("jobstore: job %s: chunk %d not checkpointed", j.ID, c)
		}
		if len(scores) != hi-lo {
			return nil, fmt.Errorf("jobstore: job %s: chunk %d has %d scores, want %d",
				j.ID, c, len(scores), hi-lo)
		}
		out = append(out, scores...)
	}
	return out, nil
}

// SearchHits merges a search job's per-chunk checkpoints into the final
// ranked top-K (score descending, then ID ascending — the same total
// order the searcher uses, so the merge is byte-identical to an
// uninterrupted search). Fails if any chunk is missing.
func (j *Job) SearchHits() ([]HitData, error) {
	if j.Kind != KindSearch {
		return nil, fmt.Errorf("%w: job %s is an alignment job", ErrWrongKind, j.ID)
	}
	var union []HitData
	for c := 0; c < j.NumChunks(); c++ {
		hits, ok := j.SearchChunks[c]
		if !ok {
			return nil, fmt.Errorf("jobstore: job %s: chunk %d not checkpointed", j.ID, c)
		}
		union = append(union, hits...)
	}
	sort.Slice(union, func(a, b int) bool {
		if union[a].Score != union[b].Score {
			return union[a].Score > union[b].Score
		}
		return union[a].ID < union[b].ID
	})
	if len(union) > j.Search.TopK {
		union = union[:j.Search.TopK]
	}
	return union, nil
}

// clone snapshots the job for readers. Pairs and per-chunk slices are
// shared (append-only once written), the chunk maps are copied.
func (j *Job) clone() *Job {
	c := *j
	c.Chunks = make(map[int][]int, len(j.Chunks))
	for k, v := range j.Chunks {
		c.Chunks[k] = v
	}
	c.SearchChunks = make(map[int][]HitData, len(j.SearchChunks))
	for k, v := range j.SearchChunks {
		c.SearchChunks[k] = v
	}
	return &c
}

// Typed store errors.
var (
	// ErrNotFound is returned for an unknown job ID.
	ErrNotFound = errors.New("jobstore: job not found")
	// ErrBadTransition is returned for a state change the machine forbids
	// (including any write to a terminal job).
	ErrBadTransition = errors.New("jobstore: invalid state transition")
	// ErrDuplicateChunk is returned when a chunk index is checkpointed
	// twice — the signature of duplicate chunk execution.
	ErrDuplicateChunk = errors.New("jobstore: chunk already checkpointed")
	// ErrWrongKind is returned when a kind-specific accessor or
	// checkpoint is used on a job of the other kind (e.g. Scores on a
	// search job).
	ErrWrongKind = errors.New("jobstore: wrong job kind")
)

// Options configures Open.
type Options struct {
	// Dir is the WAL directory (created if missing). Required.
	Dir string
	// SegmentBytes rotates to a new segment file once the current one
	// reaches this size (default 4 MiB).
	SegmentBytes int64
	// Sync is the fsync policy (default SyncAlways). SyncEvery is the
	// SyncInterval period (default 100ms).
	Sync      SyncPolicy
	SyncEvery time.Duration

	// now replaces the record-timestamp clock in tests.
	now func() time.Time
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.SyncEvery <= 0 {
		o.SyncEvery = 100 * time.Millisecond
	}
	if o.now == nil {
		o.now = time.Now
	}
	return o
}

// Store is the durable job store: an in-memory job map kept in lockstep
// with the WAL. Every mutation appends a record first, then applies it, so
// a crash at any point replays to a state the process actually reached.
// Safe for concurrent use.
type Store struct {
	opts Options

	mu    sync.Mutex
	w     *wal
	jobs  map[string]*Job
	byKey map[string]string // idempotency key → job ID
	seq   uint64
	open  bool

	syncQuit chan struct{}
	syncDone chan struct{}
}

// Open replays the WAL in dir (creating it if missing), truncates any torn
// or corrupt tail, rebuilds the job map, and returns the store positioned
// for appends. The report says how much was recovered and whether anything
// was cut.
func Open(opts Options) (*Store, ReplayReport, error) {
	opts = opts.withDefaults()
	if opts.Dir == "" {
		return nil, ReplayReport{}, errors.New("jobstore: Options.Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, ReplayReport{}, fmt.Errorf("jobstore: create dir: %w", err)
	}
	recs, rep, segs, plan, err := scanDir(opts.Dir)
	if err != nil {
		return nil, rep, err
	}
	if err := applyTruncPlan(opts.Dir, segs, plan); err != nil {
		return nil, rep, err
	}
	s := &Store{
		opts:  opts,
		jobs:  make(map[string]*Job),
		byKey: make(map[string]string),
		open:  true,
	}
	for _, rec := range recs {
		s.apply(rec) // replay is lenient: asserted valid at append time
		s.seq = rec.Seq
	}
	rep.Jobs = len(s.jobs)
	w, err := openWAL(opts.Dir, opts.SegmentBytes, opts.Sync, s.seq)
	if err != nil {
		return nil, rep, err
	}
	s.w = w
	if opts.Sync == SyncInterval {
		s.syncQuit = make(chan struct{})
		s.syncDone = make(chan struct{})
		go s.syncLoop()
	}
	return s, rep, nil
}

func (s *Store) syncLoop() {
	defer close(s.syncDone)
	t := time.NewTicker(s.opts.SyncEvery)
	defer t.Stop()
	for {
		select {
		case <-s.syncQuit:
			return
		case <-t.C:
			s.mu.Lock()
			if s.open {
				_ = s.w.sync()
			}
			s.mu.Unlock()
		}
	}
}

// Close fsyncs and closes the WAL. Further mutations fail.
func (s *Store) Close() error {
	s.mu.Lock()
	if !s.open {
		s.mu.Unlock()
		return nil
	}
	s.open = false
	err := s.w.close()
	s.mu.Unlock()
	if s.syncQuit != nil {
		close(s.syncQuit)
		<-s.syncDone
	}
	return err
}

// Sync forces an fsync of the current segment.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.open {
		return errors.New("jobstore: store closed")
	}
	return s.w.sync()
}

// apply folds one (already validated) record into the in-memory state.
// Replay and live appends share it, so memory always matches the log.
func (s *Store) apply(rec Record) {
	t := time.UnixMilli(rec.TimeMS)
	switch rec.Type {
	case RecSubmit:
		sub := rec.Submit
		j := &Job{
			ID:           sub.ID,
			Key:          sub.Key,
			Tenant:       sub.Tenant,
			Kind:         sub.Kind,
			State:        StateQueued,
			ChunkSize:    sub.ChunkSize,
			Pairs:        sub.Pairs,
			Search:       sub.Search,
			Chunks:       make(map[int][]int),
			SearchChunks: make(map[int][]HitData),
			SubmitSeq:    rec.Seq,
			Created:      t,
			Updated:      t,
		}
		s.jobs[sub.ID] = j
		if sub.Key != "" {
			s.byKey[sub.Key] = sub.ID
		}
	case RecState:
		if j, ok := s.jobs[rec.State.ID]; ok {
			j.State = rec.State.State
			j.Error = rec.State.Error
			j.Updated = t
		}
	case RecChunk:
		if j, ok := s.jobs[rec.Chunk.ID]; ok {
			if rec.Chunk.Search {
				hits := rec.Chunk.Hits
				if hits == nil {
					hits = []HitData{}
				}
				j.SearchChunks[rec.Chunk.Index] = hits
			} else {
				j.Chunks[rec.Chunk.Index] = rec.Chunk.Scores
			}
			j.Updated = t
		}
	case RecDrop:
		if j, ok := s.jobs[rec.Drop.ID]; ok {
			if j.Key != "" && s.byKey[j.Key] == j.ID {
				delete(s.byKey, j.Key)
			}
			delete(s.jobs, rec.Drop.ID)
		}
	}
}

// appendLocked persists one record and folds it into memory. Caller holds
// s.mu and has validated the mutation.
func (s *Store) appendLocked(rec Record) error {
	if !s.open {
		return errors.New("jobstore: store closed")
	}
	s.seq++
	rec.Seq = s.seq
	rec.TimeMS = nowMS(s.opts.now())
	if err := s.w.append(rec); err != nil {
		s.seq-- // the record never hit the log; keep seq in lockstep
		return err
	}
	s.apply(rec)
	return nil
}

// SubmitOwned persists a new alignment job in StateQueued owned by a
// tenant ("" = the anonymous tenant). The ID must be unused. The tenant
// ID is written to the WAL, so ownership (and any per-tenant running-job
// quota derived from it) survives replay.
func (s *Store) SubmitOwned(id, key, tenant string, chunkSize int, pairs []PairData) (*Job, error) {
	if id == "" || chunkSize <= 0 || len(pairs) == 0 {
		return nil, fmt.Errorf("jobstore: submit needs id, positive chunk size and pairs")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.jobs[id]; exists {
		return nil, fmt.Errorf("jobstore: job %s already exists", id)
	}
	err := s.appendLocked(Record{Type: RecSubmit,
		Submit: &SubmitRecord{ID: id, Key: key, Tenant: tenant, ChunkSize: chunkSize, Pairs: pairs}})
	if err != nil {
		return nil, err
	}
	return s.jobs[id].clone(), nil
}

// SubmitSearch persists a new corpus-search job in StateQueued. The spec
// must arrive fully resolved (positive TopK and SeqCount, corpus name,
// fingerprint and query set) so a replayed job re-derives the exact same
// candidate set; ChunkSize divides the corpus sequence-ID space.
func (s *Store) SubmitSearch(id, key, tenant string, chunkSize int, spec SearchSpec) (*Job, error) {
	if id == "" || chunkSize <= 0 {
		return nil, fmt.Errorf("jobstore: search submit needs id and positive chunk size")
	}
	if spec.Corpus == "" || spec.Query == "" || spec.SeqCount <= 0 || spec.TopK <= 0 {
		return nil, fmt.Errorf("jobstore: search submit needs corpus, query, positive seq count and top-k")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.jobs[id]; exists {
		return nil, fmt.Errorf("jobstore: job %s already exists", id)
	}
	sp := spec
	err := s.appendLocked(Record{Type: RecSubmit,
		Submit: &SubmitRecord{ID: id, Key: key, Tenant: tenant, Kind: KindSearch, ChunkSize: chunkSize, Search: &sp}})
	if err != nil {
		return nil, err
	}
	return s.jobs[id].clone(), nil
}

// SetState transitions a job, returning its previous state (for callers
// maintaining per-state gauges). Invalid transitions — including any write
// to a terminal job — fail with ErrBadTransition.
func (s *Store) SetState(id string, to State, errMsg string) (prev State, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if !validTransition(j.State, to) {
		return j.State, fmt.Errorf("%w: %s: %s → %s", ErrBadTransition, id, j.State, to)
	}
	prev = j.State
	err = s.appendLocked(Record{Type: RecState,
		State: &StateRecord{ID: id, State: to, Error: errMsg}})
	return prev, err
}

// AddChunk checkpoints chunk idx of a running job. Checkpointing the same
// index twice fails with ErrDuplicateChunk — re-executing a checkpointed
// chunk is a bug, and the log is the proof.
func (s *Store) AddChunk(id string, idx int, scores []int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if j.Kind != "" {
		return fmt.Errorf("%w: job %s is a %s job", ErrWrongKind, id, j.Kind)
	}
	if j.State != StateRunning {
		return fmt.Errorf("%w: %s: chunk checkpoint in state %s", ErrBadTransition, id, j.State)
	}
	if idx < 0 || idx >= j.NumChunks() {
		return fmt.Errorf("jobstore: job %s: chunk index %d out of range [0,%d)", id, idx, j.NumChunks())
	}
	if _, dup := j.Chunks[idx]; dup {
		return fmt.Errorf("%w: job %s chunk %d", ErrDuplicateChunk, id, idx)
	}
	lo, hi := j.ChunkBounds(idx)
	if len(scores) != hi-lo {
		return fmt.Errorf("jobstore: job %s: chunk %d got %d scores, want %d", id, idx, len(scores), hi-lo)
	}
	return s.appendLocked(Record{Type: RecChunk,
		Chunk: &ChunkRecord{ID: id, Index: idx, Scores: scores}})
}

// AddSearchChunk checkpoints chunk idx of a running search job with the
// chunk's top-K hits (possibly empty). Like AddChunk, checkpointing the
// same index twice fails with ErrDuplicateChunk — re-executing a
// checkpointed chunk is a bug, and the log is the proof.
func (s *Store) AddSearchChunk(id string, idx int, hits []HitData) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if j.Kind != KindSearch {
		return fmt.Errorf("%w: job %s is an alignment job", ErrWrongKind, id)
	}
	if j.State != StateRunning {
		return fmt.Errorf("%w: %s: chunk checkpoint in state %s", ErrBadTransition, id, j.State)
	}
	if idx < 0 || idx >= j.NumChunks() {
		return fmt.Errorf("jobstore: job %s: chunk index %d out of range [0,%d)", id, idx, j.NumChunks())
	}
	if _, dup := j.SearchChunks[idx]; dup {
		return fmt.Errorf("%w: job %s chunk %d", ErrDuplicateChunk, id, idx)
	}
	if len(hits) > j.Search.TopK {
		return fmt.Errorf("jobstore: job %s: chunk %d got %d hits, top-k is %d", id, idx, len(hits), j.Search.TopK)
	}
	return s.appendLocked(Record{Type: RecChunk,
		Chunk: &ChunkRecord{ID: id, Index: idx, Search: true, Hits: hits}})
}

// Drop garbage-collects a terminal job.
func (s *Store) Drop(id string) (prev State, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if !j.State.Terminal() {
		return j.State, fmt.Errorf("%w: %s: drop in state %s", ErrBadTransition, id, j.State)
	}
	prev = j.State
	err = s.appendLocked(Record{Type: RecDrop, Drop: &DropRecord{ID: id}})
	return prev, err
}

// Get returns a snapshot of one job.
func (s *Store) Get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, false
	}
	return j.clone(), true
}

// ByKey returns a snapshot of the job holding an idempotency key.
func (s *Store) ByKey(key string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id, ok := s.byKey[key]
	if !ok {
		return nil, false
	}
	return s.jobs[id].clone(), true
}

// List snapshots every job in submission (FIFO) order.
func (s *Store) List() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, j.clone())
	}
	sort.Slice(out, func(a, b int) bool { return out[a].SubmitSeq < out[b].SubmitSeq })
	return out
}

// ActiveByTenant counts a tenant's live (queued or running) jobs — the
// quantity per-tenant running-job quotas are enforced against. Because
// ownership is WAL-resident, the count is correct immediately after replay.
func (s *Store) ActiveByTenant(tenant string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, j := range s.jobs {
		if j.Tenant == tenant && !j.State.Terminal() {
			n++
		}
	}
	return n
}

// StateCounts tallies jobs per state without cloning payloads.
func (s *Store) StateCounts() map[State]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[State]int, int(numStates))
	for _, j := range s.jobs {
		out[j.State]++
	}
	return out
}

// Len is the number of live (non-dropped) jobs.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.jobs)
}
