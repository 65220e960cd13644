package jobs

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"testing"
	"time"

	"repro/internal/alignsvc"
	"repro/internal/corpus"
	"repro/internal/cudasim"
	"repro/internal/dna"
	"repro/internal/jobstore"
	"repro/internal/obs"
	"repro/internal/swa"
)

// testBatch returns count deterministic pairs and their reference scores.
func testBatch(seed uint64, count int) ([]dna.Pair, []int) {
	rng := rand.New(rand.NewPCG(seed, 0x7e57))
	pairs := dna.RandomPairs(rng, count, 8, 16)
	want := make([]int, count)
	for i, p := range pairs {
		want[i] = swa.Score(p.X, p.Y, swa.PaperScoring)
	}
	return pairs, want
}

// newTestService builds a fast service: microsecond backoffs, full
// validation, exact scores.
func newTestService(t *testing.T, faults cudasim.FaultConfig) *alignsvc.Service {
	t.Helper()
	svc := alignsvc.New(alignsvc.Config{
		Seed:         7,
		Workers:      2,
		MaxAttempts:  2,
		BaseBackoff:  50 * time.Microsecond,
		MaxBackoff:   200 * time.Microsecond,
		ValidateFrac: 1,
		Faults:       faults,
		Metrics:      obs.NewRegistry(),
	})
	t.Cleanup(svc.Close)
	return svc
}

// newSlowService builds a service where every GPU attempt fails (forcing
// the full retry ladder down to the CPU rung) with real backoffs, so each
// chunk takes tens of milliseconds — long enough for tests to observe jobs
// mid-flight. Scores are still exact: the CPU rung computes them.
func newSlowService(t *testing.T) *alignsvc.Service {
	t.Helper()
	svc := alignsvc.New(alignsvc.Config{
		Seed:            7,
		Workers:         2,
		MaxAttempts:     2,
		BaseBackoff:     10 * time.Millisecond,
		MaxBackoff:      10 * time.Millisecond,
		ValidateFrac:    1,
		Faults:          cudasim.FaultConfig{Seed: 1, Launch: 1.0},
		BreakerFailures: -1,
		Metrics:         obs.NewRegistry(),
	})
	t.Cleanup(svc.Close)
	return svc
}

func newTestManager(t *testing.T, dir string, svc *alignsvc.Service, tweak func(*Config)) (*Manager, *jobstore.Store) {
	t.Helper()
	store, _, err := jobstore.Open(jobstore.Options{Dir: dir, Sync: jobstore.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Store:        store,
		Service:      svc,
		ChunkSize:    4,
		ChunkTimeout: 30 * time.Second,
		Metrics:      obs.NewRegistry(),
	}
	if tweak != nil {
		tweak(&cfg)
	}
	m, err := New(cfg)
	if err != nil {
		store.Close()
		t.Fatal(err)
	}
	return m, store
}

// jobKind drives one job kind through the manager tests that cover the
// shared submit path and chunk loop, so alignment and search jobs are held
// to the same assertions.
type jobKind struct {
	name string
	// setup returns the service and config tweak for this kind. slow makes
	// every chunk take tens of milliseconds, so tests can act mid-flight.
	setup func(t *testing.T, slow bool) (*alignsvc.Service, func(*Config))
	// submit persists a job for the anonymous tenant. Alignment jobs get
	// testBatch(seed, count); search jobs always span the whole 160-sequence
	// test corpus in 16 chunks, with a query picked by seed.
	submit func(m *Manager, seed uint64, count int, key string) (Snapshot, bool, error)
	// result fetches the job's result snapshot through the kind's accessor.
	result func(m *Manager, id string) (Snapshot, error)
}

var jobKinds = []jobKind{
	{
		name: "align",
		setup: func(t *testing.T, slow bool) (*alignsvc.Service, func(*Config)) {
			if slow {
				return newSlowService(t), func(*Config) {}
			}
			return newTestService(t, cudasim.FaultConfig{}), func(*Config) {}
		},
		submit: func(m *Manager, seed uint64, count int, key string) (Snapshot, bool, error) {
			pairs, _ := testBatch(seed, count)
			return m.SubmitFor(pairs, key, "")
		},
		result: func(m *Manager, id string) (Snapshot, error) {
			_, snap, err := m.ResultFor(id, "")
			return snap, err
		},
	},
	{
		name: "search",
		setup: func(t *testing.T, slow bool) (*alignsvc.Service, func(*Config)) {
			var delay time.Duration
			if slow {
				delay = 20 * time.Millisecond
			}
			corpora, _ := newSearchCorpus(t, 160, delay)
			return newTestService(t, cudasim.FaultConfig{}), func(c *Config) {
				c.Corpora = corpora
				c.SearchChunkSize = 10
			}
		},
		submit: func(m *Manager, seed uint64, _ int, key string) (Snapshot, bool, error) {
			h, _ := m.cfg.Corpora.Get("ref")
			q := h.Corpus.Seq(int(seed) % h.Corpus.Len())[:48]
			// Scan-all: every chunk holds candidates, so every chunk scores.
			p := corpus.Params{TopK: 5, MinKmerHits: -1, MaxEdits: -1}
			return m.SubmitSearchFor("ref", q, p, key, "")
		},
		result: func(m *Manager, id string) (Snapshot, error) {
			_, snap, err := m.SearchResultFor(id, "")
			return snap, err
		},
	},
}

func waitState(t *testing.T, m *Manager, id string, want jobstore.State, d time.Duration) Snapshot {
	t.Helper()
	deadline := time.Now().Add(d)
	for {
		snap, err := m.GetFor(id, "")
		if err != nil {
			t.Fatal(err)
		}
		if snap.State == want {
			return snap
		}
		if snap.State.Terminal() {
			t.Fatalf("job %s reached terminal %s (%s), want %s", id, snap.State, snap.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s (%d/%d chunks), want %s",
				id, snap.State, snap.ChunksDone, snap.Chunks, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestJobRunsToCompletion(t *testing.T) {
	svc := newTestService(t, cudasim.FaultConfig{})
	m, store := newTestManager(t, t.TempDir(), svc, nil)
	defer store.Close()
	defer m.Close()

	pairs, want := testBatch(1, 10)
	snap, created, err := m.SubmitFor(pairs, "key-a", "")
	if err != nil || !created {
		t.Fatalf("submit: created=%v err=%v", created, err)
	}
	if snap.Chunks != 3 || snap.Pairs != 10 || snap.State != jobstore.StateQueued {
		t.Fatalf("submit snapshot: %+v", snap)
	}
	done := waitState(t, m, snap.ID, jobstore.StateDone, 10*time.Second)
	if done.ChunksDone != 3 {
		t.Fatalf("done with %d/%d chunks", done.ChunksDone, done.Chunks)
	}
	scores, res, err := m.ResultFor(snap.ID, "")
	if err != nil || res.State != jobstore.StateDone {
		t.Fatalf("result: %v (%+v)", err, res)
	}
	for i := range want {
		if scores[i] != want[i] {
			t.Fatalf("score[%d] = %d, want %d", i, scores[i], want[i])
		}
	}
	st := m.Stats()
	if st.Completed != 1 || st.ChunksExecuted != 3 || st.ChunksCheckpointed != 3 || st.ChunksSkipped != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestIdempotencyKeyDedup(t *testing.T) {
	for _, k := range jobKinds {
		t.Run(k.name, func(t *testing.T) {
			svc, tweak := k.setup(t, false)
			m, store := newTestManager(t, t.TempDir(), svc, tweak)
			defer store.Close()
			defer m.Close()

			first, created, err := k.submit(m, 2, 4, "same-key")
			if err != nil || !created {
				t.Fatal(err)
			}
			second, created, err := k.submit(m, 2, 4, "same-key")
			if err != nil {
				t.Fatal(err)
			}
			if created || second.ID != first.ID {
				t.Fatalf("dedup miss: created=%v id=%s want %s", created, second.ID, first.ID)
			}
			if m.Stats().DedupHits != 1 {
				t.Fatalf("dedup hits: %+v", m.Stats())
			}
			// A different key makes a different job.
			third, created, err := k.submit(m, 2, 4, "other-key")
			if err != nil || !created || third.ID == first.ID {
				t.Fatalf("distinct key reused job: %v %v", third.ID, err)
			}
		})
	}
}

func TestQueueBoundRejectsWithErrQueueFull(t *testing.T) {
	for _, k := range jobKinds {
		t.Run(k.name, func(t *testing.T) {
			// One runner, pinned down by a slow job; the queue fills behind it.
			svc, tweak := k.setup(t, true)
			m, store := newTestManager(t, t.TempDir(), svc, func(c *Config) {
				tweak(c)
				c.MaxConcurrent = 1
				c.MaxQueued = 2
				c.ChunkSize = 1
			})
			defer store.Close()
			defer m.Close()

			if _, _, err := k.submit(m, 3, 32, ""); err != nil {
				t.Fatal(err)
			}
			var sawFull bool
			for i := 0; i < 8; i++ {
				if _, _, err := k.submit(m, 4, 1, ""); errors.Is(err, ErrQueueFull) {
					sawFull = true
					break
				}
			}
			if !sawFull {
				t.Fatal("queue bound never tripped")
			}
		})
	}
}

func TestCancelQueuedAndRunning(t *testing.T) {
	for _, k := range jobKinds {
		t.Run(k.name, func(t *testing.T) {
			svc, tweak := k.setup(t, true)
			m, store := newTestManager(t, t.TempDir(), svc, func(c *Config) {
				tweak(c)
				c.MaxConcurrent = 1
				c.ChunkSize = 1
			})
			defer store.Close()
			defer m.Close()

			running, _, err := k.submit(m, 5, 16, "")
			if err != nil {
				t.Fatal(err)
			}
			queued, _, err := k.submit(m, 6, 4, "")
			if err != nil {
				t.Fatal(err)
			}

			// Cancel the queued job before the runner reaches it.
			snap, err := m.CancelFor(queued.ID, "")
			if err != nil || snap.State != jobstore.StateCancelled {
				t.Fatalf("cancel queued: %+v err=%v", snap, err)
			}
			// Cancel is idempotent on terminal jobs.
			if snap, err = m.CancelFor(queued.ID, ""); err != nil || snap.State != jobstore.StateCancelled {
				t.Fatalf("re-cancel: %+v err=%v", snap, err)
			}

			waitState(t, m, running.ID, jobstore.StateRunning, 5*time.Second)
			if snap, err = m.CancelFor(running.ID, ""); err != nil || snap.State != jobstore.StateCancelled {
				t.Fatalf("cancel running: %+v err=%v", snap, err)
			}
			// Result answers with the terminal snapshot, not an error.
			if res, err := k.result(m, running.ID); err != nil || res.State != jobstore.StateCancelled {
				t.Fatalf("result of cancelled job: %+v err=%v", res, err)
			}
			if m.Stats().Cancelled != 2 {
				t.Fatalf("cancelled count: %+v", m.Stats())
			}
			// The cancelled-while-queued job must never have executed a chunk.
			cur, err := m.GetFor(queued.ID, "")
			if err != nil || cur.ChunksDone != 0 {
				t.Fatalf("cancelled queued job ran: %+v err=%v", cur, err)
			}
		})
	}
}

func TestRecoveryResumesFromCheckpoints(t *testing.T) {
	dir := t.TempDir()

	// Phase 1: run a job partially on a slow service, then hard-close
	// (crash semantics — the job is left running in the WAL).
	slow := newSlowService(t)
	m1, store1 := newTestManager(t, dir, slow, func(c *Config) {
		c.MaxConcurrent = 1
		c.ChunkSize = 2
	})
	pairs, want := testBatch(7, 20) // 10 chunks
	snap, _, err := m1.SubmitFor(pairs, "resume-key", "")
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		cur, err := m1.GetFor(snap.ID, "")
		if err != nil {
			t.Fatal(err)
		}
		if cur.ChunksDone >= 3 {
			break
		}
		if cur.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job never reached 3 checkpoints: %+v", cur)
		}
		time.Sleep(time.Millisecond)
	}
	m1.Close() // hard stop: no drain, no requeue
	store1.Close()

	// Phase 2: reopen with a fast service; recovery must requeue the job
	// and finish it without re-executing the checkpointed chunks.
	fast := newTestService(t, cudasim.FaultConfig{})
	m2, store2 := newTestManager(t, dir, fast, func(c *Config) {
		c.MaxConcurrent = 1
		c.ChunkSize = 2
	})
	defer store2.Close()
	defer m2.Close()

	st := m2.Stats()
	if st.Recovered != 1 || st.RecoveredChunks < 3 {
		t.Fatalf("recovery stats: %+v", st)
	}
	preDone := st.RecoveredChunks

	done := waitState(t, m2, snap.ID, jobstore.StateDone, 15*time.Second)
	if done.ChunksDone != 10 {
		t.Fatalf("resumed job chunks: %+v", done)
	}
	scores, _, err := m2.ResultFor(snap.ID, "")
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if scores[i] != want[i] {
			t.Fatalf("resumed score[%d] = %d, want %d", i, scores[i], want[i])
		}
	}
	st = m2.Stats()
	if st.ChunksSkipped != preDone {
		t.Fatalf("skipped %d chunks, want the %d recovered ones", st.ChunksSkipped, preDone)
	}
	if st.ChunksExecuted != 10-preDone {
		t.Fatalf("executed %d chunks, want %d", st.ChunksExecuted, 10-preDone)
	}
	// The WAL is the proof: no chunk index may be checkpointed twice.
	assertNoDuplicateChunks(t, dir)
	// Idempotency keys survive recovery.
	dup, created, err := m2.SubmitFor(pairs, "resume-key", "")
	if err != nil || created || dup.ID != snap.ID {
		t.Fatalf("post-recovery dedup: created=%v id=%s err=%v", created, dup.ID, err)
	}
}

// assertNoDuplicateChunks replays the WAL and fails if any (job, chunk)
// was checkpointed more than once — the duplicate-execution detector shared
// with the chaos soak.
func assertNoDuplicateChunks(t *testing.T, dir string) {
	t.Helper()
	recs, _, err := jobstore.ScanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, rec := range recs {
		if rec.Type != jobstore.RecChunk {
			continue
		}
		key := fmt.Sprintf("%s/%d", rec.Chunk.ID, rec.Chunk.Index)
		if seen[key] {
			t.Fatalf("chunk %s checkpointed twice", key)
		}
		seen[key] = true
	}
}

func TestDrainRequeuesRunningJob(t *testing.T) {
	for _, k := range jobKinds {
		t.Run(k.name, func(t *testing.T) {
			dir := t.TempDir()
			slow, slowTweak := k.setup(t, true)
			m, store := newTestManager(t, dir, slow, func(c *Config) {
				slowTweak(c)
				c.MaxConcurrent = 1
				c.ChunkSize = 1
			})
			defer store.Close()

			snap, _, err := k.submit(m, 8, 16, "")
			if err != nil {
				t.Fatal(err)
			}
			waitState(t, m, snap.ID, jobstore.StateRunning, 5*time.Second)

			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := m.Drain(ctx); err != nil {
				t.Fatalf("drain: %v", err)
			}
			cur, err := m.GetFor(snap.ID, "")
			if err != nil {
				t.Fatal(err)
			}
			if cur.State != jobstore.StateQueued {
				t.Fatalf("drained job state = %s, want queued (checkpoint-and-requeue)", cur.State)
			}
			if m.Stats().Requeued != 1 {
				t.Fatalf("requeued count: %+v", m.Stats())
			}
			// Submissions during drain fail fast.
			if _, _, err := k.submit(m, 8, 16, ""); !errors.Is(err, ErrDraining) {
				t.Fatalf("submit during drain: %v", err)
			}
			m.Close()

			// The requeued job resumes on the next manager and completes.
			fast, fastTweak := k.setup(t, false)
			m2, store2 := newTestManager(t, dir, fast, func(c *Config) {
				fastTweak(c)
				c.MaxConcurrent = 1
				c.ChunkSize = 1
			})
			defer store2.Close()
			defer m2.Close()
			done := waitState(t, m2, snap.ID, jobstore.StateDone, 20*time.Second)
			if done.ChunksDone != 16 {
				t.Fatalf("post-drain completion: %+v", done)
			}
			// The resume skipped exactly the chunks checkpointed before the
			// drain and executed only the rest.
			if st := m2.Stats(); st.ChunksSkipped != int64(cur.ChunksDone) || st.ChunksExecuted != int64(16-cur.ChunksDone) {
				t.Fatalf("resume after drain: skipped %d executed %d, want %d and %d",
					st.ChunksSkipped, st.ChunksExecuted, cur.ChunksDone, 16-cur.ChunksDone)
			}
			assertNoDuplicateChunks(t, dir)
		})
	}
}

// TestChunkDeadlineFailsJob pins the per-chunk deadline: a chunk that
// outlives ChunkTimeout fails the job with a typed, chunk-numbered
// message, for both kinds.
func TestChunkDeadlineFailsJob(t *testing.T) {
	for _, k := range jobKinds {
		t.Run(k.name, func(t *testing.T) {
			svc, tweak := k.setup(t, true)
			m, store := newTestManager(t, t.TempDir(), svc, func(c *Config) {
				tweak(c)
				c.ChunkSize = 1
				c.ChunkTimeout = time.Millisecond
			})
			defer store.Close()
			defer m.Close()

			snap, _, err := k.submit(m, 13, 16, "")
			if err != nil {
				t.Fatal(err)
			}
			deadline := time.Now().Add(10 * time.Second)
			for {
				cur, err := m.GetFor(snap.ID, "")
				if err != nil {
					t.Fatal(err)
				}
				if cur.State == jobstore.StateFailed {
					want := fmt.Sprintf("chunk 0/%d: deadline exceeded after 1ms", cur.Chunks)
					if cur.Error != want {
						t.Fatalf("failure = %q, want %q", cur.Error, want)
					}
					break
				}
				if cur.State.Terminal() || time.Now().After(deadline) {
					t.Fatalf("job did not fail on its chunk deadline: %+v", cur)
				}
				time.Sleep(time.Millisecond)
			}
			if m.Stats().Failed != 1 {
				t.Fatalf("failed count: %+v", m.Stats())
			}
		})
	}
}

func TestGCDropsExpiredTerminalJobs(t *testing.T) {
	svc := newTestService(t, cudasim.FaultConfig{})
	now := time.Now()
	clock := func() time.Time { return now }
	m, store := newTestManager(t, t.TempDir(), svc, func(c *Config) {
		c.TTL = time.Hour
		c.GCInterval = time.Hour // sweeps driven manually below
		c.now = clock
	})
	defer store.Close()
	defer m.Close()

	pairs, _ := testBatch(9, 4)
	snap, _, err := m.SubmitFor(pairs, "gc-key", "")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, snap.ID, jobstore.StateDone, 10*time.Second)

	m.gcOnce() // fresh terminal job survives
	if _, err := m.GetFor(snap.ID, ""); err != nil {
		t.Fatalf("fresh job GC'd: %v", err)
	}
	now = now.Add(2 * time.Hour)
	m.gcOnce()
	if _, err := m.GetFor(snap.ID, ""); !errors.Is(err, ErrNotFound) {
		t.Fatalf("expired job survived GC: %v", err)
	}
	if m.Stats().GCDropped != 1 {
		t.Fatalf("gc stats: %+v", m.Stats())
	}
	// The key is free again: a re-submission makes a new job.
	again, created, err := m.SubmitFor(pairs, "gc-key", "")
	if err != nil || !created || again.ID == snap.ID {
		t.Fatalf("post-GC resubmit: created=%v err=%v", created, err)
	}
}

func TestJobUnderFaultsStillExact(t *testing.T) {
	svc := newTestService(t, cudasim.FaultConfig{
		Seed: 42, HtoD: 0.2, DtoH: 0.2, Launch: 0.2, BitFlip: 0.2,
	})
	m, store := newTestManager(t, t.TempDir(), svc, nil)
	defer store.Close()
	defer m.Close()

	pairs, want := testBatch(10, 16)
	snap, _, err := m.SubmitFor(pairs, "", "")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, snap.ID, jobstore.StateDone, 30*time.Second)
	scores, _, err := m.ResultFor(snap.ID, "")
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if scores[i] != want[i] {
			t.Fatalf("faulty-path score[%d] = %d, want %d", i, scores[i], want[i])
		}
	}
}

func TestResultErrors(t *testing.T) {
	svc := newSlowService(t)
	m, store := newTestManager(t, t.TempDir(), svc, func(c *Config) {
		c.MaxConcurrent = 1
		c.ChunkSize = 1
	})
	defer store.Close()
	defer m.Close()

	if _, _, err := m.ResultFor("nope", ""); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing job: %v", err)
	}
	long, _ := testBatch(11, 16)
	if _, _, err := m.SubmitFor(long, "", ""); err != nil {
		t.Fatal(err)
	}
	pairs, _ := testBatch(12, 8)
	snap, _, err := m.SubmitFor(pairs, "", "")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.ResultFor(snap.ID, ""); !errors.Is(err, ErrNotReady) {
		t.Fatalf("queued job result: %v", err)
	}
}
