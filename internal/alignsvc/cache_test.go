package alignsvc

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/aligncache"
	"repro/internal/cudasim"
	"repro/internal/dna"
	"repro/internal/obs"
)

func newCachedService(t *testing.T, cfg Config) *Service {
	t.Helper()
	if cfg.Cache == nil {
		cfg.Cache = aligncache.New(aligncache.Config{
			MaxBytes: 16 << 20,
			Metrics:  obs.NewRegistry(),
		})
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	s := New(cfg)
	t.Cleanup(s.Close)
	return s
}

// TestCachedAlignExactScores checks the cached path end to end: a cold batch
// with duplicate pairs dispatches only its distinct pairs, a warm identical
// batch is served entirely from the cache with exact scores and no ladder
// attempts.
func TestCachedAlignExactScores(t *testing.T) {
	s := newCachedService(t, Config{Seed: 1})

	// 64 pairs, only 8 distinct: the first 8 repeat in order.
	distinct := plantedPairs(8, 16, 32, 21)
	full := distinct
	for len(full) < 64 {
		full = append(full, distinct[len(full)%8])
	}
	want := refScores(full)

	res, err := s.Align(context.Background(), full)
	if err != nil {
		t.Fatal(err)
	}
	assertScores(t, res.Scores, want)
	if res.Report.CacheHits != 0 {
		t.Fatalf("cold batch reported %d cache hits", res.Report.CacheHits)
	}
	cst := s.CacheStats()
	if cst == nil || cst.Misses != 8 {
		t.Fatalf("cold batch: want 8 distinct misses, got %+v", cst)
	}
	if st := s.Stats(); st.Batches != 1 {
		t.Fatalf("cold batch dispatched %d batches, want 1", st.Batches)
	}

	// Warm: the identical batch must not touch the ladder at all.
	res, err = s.Align(context.Background(), full)
	if err != nil {
		t.Fatal(err)
	}
	assertScores(t, res.Scores, want)
	if res.Report.CacheHits != len(full) {
		t.Fatalf("warm batch: %d cache hits, want %d", res.Report.CacheHits, len(full))
	}
	if len(res.Report.Attempts) != 0 {
		t.Fatalf("warm batch ran ladder attempts: %+v", res.Report.Attempts)
	}
	if st := s.Stats(); st.Batches != 1 {
		t.Fatalf("warm batch dispatched again: %d batches", st.Batches)
	}
}

// TestCacheRepeatedBatchSpeedup is the issue's acceptance bar: re-aligning an
// identical batch after warming must be at least 5× faster than computing it,
// because a full hit is a hash + map lookup per pair instead of the bitsliced
// DP.
func TestCacheRepeatedBatchSpeedup(t *testing.T) {
	s := newCachedService(t, Config{Seed: 2})
	pairs := plantedPairs(256, 32, 256, 33)

	begin := time.Now()
	res, err := s.Align(context.Background(), pairs)
	if err != nil {
		t.Fatal(err)
	}
	cold := time.Since(begin)
	assertScores(t, res.Scores, refScores(pairs))

	// Best warm run of a few, to keep scheduler noise out of the ratio.
	warm := cold
	for i := 0; i < 3; i++ {
		begin = time.Now()
		res, err = s.Align(context.Background(), pairs)
		if err != nil {
			t.Fatal(err)
		}
		if d := time.Since(begin); d < warm {
			warm = d
		}
	}
	if res.Report.CacheHits != len(pairs) {
		t.Fatalf("warm run hit %d/%d pairs", res.Report.CacheHits, len(pairs))
	}
	if warm*5 > cold {
		t.Fatalf("warm repeat not ≥5× faster: cold=%v warm=%v (%.1f×)",
			cold, warm, float64(cold)/float64(warm))
	}
	t.Logf("cold=%v warm=%v (%.0f×)", cold, warm, float64(cold)/float64(warm))
}

// TestCacheExactUnderFaultInjection extends the chaos suite: with aggressive
// transfer/kernel faults and full validation, concurrent overlapping batches
// through the cached path still return exact scores, and warm hits stay exact
// afterwards — a cached score is only ever published from a validated result.
func TestCacheExactUnderFaultInjection(t *testing.T) {
	s := newCachedService(t, Config{
		Seed:         7,
		ValidateFrac: 1,
		MaxAttempts:  3,
		BaseBackoff:  50 * time.Microsecond,
		MaxBackoff:   500 * time.Microsecond,
		Faults: cudasim.FaultConfig{
			Seed:    7,
			HtoD:    0.3,
			DtoH:    0.3,
			Launch:  0.3,
			BitFlip: 0.3,
		},
	})

	// Eight goroutines share four seed groups, so most batches overlap an
	// identical batch in flight or already cached.
	const workers, rounds = 8, 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				pairs := plantedPairs(32, 16, 32, uint64(200+(w%4)))
				res, err := s.Align(context.Background(), pairs)
				if err != nil {
					t.Errorf("worker %d round %d: %v", w, r, err)
					return
				}
				assertScores(t, res.Scores, refScores(pairs))
			}
		}(w)
	}
	wg.Wait()

	// Warm re-read of every group: hits must still be exact.
	for g := 0; g < 4; g++ {
		pairs := plantedPairs(32, 16, 32, uint64(200+g))
		res, err := s.Align(context.Background(), pairs)
		if err != nil {
			t.Fatal(err)
		}
		assertScores(t, res.Scores, refScores(pairs))
		if res.Report.CacheHits != len(pairs) {
			t.Fatalf("group %d warm read: %d/%d hits", g, res.Report.CacheHits, len(pairs))
		}
	}
	cst := s.CacheStats()
	if cst.Hits == 0 || cst.Misses == 0 {
		t.Fatalf("chaos run exercised no cache traffic: %+v", cst)
	}
	t.Logf("cache after chaos: %+v; service: %+v", cst, s.Stats())
}

// TestCacheLeaderFailedNotCached races identical batches while every
// simulated launch fails and the CPU rung is removed. The leader's flight
// fails typed, every racer fails typed (nobody hangs), the failure is not
// cached, and once the faults stop the recomputed scores are cached and
// served as hits.
func TestCacheLeaderFailedNotCached(t *testing.T) {
	cache := aligncache.New(aligncache.Config{MaxBytes: 1 << 20, Metrics: obs.NewRegistry()})
	s := newCachedService(t, Config{
		Seed:            13,
		Backend:         BackendBitwiseSim,
		NoCPUFallback:   true,
		MaxAttempts:     1,
		BreakerFailures: -1,
		Cache:           cache,
	})
	s.SetFaults(cudasim.FaultConfig{Seed: 13, Launch: 1})

	pairs := plantedPairs(8, 12, 24, 31)
	var wg sync.WaitGroup
	errCh := make(chan error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			_, err := s.Align(ctx, pairs)
			errCh <- err
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err == nil {
			t.Fatal("Align succeeded with every launch failing and no CPU rung")
		}
		if errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("racer hung until its deadline: %v", err)
		}
		if !errors.Is(err, cudasim.ErrInjected) {
			t.Fatalf("racer error not typed: %v", err)
		}
	}
	if st := cache.Stats(); st.Entries != 0 {
		t.Fatalf("failed flights left %d cached entries", st.Entries)
	}

	s.SetFaults(cudasim.FaultConfig{})
	res, err := s.Align(context.Background(), pairs)
	if err != nil {
		t.Fatalf("Align did not recover once the faults stopped: %v", err)
	}
	assertScores(t, res.Scores, refScores(pairs))
	res, err = s.Align(context.Background(), pairs)
	if err != nil {
		t.Fatal(err)
	}
	assertScores(t, res.Scores, refScores(pairs))
	if res.Report.CacheHits != len(pairs) {
		t.Fatalf("recomputed scores not served from cache: %d hits of %d", res.Report.CacheHits, len(pairs))
	}
}

// TestWarmCache seeds the cache with precomputed scores (the jobs recovery
// path) and checks a subsequent batch is served without any dispatch.
func TestWarmCache(t *testing.T) {
	s := newCachedService(t, Config{Seed: 3})
	pairs := plantedPairs(48, 16, 32, 55)
	scores := refScores(pairs)

	if n := s.WarmCache(pairs, scores); n != len(pairs) {
		t.Fatalf("WarmCache inserted %d, want %d", n, len(pairs))
	}
	if n := s.WarmCache(pairs, scores[:1]); n != 0 {
		t.Fatalf("mismatched lengths warmed %d entries, want 0", n)
	}

	res, err := s.Align(context.Background(), pairs)
	if err != nil {
		t.Fatal(err)
	}
	assertScores(t, res.Scores, scores)
	if res.Report.CacheHits != len(pairs) {
		t.Fatalf("warmed batch: %d hits, want %d", res.Report.CacheHits, len(pairs))
	}
	if st := s.Stats(); st.Batches != 0 {
		t.Fatalf("warmed batch still dispatched: %+v", st)
	}
}

// benchmarkDuplicateWorkload drives the issue's benchmark scenario: batches
// where 90% of pairs repeat a small panel of distinct pairs — the shape of
// database-screening traffic. Run with -bench to compare cache on vs off.
func benchmarkDuplicateWorkload(b *testing.B, withCache bool) {
	cfg := Config{Seed: 5, Metrics: obs.NewRegistry()}
	if withCache {
		cfg.Cache = aligncache.New(aligncache.Config{
			MaxBytes: 64 << 20,
			Metrics:  obs.NewRegistry(),
		})
	}
	s := New(cfg)
	defer s.Close()

	// 256-pair batch, 26 distinct pairs (~90% duplicates).
	distinct := plantedPairs(26, 32, 64, 77)
	pairs := make([]dna.Pair, 256)
	for i := range pairs {
		pairs[i] = distinct[i%len(distinct)]
	}
	want := refScores(pairs)

	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.Align(ctx, pairs)
		if err != nil {
			b.Fatal(err)
		}
		if res.Scores[0] != want[0] {
			b.Fatalf("score drift: %d != %d", res.Scores[0], want[0])
		}
	}
	b.ReportMetric(float64(len(pairs))*float64(b.N)/b.Elapsed().Seconds(), "pairs/s")
}

func BenchmarkAlignDuplicate90CacheOff(b *testing.B) { benchmarkDuplicateWorkload(b, false) }
func BenchmarkAlignDuplicate90CacheOn(b *testing.B)  { benchmarkDuplicateWorkload(b, true) }

// TestCacheDisabledIsUncachedPath pins the -cache-bytes=0 contract: a zero
// budget yields a nil cache, CacheEnabled is false, and Align takes the
// original dispatch path with no cache fields in the report.
func TestCacheDisabledIsUncachedPath(t *testing.T) {
	s := New(Config{Seed: 4, Cache: aligncache.New(aligncache.Config{MaxBytes: 0}),
		Metrics: obs.NewRegistry()})
	defer s.Close()
	if s.CacheEnabled() {
		t.Fatal("zero-budget cache reported enabled")
	}
	if s.CacheStats() != nil {
		t.Fatal("disabled cache returned stats")
	}
	pairs := plantedPairs(32, 16, 32, 66)
	res, err := s.Align(context.Background(), pairs)
	if err != nil {
		t.Fatal(err)
	}
	assertScores(t, res.Scores, refScores(pairs))
	if res.Report.CacheHits != 0 || res.Report.CacheCoalesced != 0 {
		t.Fatalf("disabled cache produced cache report fields: %+v", res.Report)
	}
}
