package alignsvc

import (
	"context"
	"slices"
	"testing"
	"time"

	"repro/internal/cudasim"
)

// TestBreakerTripsAndRecovers is the acceptance scenario: repeated bitwise
// failures trip the breaker open so later batches skip the GPU tiers
// entirely, and once the faults stop a half-open probe closes it again.
func TestBreakerTripsAndRecovers(t *testing.T) {
	s := New(Config{
		Seed:            5,
		Workers:         1,
		MaxAttempts:     1,
		BreakerFailures: 2,
		BreakerCooldown: 20 * time.Millisecond,
		BaseBackoff:     10 * time.Microsecond,
		MaxBackoff:      50 * time.Microsecond,
		// Every kernel launch fails: both GPU tiers are down.
		Faults: cudasim.FaultConfig{Seed: 5, Launch: 1},
	})
	defer s.Close()
	pairs := plantedPairs(32, 16, 32, 77)
	want := refScores(pairs)

	// Two batches of launch failures trip both GPU breakers (threshold 2,
	// one attempt per tier per batch). Every batch still gets exact scores
	// from the CPU rung.
	for i := 0; i < 2; i++ {
		res, err := s.Align(context.Background(), pairs)
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		assertScores(t, res.Scores, want)
		if res.Report.Tier != TierCPU {
			t.Fatalf("batch %d served by %v, want cpu", i, res.Report.Tier)
		}
	}

	// The next batch must short-circuit: no GPU attempts at all.
	res, err := s.Align(context.Background(), pairs)
	if err != nil {
		t.Fatal(err)
	}
	assertScores(t, res.Scores, want)
	if !slices.Contains(res.Report.Skips, TierBitwise) || !slices.Contains(res.Report.Skips, TierWordwise) {
		t.Fatalf("open breakers did not skip GPU tiers: skips=%v", res.Report.Skips)
	}
	if len(res.Report.Attempts) != 1 || res.Report.Attempts[0].Tier != TierCPU {
		t.Fatalf("short-circuited batch still attempted GPU tiers: %+v", res.Report.Attempts)
	}
	st := s.Stats()
	if st.BreakerTrips < 2 || st.BreakerShortCircuits < 2 {
		t.Fatalf("breaker counters: %+v", st)
	}
	for _, br := range st.Breakers {
		if br.State != BreakerOpen {
			t.Fatalf("breaker %v state %v, want open", br.Tier, br.State)
		}
	}

	// Faults stop; after the cooldown a half-open probe runs the bitwise
	// tier again, succeeds, and closes the breaker.
	s.SetFaults(cudasim.FaultConfig{})
	time.Sleep(25 * time.Millisecond)
	res, err = s.Align(context.Background(), pairs)
	if err != nil {
		t.Fatal(err)
	}
	assertScores(t, res.Scores, want)
	if res.Report.Tier != TierBitwise {
		t.Fatalf("recovered batch served by %v, want bitwise", res.Report.Tier)
	}
	st = s.Stats()
	if st.BreakerProbes == 0 {
		t.Fatalf("no half-open probes recorded: %+v", st)
	}
	for _, br := range st.Breakers {
		if br.Tier == TierBitwise && br.State != BreakerClosed {
			t.Fatalf("bitwise breaker state %v after recovery, want closed", br.State)
		}
	}
	if res.Report.Elapsed <= 0 {
		t.Fatalf("Report.Elapsed = %v, want > 0", res.Report.Elapsed)
	}
}

func TestBreakerDisabled(t *testing.T) {
	s := New(Config{
		Seed:            6,
		MaxAttempts:     1,
		BreakerFailures: -1, // disabled
		BaseBackoff:     10 * time.Microsecond,
		MaxBackoff:      50 * time.Microsecond,
		Faults:          cudasim.FaultConfig{Seed: 6, Launch: 1},
	})
	defer s.Close()
	pairs := plantedPairs(32, 16, 32, 78)
	for i := 0; i < 4; i++ {
		res, err := s.Align(context.Background(), pairs)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Report.Skips) != 0 {
			t.Fatalf("disabled breaker skipped tiers: %v", res.Report.Skips)
		}
	}
	if st := s.Stats(); st.BreakerTrips != 0 || st.BreakerShortCircuits != 0 {
		t.Fatalf("disabled breaker counted activity: %+v", st)
	}
}
