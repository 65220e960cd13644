package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/alignsvc"
	"repro/internal/cudasim"
	"repro/internal/dna"
	"repro/internal/swa"
)

// chaosFaults is the storm the soak runs under: every fault class at ≥ 10%,
// including silent bit flips that only full score validation can catch.
var chaosFaults = cudasim.FaultConfig{
	Seed:    20170529,
	HtoD:    0.15,
	DtoH:    0.15,
	Alloc:   0.10,
	Launch:  0.12,
	BitFlip: 0.15,
}

// chaosBatch returns the deterministic batch and reference scores for one
// (client, iteration) slot.
func chaosBatch(client, iter int) ([]dna.Pair, []int) {
	rng := rand.New(rand.NewPCG(uint64(1000*client+iter), 0xc4a05))
	pairs := dna.RandomPairs(rng, 16, 12, 24)
	want := make([]int, len(pairs))
	for i, p := range pairs {
		want[i] = swa.Score(p.X, p.Y, swa.PaperScoring)
	}
	return pairs, want
}

// TestChaosSoak is the no-hang/no-panic/no-wrong-score guarantee, enforced
// end to end: concurrent clients hammer a server whose simulated device
// fails transfers, allocations and launches and silently flips bits, mixed
// with hostile requests; every single response must be either an exact
// score set or a clean, typed error with the right HTTP status. Afterwards
// the faults stop and the circuit breakers must let the bitwise tier come
// back. Runs in CI under -race with a wall-clock timeout.
func TestChaosSoak(t *testing.T) {
	svc := alignsvc.New(alignsvc.Config{
		Seed:            99,
		Workers:         4,
		MaxAttempts:     2,
		BaseBackoff:     100 * time.Microsecond,
		MaxBackoff:      500 * time.Microsecond,
		ValidateFrac:    1, // catch every injected bit flip
		BreakerFailures: 3,
		BreakerCooldown: 50 * time.Millisecond,
		Faults:          chaosFaults,
	})
	defer svc.Close()
	srv, err := New(Config{
		Service:     svc,
		MaxInFlight: 4,
		MaxQueued:   4,
		MaxPairs:    64,
		MaxSeqLen:   256,
		RetryAfter:  time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// The no-hang guarantee: every request must answer within this client
	// timeout or the test fails.
	client := &http.Client{Timeout: 30 * time.Second}
	clients, iters := 8, 25
	if testing.Short() {
		iters = 6
	}

	type tally struct {
		ok, shed, errored, hostile int
	}
	var mu sync.Mutex
	var total tally
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var local tally
			for i := 0; i < iters; i++ {
				// Every 5th iteration is hostile: malformed or oversized
				// input that must be rejected with a typed 4xx, never
				// crashing or wedging the server.
				if i%5 == 4 {
					local.hostile++
					if !sendHostile(t, client, ts.URL, c, i) {
						return
					}
					continue
				}
				pairs, want := chaosBatch(c, i)
				status, raw, err := postWith(client, ts.URL, AlignRequest{Pairs: pairsJSON(pairs)})
				if err != nil {
					t.Errorf("client %d iter %d: transport: %v", c, i, err)
					return
				}
				switch status {
				case http.StatusOK:
					var res AlignResponse
					if err := json.Unmarshal(raw, &res); err != nil {
						t.Errorf("client %d iter %d: bad 200 body: %v", c, i, err)
						return
					}
					for k := range want {
						if res.Scores[k] != want[k] {
							t.Errorf("client %d iter %d: WRONG SCORE [%d] = %d, want %d (report %s)",
								c, i, k, res.Scores[k], want[k], res.Report)
							return
						}
					}
					local.ok++
				case http.StatusTooManyRequests:
					var e ErrorResponse
					if err := json.Unmarshal(raw, &e); err != nil || e.Code != CodeShed {
						t.Errorf("client %d iter %d: untyped 429: %s", c, i, raw)
						return
					}
					local.shed++
				case http.StatusGatewayTimeout, http.StatusServiceUnavailable, http.StatusInternalServerError:
					var e ErrorResponse
					if err := json.Unmarshal(raw, &e); err != nil || e.Code == "" {
						t.Errorf("client %d iter %d: untyped %d: %s", c, i, status, raw)
						return
					}
					local.errored++
				default:
					t.Errorf("client %d iter %d: unexpected status %d: %s", c, i, status, raw)
					return
				}
			}
			mu.Lock()
			total.ok += local.ok
			total.shed += local.shed
			total.errored += local.errored
			total.hostile += local.hostile
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if total.ok == 0 {
		t.Fatal("chaos soak produced zero successful responses")
	}
	st := svc.Stats()
	if st.FaultsInjected == 0 {
		t.Fatalf("no faults injected during the storm: %+v", st)
	}
	t.Logf("storm: %+v; service stats: retries=%d fallbacks=%d validated-batches=%d trips=%d shorts=%d",
		total, st.Retries, st.Fallbacks, st.Batches, st.BreakerTrips, st.BreakerShortCircuits)

	// Phase 2: the faults stop. Breakers (if tripped) must recover via
	// half-open probes, and the bitwise tier must serve again.
	svc.SetFaults(cudasim.FaultConfig{})
	pairs, want := chaosBatch(0, 0)
	deadline := time.Now().Add(10 * time.Second)
	for {
		time.Sleep(60 * time.Millisecond) // let a breaker cooldown elapse
		status, raw, err := postWith(client, ts.URL, AlignRequest{Pairs: pairsJSON(pairs)})
		if err != nil {
			t.Fatal(err)
		}
		if status != http.StatusOK {
			t.Fatalf("clean-phase request failed: %d %s", status, raw)
		}
		var res AlignResponse
		if err := json.Unmarshal(raw, &res); err != nil {
			t.Fatal(err)
		}
		for k := range want {
			if res.Scores[k] != want[k] {
				t.Fatalf("clean-phase wrong score [%d] = %d, want %d", k, res.Scores[k], want[k])
			}
		}
		if res.Report.Tier == alignsvc.TierBitwise {
			break // recovered
		}
		if time.Now().After(deadline) {
			t.Fatalf("bitwise tier never recovered; last report %s, stats %+v", res.Report, svc.Stats())
		}
	}

	// Phase 3: drain under load must terminate cleanly.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	srv.BeginDrain()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("post-soak drain: %v", err)
	}
}

// sendHostile throws one malformed/oversized request and verifies the typed
// rejection. Returns false if the test should stop.
func sendHostile(t *testing.T, client *http.Client, url string, c, i int) bool {
	kind := (c + i) % 3
	var body any
	wantStatus, wantCode := http.StatusBadRequest, CodeBadRequest
	switch kind {
	case 0:
		body = `{"pairs": [{`
	case 1:
		body = AlignRequest{Pairs: []PairJSON{{X: "ACGZ", Y: "ACGTACGT"}}}
	default:
		out := make([]PairJSON, 65) // over the 64-pair cap
		for k := range out {
			out[k] = PairJSON{X: "ACGT", Y: "ACGTACGT"}
		}
		body = AlignRequest{Pairs: out}
		wantStatus, wantCode = http.StatusRequestEntityTooLarge, CodeTooLarge
	}
	status, raw, err := postWith(client, url, body)
	if err != nil {
		t.Errorf("hostile client %d iter %d: transport: %v", c, i, err)
		return false
	}
	if status != wantStatus {
		t.Errorf("hostile client %d iter %d: status %d, want %d (%s)", c, i, status, wantStatus, raw)
		return false
	}
	var e ErrorResponse
	if err := json.Unmarshal(raw, &e); err != nil || e.Code != wantCode {
		t.Errorf("hostile client %d iter %d: untyped rejection: %s", c, i, raw)
		return false
	}
	return true
}

// postWith is tryPostAlign with a caller-supplied (timeout-bearing) client.
func postWith(client *http.Client, url string, body any) (int, []byte, error) {
	var buf []byte
	switch b := body.(type) {
	case string:
		buf = []byte(b)
	default:
		var err error
		buf, err = json.Marshal(body)
		if err != nil {
			return 0, nil, err
		}
	}
	resp, err := client.Post(url+"/align", "application/json", bytes.NewReader(buf))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, raw, nil
}
