package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/alignsvc"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/perfmodel"
)

// TestFleetChaosSoak is the issue's acceptance scenario, end to end over
// HTTP: four flaky GPUs plus the CPU last-resort member serve full-validation
// traffic under the ≥10% fault storm; one device is killed mid-traffic and
// every in-flight batch must still complete with exact scores (lost shards
// re-queued, no duplicates, no hangs); three-device throughput must stay at
// ≥60% of the four-device baseline; /statsz and /metricsz must show the
// victim quarantined and then, after the revive, readmitted; and the drain
// must come back clean. Runs in CI under -race.
func TestFleetChaosSoak(t *testing.T) {
	reg := obs.NewRegistry()
	fl, err := fleet.New(fleet.Config{
		Devices: []fleet.DeviceConfig{
			{Name: "d0", Spec: perfmodel.TitanX, GlobalBytes: 12 << 30},
			{Name: "d1", Spec: perfmodel.TitanX, GlobalBytes: 12 << 30},
			{Name: "d2", Spec: perfmodel.TitanXHalf, GlobalBytes: 6 << 30},
			{Name: "d3", Spec: perfmodel.TitanXQuarter, GlobalBytes: 3 << 30},
			{Name: "cpu", CPU: true},
		},
		QuarantineAfter: 4,
		ProbeInterval:   50 * time.Millisecond,
		HedgeAfter:      25 * time.Millisecond,
		QueueDepth:      32,
		Metrics:         reg,
		Seed:            20170529,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	svc := alignsvc.New(alignsvc.Config{
		Seed:            101,
		Fleet:           fl,
		Workers:         4,
		MaxAttempts:     2,
		BaseBackoff:     100 * time.Microsecond,
		MaxBackoff:      500 * time.Microsecond,
		ValidateFrac:    1, // catch every injected bit flip
		BreakerFailures: 8,
		BreakerCooldown: 50 * time.Millisecond,
		Faults:          chaosFaults,
		Metrics:         reg,
	})
	defer svc.Close()
	srv, err := New(Config{
		Service:     svc,
		MaxInFlight: 4,
		MaxQueued:   8,
		MaxPairs:    64,
		MaxSeqLen:   256,
		Metrics:     reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := &http.Client{Timeout: 30 * time.Second}

	// Continuous traffic: every 200 is checked for exact scores, every
	// non-200 must be typed. okCount only moves on verified-exact responses,
	// so the throughput windows below measure correct work, not just bytes.
	var okCount, erroredCount atomic.Int64
	stopCh := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 6; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stopCh:
					return
				default:
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
					okCount.Add(1)
				case http.StatusTooManyRequests, http.StatusGatewayTimeout,
					http.StatusServiceUnavailable, http.StatusInternalServerError:
					var e ErrorResponse
					if err := json.Unmarshal(raw, &e); err != nil || e.Code == "" {
						t.Errorf("client %d iter %d: untyped %d: %s", c, i, status, raw)
						return
					}
					erroredCount.Add(1)
				default:
					t.Errorf("client %d iter %d: unexpected status %d: %s", c, i, status, raw)
					return
				}
			}
		}(c)
	}
	fail := func(format string, args ...any) {
		close(stopCh)
		wg.Wait()
		t.Fatalf(format, args...)
	}

	window := 1200 * time.Millisecond
	if testing.Short() {
		window = 500 * time.Millisecond
	}
	measure := func() int64 {
		before := okCount.Load()
		time.Sleep(window)
		return okCount.Load() - before
	}

	// Phase A: four-device baseline (after a short warmup).
	time.Sleep(200 * time.Millisecond)
	baseline := measure()
	if baseline == 0 {
		fail("no successful batches during the baseline window")
	}

	// Kill d1 mid-traffic. The in-flight batches keep being checked for
	// exact scores by the client loop; here we watch the health machine and
	// the observability surfaces react.
	fl.KillDevice("d1")
	if err := waitForState(ts.URL, "d1", fleet.Quarantined); err != nil {
		fail("d1 never quarantined after kill: %v", err)
	}
	if err := checkMetric(ts.URL, fmt.Sprintf(`fleet_device_state{device="d1"} %d`, int(fleet.Quarantined))); err != nil {
		fail("%v", err)
	}

	// Phase B: degraded throughput with the victim quarantined must hold at
	// ≥60% of the baseline (d1 was one of four members; the fleet re-balances
	// onto the survivors).
	degraded := measure()
	if degraded*100 < baseline*60 {
		fail("degraded throughput %d < 60%% of baseline %d", degraded, baseline)
	}

	// Revive: the prober must readmit d1 and the surfaces must flip back.
	fl.ReviveDevice("d1")
	if err := waitForState(ts.URL, "d1", fleet.Healthy); err != nil {
		fail("d1 never readmitted after revive: %v", err)
	}
	var st StatszResponse
	if err := getServerJSON(ts.URL+"/statsz", &st); err != nil {
		fail("statsz: %v", err)
	}
	d1 := findDevice(st.Service.Fleet, "d1")
	if d1 == nil || d1.Quarantines == 0 || d1.Readmissions == 0 {
		fail("d1 kill/revive cycle not reflected in /statsz: %+v", d1)
	}
	if err := checkMetric(ts.URL, fmt.Sprintf(`fleet_device_state{device="d1"} %d`, int(fleet.Healthy))); err != nil {
		fail("%v", err)
	}
	if err := checkMetric(ts.URL, `fleet_readmissions_total{device="d1"}`); err != nil {
		fail("%v", err)
	}

	close(stopCh)
	wg.Wait()
	if t.Failed() {
		return
	}
	fst := st.Service.Fleet
	if fst == nil || fst.Kills == 0 || fst.Requeues == 0 {
		t.Fatalf("soak did not exercise the kill/requeue paths: %+v", fst)
	}
	t.Logf("soak: baseline=%d degraded=%d ok=%d errored=%d fleet=%+v",
		baseline, degraded, okCount.Load(), erroredCount.Load(), fst)

	// Drain under the tail of the load must terminate cleanly.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	srv.BeginDrain()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("post-soak drain: %v", err)
	}
}

// waitForState polls /statsz until the named fleet device reaches the state.
func waitForState(base, name string, want fleet.State) error {
	deadline := time.Now().Add(15 * time.Second)
	var last string
	for time.Now().Before(deadline) {
		var st StatszResponse
		if err := getServerJSON(base+"/statsz", &st); err == nil && st.Service.Fleet != nil {
			if d := findDevice(st.Service.Fleet, name); d != nil {
				if d.State == want {
					return nil
				}
				last = d.State.String()
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("device %s stuck in state %q, want %v", name, last, want)
}

func findDevice(st *fleet.Stats, name string) *fleet.DeviceSnapshot {
	if st == nil {
		return nil
	}
	for i := range st.Devices {
		if st.Devices[i].Name == name {
			return &st.Devices[i]
		}
	}
	return nil
}

// checkMetric polls until one rendered line is present in /metricsz (the
// health machine may be mid-transition — e.g. a failed probe bouncing
// quarantined → probing → quarantined — when the caller observed the state).
func checkMetric(base, line string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/metricsz")
		if err != nil {
			return err
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if strings.Contains(string(raw), line) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("/metricsz missing %q", line)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func getServerJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}
