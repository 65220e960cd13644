package server

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/alignsvc"
	"repro/internal/cluster"
	"repro/internal/jobs"
	"repro/internal/tenant"
)

// admissionCounters reads the shed and draining refusal counts from both
// places an operator sees them: /statsz's server section and /metricsz's
// server_admission_total series.
func admissionCounters(t *testing.T, base string) (statsShed, statsDrain, metricShed, metricDrain int64) {
	t.Helper()
	var st StatszResponse
	if err := getServerJSON(base+"/statsz", &st); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(base + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		var dst *int64
		switch name {
		case `server_admission_total{outcome="shed"}`:
			dst = &metricShed
		case `server_admission_total{outcome="draining"}`:
			dst = &metricDrain
		default:
			continue
		}
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			t.Fatalf("metric %s value %q: %v", name, val, err)
		}
		*dst = n
	}
	return st.Server.Shed, st.Server.Draining, metricShed, metricDrain
}

// TestAdmissionRefusalsCountedOnEveryRoute drives one shed and one
// draining refusal through each of /align, /search and /jobs, and
// requires /statsz and /metricsz to count every one of them alike.
func TestAdmissionRefusalsCountedOnEveryRoute(t *testing.T) {
	corpora, q := newServerCorpus(t, 200)
	srv, ts, _ := newJobsTestServer(t, slowServiceConfig(),
		Config{Corpora: corpora, MaxInFlight: 1, MaxQueued: 1},
		func(c *jobs.Config) {
			c.Corpora = corpora
			c.MaxConcurrent = 1
			c.MaxQueued = 1
			c.ChunkSize = 1
		})
	pairs, _ := testPairs(16, 8, 16, 81)
	alignBody := AlignRequest{Pairs: pairsJSON(pairs)}
	searchBody := SearchRequest{Query: q.String(), TopK: 3}
	jobBody := JobSubmitRequest{Pairs: pairsJSON(pairs)}

	want := func(step string, shed, drain int64) {
		t.Helper()
		ss, sd, ms, md := admissionCounters(t, ts.URL)
		if ss != shed || ms != shed || sd != drain || md != drain {
			t.Fatalf("after %s: /statsz shed=%d draining=%d, /metricsz shed=%d draining=%d; want shed=%d draining=%d",
				step, ss, sd, ms, md, shed, drain)
		}
	}
	want("start", 0, 0)

	// Pin the one execution slot and the one queue entry, so the next
	// /align and /search are shed without waiting.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	release, res := srv.sched.Admit(ctx, tenant.AnonymousID)
	if res != tenant.AdmitOK {
		t.Fatalf("pin slot: %v", res)
	}
	queued := make(chan func(), 1)
	go func() {
		rel, _ := srv.sched.Admit(ctx, tenant.AnonymousID)
		queued <- rel
	}()
	waitFor(t, 5*time.Second, func() bool { return srv.sched.Queued() == 1 })

	for i, tc := range []struct {
		path string
		body any
	}{{"/align", alignBody}, {"/search", searchBody}} {
		var e ErrorResponse
		resp := doJSON(t, http.MethodPost, ts.URL+tc.path, tc.body, &e)
		if resp.StatusCode != http.StatusTooManyRequests || e.Code != CodeShed {
			t.Fatalf("%s with the slot pinned: %d %q, want 429 shed", tc.path, resp.StatusCode, e.Code)
		}
		want(tc.path+" shed", int64(i+1), 0)
	}
	release()
	if rel := <-queued; rel != nil {
		rel()
	}

	// /jobs sheds when the job queue is full behind a slow running job.
	var jobShed bool
	for i := 0; i < 8 && !jobShed; i++ {
		var e ErrorResponse
		resp := doJSON(t, http.MethodPost, ts.URL+"/jobs", jobBody, &e)
		switch resp.StatusCode {
		case http.StatusTooManyRequests:
			if e.Code != CodeShed {
				t.Fatalf("/jobs 429 code %q, want shed", e.Code)
			}
			jobShed = true
		case http.StatusAccepted:
		default:
			t.Fatalf("/jobs submit #%d: %d %q", i, resp.StatusCode, e.Code)
		}
	}
	if !jobShed {
		t.Fatal("/jobs queue bound never shed")
	}
	want("/jobs shed", 3, 0)

	srv.BeginDrain()
	for i, tc := range []struct {
		path string
		body any
	}{{"/align", alignBody}, {"/search", searchBody}, {"/jobs", jobBody}} {
		var e ErrorResponse
		resp := doJSON(t, http.MethodPost, ts.URL+tc.path, tc.body, &e)
		if resp.StatusCode != http.StatusServiceUnavailable || e.Code != CodeDraining {
			t.Fatalf("%s while draining: %d %q, want 503 draining", tc.path, resp.StatusCode, e.Code)
		}
		want(tc.path+" draining", 3, int64(i+1))
	}
}

// TestClusterWarmRejections covers the handoff route's body checks: an
// oversized body is 413 too_large, like every other JSON route, and
// malformed or mismatched bodies are 400.
func TestClusterWarmRejections(t *testing.T) {
	svc := alignsvc.New(alignsvc.Config{Seed: 43})
	cl, err := cluster.New(cluster.Config{
		NodeID:  "solo",
		Local:   svc,
		Scoring: svc.Scoring(),
		Lanes:   svc.Lanes(),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Service: svc, Cluster: cl, MaxBodyBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		cl.Close()
		svc.Close()
	})

	big := fmt.Sprintf(`{"pairs":[{"x":"A","y":"%s"}],"scores":[1]}`, strings.Repeat("C", 512))
	cases := []struct {
		name       string
		body       string
		wantStatus int
		wantCode   string
	}{
		{"oversized", big, http.StatusRequestEntityTooLarge, CodeTooLarge},
		{"bad json", `{"pairs":`, http.StatusBadRequest, CodeBadRequest},
		{"count mismatch", `{"pairs":[{"x":"A","y":"AC"}],"scores":[]}`, http.StatusBadRequest, CodeBadRequest},
		{"ok", `{"pairs":[{"x":"A","y":"AC"}],"scores":[2]}`, http.StatusOK, ""},
	}
	for _, tc := range cases {
		var e ErrorResponse
		resp := doJSON(t, http.MethodPost, ts.URL+"/cluster/warm", tc.body, &e)
		if resp.StatusCode != tc.wantStatus || e.Code != tc.wantCode {
			t.Errorf("%s: got %d %q, want %d %q (%s)",
				tc.name, resp.StatusCode, e.Code, tc.wantStatus, tc.wantCode, e.Error)
		}
	}
}
