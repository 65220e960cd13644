package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is the part of ../BENCHMARK.json the tests check against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// runOnce runs one short invocation and decodes its last output line.
func runOnce(t *testing.T, workload string, trace int, corrupt func(target)) result {
	t.Helper()
	var out, errs bytes.Buffer
	args := []string{"--workload", workload, "--seed", "7", "--seconds", "1",
		"--trace", fmt.Sprint(trace), "--out", t.TempDir()}
	if code := run(args, &out, &errs, corrupt); code != 0 {
		t.Fatalf("%s trace %d: exit %d\n%s", workload, trace, code, errs.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s trace %d: last line: %v", workload, trace, err)
	}
	return res
}

// TestSmokeEveryWorkload runs each workload for a second, untraced and
// traced, and checks that exactly the metrics BENCHMARK.json names are
// reported, each finite and with its unit.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	f := readBenchmarkFile(t)
	want := [2]map[string]string{{}, {}}
	for _, m := range f.EndToEnd {
		want[0][m.Name] = m.Unit
	}
	for _, m := range f.PerLayer {
		want[1][m.Name] = m.Unit
	}
	for _, w := range f.Workloads {
		for trace := 0; trace <= 1; trace++ {
			res := runOnce(t, w.Name, trace, nil)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %d: correct %v, attempted %d, failed %d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want[trace]) {
				t.Errorf("%s trace %d: %d metrics, want %d", w.Name, trace, len(res.Metrics), len(want[trace]))
			}
			for name, unit := range want[trace] {
				m, ok := res.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s trace %d: metric %s missing", w.Name, trace, name)
				case m.Unit != unit:
					t.Errorf("%s trace %d: %s unit %q, want %q", w.Name, trace, name, m.Unit, unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s trace %d: %s = %v", w.Name, trace, name, m.Value)
				}
			}
		}
	}
}

// TestCorruptOracleCountsAsFailed falsifies the oracle's score for the
// best hit of one planted query: every answer to that query then
// contradicts the oracle and must land in failed, not in exact_ratio.
func TestCorruptOracleCountsAsFailed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the search workload")
	}
	res := runOnce(t, "search-mixed", 0, func(w target) {
		s := w.(*searchTarget)
		s.all[kindPlanted][s.ranked[kindPlanted][0].ID]++
	})
	if res.Correct || res.Failed == 0 {
		t.Fatalf("corrupted oracle: correct %v, failed %d of %d", res.Correct, res.Failed, res.Attempted)
	}
	ok := float64(res.Attempted-res.Failed) / float64(res.Attempted)
	if got := res.Metrics["exact_ratio"].Value; got > ok {
		t.Errorf("exact_ratio %v exceeds the %v share that did not fail", got, ok)
	}
}

// TestSearchPostCheckRescoresReturnedHits returns a hit outside the
// oracle's top-(K+1) whose score the striped oracle and the server share
// but swa.Score refutes: check cannot tell, the post-run check must.
func TestSearchPostCheckRescoresReturnedHits(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the search corpus")
	}
	s, err := newSearchTarget(7, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	var i int64
	for s.query(i)%3 != kindRandom {
		i++
	}
	qi := s.query(i)
	id := 0
	for ranked := true; ranked; id++ {
		ranked = false
		for _, h := range s.ranked[qi] {
			ranked = ranked || h.ID == id
		}
	}
	id--
	s.all[qi][id] += 5
	body := fmt.Sprintf(`{"corpus":"ref","hits":[{"id":%d,"name":%q,"score":%d}]}`, id, s.c.Name(id), s.all[qi][id])
	if out := s.check(i, 200, []byte(body)); out == failed {
		t.Fatalf("a hit agreeing with the striped oracle judged %v", out)
	}
	if _, bad := s.postCheck(); len(bad) != 1 || bad[0] != i {
		t.Fatalf("post-run check found %v, want [%d]", bad, i)
	}
}

// TestAlignCheckerCatchesWrongScores checks both /align oracles without a
// server: a wrong hot-pair score fails at once, and a wrong fresh score is
// found by the post-run sample when it is sampled.
func TestAlignCheckerCatchesWrongScores(t *testing.T) {
	a := newAlignTarget(3, 1, 4, 0.5)
	a.hotScores = a.scoreAll([]int{0, 1, 2, 3})
	var hotReq, freshReq int64 = -1, -1
	for i := int64(0); hotReq < 0 || freshReq < 0; i++ {
		if a.combo(i, 0) < a.hot {
			if hotReq < 0 {
				hotReq = i
			}
		} else if freshReq < 0 {
			freshReq = i
		}
	}
	body := func(i int64, delta int) []byte {
		want := a.scoreAll([]int{a.combo(i, 0)})[0]
		return []byte(fmt.Sprintf(`{"scores":[%d]}`, want+delta))
	}
	if out := a.check(hotReq, 200, body(hotReq, 0)); out != exact {
		t.Fatalf("right hot score judged %v", out)
	}
	a.hotScores[a.combo(hotReq, 0)]++
	if out := a.check(hotReq, 200, body(hotReq, 0)); out != failed {
		t.Fatalf("hot score against a corrupted oracle judged %v", out)
	}
	if out := a.check(freshReq, 200, body(freshReq, 1)); out != exact {
		t.Fatalf("fresh score judged %v before the post-run check", out)
	}
	if _, bad := a.postCheck(); len(bad) != 1 || bad[0] != freshReq {
		t.Fatalf("post-run check found %v, want [%d]", bad, freshReq)
	}
	if out := a.check(freshReq, 500, nil); out != failed {
		t.Fatalf("a 500 judged %v", out)
	}
}

// TestLayersDocumented keeps layers.json and BENCHMARK.json naming the
// same per-layer metrics, each with the end-to-end metrics it moves drawn
// from BENCHMARK.json.
func TestLayersDocumented(t *testing.T) {
	f := readBenchmarkFile(t)
	b, err := os.ReadFile("layers.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Layers []struct {
			Name    string   `json:"name"`
			How     string   `json:"how"`
			Moves   []string `json:"moves"`
			ShowsOn []string `json:"shows_on"`
			FlatOn  []string `json:"flat_on"`
		} `json:"layers"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	e2e, wls := map[string]bool{}, map[string]bool{}
	for _, m := range f.EndToEnd {
		e2e[m.Name] = true
	}
	for _, w := range f.Workloads {
		wls[w.Name] = true
	}
	documented := map[string]bool{}
	for _, l := range doc.Layers {
		documented[l.Name] = true
		if l.How == "" {
			t.Errorf("%s: no measurement described", l.Name)
		}
		for _, m := range l.Moves {
			if !e2e[m] {
				t.Errorf("%s moves unknown end-to-end metric %q", l.Name, m)
			}
		}
		for _, w := range append(append([]string(nil), l.ShowsOn...), l.FlatOn...) {
			if !wls[w] {
				t.Errorf("%s names unknown workload %q", l.Name, w)
			}
		}
	}
	for _, m := range f.PerLayer {
		if !documented[m.Name] {
			t.Errorf("per-layer metric %s is not in layers.json", m.Name)
		}
		delete(documented, m.Name)
	}
	for name := range documented {
		t.Errorf("layers.json documents %s, which BENCHMARK.json does not list", name)
	}
}

// TestWindowedStatistics feeds four seconds of one answer per
// millisecond, one in a hundred slow, through the windowed statistics.
func TestWindowedStatistics(t *testing.T) {
	tl := newTally(time.Time{}, 4*time.Second, 0)
	for k := 0; k < 4000; k++ {
		lat := time.Millisecond
		if k%100 == 99 {
			lat = 10 * time.Millisecond
		}
		tl.samples = append(tl.samples, sample{done: time.Duration(k) * time.Millisecond, lat: lat, cells: 1})
	}
	p50, p99, n := latencyStats(tl)
	if n != 4000 || p50 != 1 || p99 < 1 || p99 > 10 {
		t.Errorf("latencyStats = %v, %v, %d", p50, p99, n)
	}
	if rps, gcups := rateStats(tl); rps != 1000 || gcups != 1e-6 {
		t.Errorf("rateStats = %v, %v", rps, gcups)
	}
}
