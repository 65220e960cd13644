package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// traced is the --trace 1 run: half the time untraced, half with spans
// recorded, then the replay ladder, then the per-layer metrics.
func traced(o options, def workloadDef, e *env, rec *record, load *recorder, total time.Duration, log io.Writer) (result, *record, error) {
	plain := runPhases(e, def, total/2, nil, o.seed)

	var ms0, ms1 runtime.MemStats
	c0 := e.st.snapshot()
	runtime.ReadMemStats(&ms0)
	load.on.Store(true)
	p := runPhases(e, def, total/2, load, o.seed+1)
	load.on.Store(false)
	runtime.ReadMemStats(&ms1)
	c1 := e.st.snapshot()

	// The replays run with the collector paused after one full collection,
	// so no rung pays for garbage the load or another rung left behind.
	replayRec := newRecorder()
	replayRec.on.Store(true)
	runtime.GC()
	gc := debug.SetGCPercent(-1)
	l, err := e.w.replay(e.st, replayRec, e.next.Load()+1)
	debug.SetGCPercent(gc)
	if err != nil {
		return result{}, nil, err
	}
	checked, bad := e.w.postCheck()
	ts := append(plain.all(), p.all()...)
	outside := applyBad(bad, ts)
	rec.Phases = append(describe(plain, false), describe(p, true)...)
	rec.Ladder = l.stats()
	rec.Spans = load.summarize()
	if err := writeSpans(o, load, replayRec); err != nil {
		return result{}, nil, err
	}

	sent, _, _, failedN := sumCounts(ts)
	failedN += outside
	tSent, tExact, _, _ := sumCounts(p.all())
	m := map[string]metric{}
	set := func(name, unit string, v float64) { m[name] = metric{v, unit} }

	route := "align"
	if _, ok := e.w.(*searchTarget); ok {
		route = "search"
	}
	reqMS := histMean(c0, c1, `http_request_seconds{route="`+route+`"}`) * 1e3
	us := func(name string) float64 { return histMean(c0, c1, name) * 1e6 }

	// A layer's self time is the difference of two replay medians, so
	// replay noise can push it below zero; it is clamped at 0.
	self := func(outer, inner string) float64 { return max(0, l.us(outer)-l.us(inner)) }

	// HTTP layer.
	inner := "alignsvc.service"
	if route == "search" {
		inner = "corpus.search"
	}
	set("server.self_us", "us", self("server.handler", inner))
	set("server.json_decode_us", "us", l.us("json.decode"))
	set("server.json_encode_us", "us", l.us("json.encode"))
	set("dna.parse_us", "us", l.us("dna.parse"))
	set("server.request_ms.mean", "ms", reqMS)
	set("server.shed", "count", float64(c1.server.Shed-c0.server.Shed))
	set("server.rejected", "count", float64(c1.server.Rejected-c0.server.Rejected))
	set("server.deadlines", "count", float64(c1.server.Deadlines-c0.server.Deadlines))
	set("tenant.admission_wait_us.mean", "us", us(`tenant_admission_wait_seconds{tenant="anonymous"}`))

	// Service, cache and kernel: zero on /search, which bypasses the
	// service and its cache.
	set("alignsvc.self_us", "us", self("alignsvc.service", "alignsvc.backend"))
	set("alignsvc.backend_self_us", "us", self("alignsvc.backend", "striped"))
	set("alignsvc.queue_wait_us.mean", "us", us("alignsvc_queue_wait_seconds"))
	set("alignsvc.batch_us.mean", "us", us(`alignsvc_batch_seconds{tier="striped"}`))
	set("alignsvc.retries", "count", float64(c1.svc.Retries-c0.svc.Retries))
	set("alignsvc.fallbacks", "count", float64(c1.svc.Fallbacks-c0.svc.Fallbacks))
	hits, misses := c1.cache.Hits-c0.cache.Hits, c1.cache.Misses-c0.cache.Misses
	set("aligncache.hit_ratio", "ratio", ratio(float64(hits), float64(hits+misses)))
	set("aligncache.key_us", "us", l.us("aligncache.key"))
	set("aligncache.lookup_us.mean", "us", us("aligncache_lookup_seconds"))
	set("aligncache.evictions", "count", float64(c1.cache.EvictionsLRU+c1.cache.EvictionsTTL-c0.cache.EvictionsLRU-c0.cache.EvictionsTTL))
	set("aligncache.coalesced", "count", float64(c1.cache.Coalesced-c0.cache.Coalesced))
	set("striped.gcups", "GCUPS", l.gcups("striped"))
	set("striped.us_per_lone_pair", "us", l.us("striped.lone_pair"))
	set("striped.wide_ratio", "ratio", ratio(float64(l.engine.WideRepasses), float64(l.engine.Pairs)))
	set("striped.scalar_ratio", "ratio", ratio(float64(l.engine.ScalarFallbacks), float64(l.engine.Pairs)))

	// Corpus search: zero on the /align workloads, which never reach it.
	prefilter := l.us("corpus.prefilter")
	calls := 0.0
	if prefilter > 0 {
		// Prefilter runs per request, inferred from the replays: the
		// handler's time beyond the searcher, JSON and parsing, in units
		// of one prefilter, plus the searcher's own call.
		extra := l.us("server.handler") - l.us("corpus.search") - l.us("json.decode") - l.us("dna.parse") - l.us("json.encode")
		calls = 1 + max(0, float64(int(extra/prefilter+0.5)))
	}
	set("corpus.prefilter_calls_per_req", "count", calls)
	set("corpus.kmer_us", "us", l.us("corpus.kmer"))
	set("corpus.bitap_us", "us", max(0, prefilter-l.us("corpus.kmer")))
	var scoreUS float64
	if route == "search" {
		s := stat(rec.Spans, "corpus.score")
		scoreUS = s.MeanUS * float64(s.Count) / float64(max(1, tSent))
	}
	set("corpus.score_us", "us", scoreUS)
	set("corpus.topk_us", "us", l.us("corpus.topk"))
	set("corpus.prefilter_share", "ratio", ratio(prefilter*calls, l.us("server.handler")))
	// The funnel and recall cover every well-formed /search answer of the
	// run, warm-up and both halves: they do not depend on tracing.
	var f funnel
	seqs := 0.0
	if s, ok := e.w.(*searchTarget); ok {
		f, seqs = s.funnel, float64(s.c.Len())
	}
	set("corpus.kmer_pass_ratio", "ratio", ratio(f.kmer, f.n*seqs))
	set("corpus.pass_ratio", "ratio", ratio(f.cand, f.n*seqs))
	set("corpus.candidates_per_query", "count", ratio(f.cand, f.n))
	set("corpus.scored_cells_per_query", "cells", ratio(f.scored, f.n))
	set("corpus.recall", "ratio", ratio(f.recall[0]+f.recall[1]+f.recall[2], f.n))
	for k, name := range kindNames {
		set("corpus.recall."+name, "ratio", ratio(f.recall[k], f.kindN[k]))
	}

	// Runtime, over the traced phases.
	set("runtime.alloc_kb_per_req", "KB", ratio(float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024, float64(tSent)))
	set("runtime.gc_cycles", "count", float64(ms1.NumGC-ms0.NumGC))
	set("runtime.gc_pause_ms", "ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6)

	// The open loop, where the workload has one, and the generator.
	var openP50, openP99 float64
	lagPhase := p.closed
	if p.open != nil {
		openP50, openP99, _ = latencyStats(p.open)
		lagPhase = p.open
	}
	set("bench.open_loop_p50_ms", "ms", openP50)
	set("bench.open_loop_p99_ms", "ms", openP99)
	lag := millis(lagPhase.lag)
	set("bench.gen_lag_p50_ms", "ms", quantile(lag, 0.5))
	set("bench.gen_lag_p99_ms", "ms", quantile(lag, 0.99))
	plainRPS, _ := rateStats(plain.closed)
	tracedRPS, _ := rateStats(p.closed)
	set("bench.trace_overhead_ratio", "ratio", ratio(plainRPS, tracedRPS)-1)
	_, _, samples := latencyStats(p.closed)
	set("bench.samples", "count", float64(samples))
	set("bench.checked", "count", float64(checked))
	set("bench.failed_ratio", "ratio", ratio(float64(tSent-tExact), float64(tSent)))
	set("bench.client_self_us", "us", stat(rec.Spans, "client.request").SelfUS)

	fmt.Fprintf(log, "servebench: %s seed %d traced: %d sent, %d failed, %d answers checked\n",
		o.workload, o.seed, sent, failedN, checked)
	return result{Correct: failedN == 0, Attempted: sent, Failed: failedN, Metrics: m}, rec, nil
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// writeSpans writes every recorded span, load and replay, as one JSON
// document next to the run record.
func writeSpans(o options, load, replay *recorder) error {
	path := filepath.Join(o.out, fmt.Sprintf("%s-seed%d-spans.json", o.workload, o.seed))
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	doc := struct {
		Load   []span `json:"load"`
		Replay []span `json:"replay"`
	}{load.spans, replay.spans}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
