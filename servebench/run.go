package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/corpus"
)

// workload is one traffic mix: its request source and checker plus the
// set-up, post-run check and replay ladder that go with it.
type workload interface {
	target
	// warm runs the workload's set-up traffic against a fresh stack.
	warm(*stack) error
	// postCheck verifies the answers check could not verify inline and
	// returns the number of answers checked in all and the request indices
	// found wrong.
	postCheck() (int64, []int64)
	// replay runs the replay ladder on the workload's own inputs;
	// from is a request index no load phase used.
	replay(st *stack, rec *recorder, from int64) (*ladder, error)
	close() error
}

// workloadDef describes a workload to the runner.
type workloadDef struct {
	build func(seed uint64, scratch string) (workload, *corpus.Corpus, error)
	// warmup is how many requests set-up sends after warm, untimed.
	warmup int
	// openShare is the share of the measured time spent in an open loop
	// at openRate requests per second (0: none). The rest is a closed loop
	// with GOMAXPROCS clients, which gives every end-to-end metric.
	//
	// The open loop's latencies, timed from the due time, go to the run
	// record and the traced ledger only. At a low rate (and likewise with
	// a single closed-loop client) the vCPUs idle between requests, so the
	// host's wake-up latency, which varies from run to run with the load
	// of other guests, sets the tail; with GOMAXPROCS clients it does not.
	openShare, openRate float64
}

var workloads = map[string]workloadDef{
	"align-interactive": {
		build: func(seed uint64, _ string) (workload, *corpus.Corpus, error) {
			return newAlignTarget(seed, 1, 1024, 0.3), nil, nil
		},
		warmup: 200, openShare: 0.3, openRate: 500,
	},
	"align-bulk": {
		build: func(seed uint64, _ string) (workload, *corpus.Corpus, error) {
			return newAlignTarget(seed, 128, 0, 0), nil, nil
		},
		warmup: 8,
	},
	"search-mixed": {
		build: func(seed uint64, dir string) (workload, *corpus.Corpus, error) {
			s, err := newSearchTarget(seed, dir)
			if err != nil {
				return nil, nil, err
			}
			return s, s.c, nil
		},
		warmup: 48,
	},
}

func workloadNames() string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// env is one set-up: a workload, its stack and the request counter.
type env struct {
	w    workload
	st   *stack
	next atomic.Int64
}

func (e *env) close() error {
	err := e.st.close()
	if werr := e.w.close(); err == nil {
		err = werr
	}
	return err
}

func setup(o options, def workloadDef, rep int, load *recorder) (*env, error) {
	dir := filepath.Join(o.out, fmt.Sprintf("corpus-%d-%d", os.Getpid(), rep))
	w, c, err := def.build(o.seed, dir)
	if err != nil {
		return nil, err
	}
	st, err := newStack(c, load)
	if err != nil {
		_ = w.close() // the stack error is the one to report
		return nil, err
	}
	e := &env{w: w, st: st}
	if err := w.warm(st); err != nil {
		_ = e.close()
		return nil, err
	}
	if t := countRequests(st, w, &e.next, def.warmup); t.failed > 0 {
		_ = e.close()
		return nil, fmt.Errorf("%d of %d warm-up requests failed", t.failed, t.sent)
	}
	return e, nil
}

// phases is one measured stretch of load: the open loop (nil when the
// workload has none) and the closed loop.
type phases struct{ open, closed *tally }

func runPhases(e *env, def workloadDef, dur time.Duration, rec *recorder, seed uint64) phases {
	var p phases
	if def.openShare > 0 {
		open := time.Duration(float64(dur) * def.openShare)
		p.open = openLoop(e.st, e.w, rec, &e.next, def.openRate, open, seed)
		dur -= open
	}
	p.closed = closedLoop(e.st, e.w, rec, &e.next, runtime.GOMAXPROCS(0), dur)
	return p
}

// all returns the phases that ran, in order.
func (p phases) all() []*tally {
	if p.open == nil {
		return []*tally{p.closed}
	}
	return []*tally{p.open, p.closed}
}

// sumCounts adds up the phases' response counts.
func sumCounts(ts []*tally) (sent, exactN, inexactN, failedN int64) {
	for _, t := range ts {
		sent += t.sent
		exactN += t.exact
		inexactN += t.inexact
		failedN += t.failed
	}
	return
}

// applyBad marks the answers the post-run check found wrong as failed in
// the phase that sent them. It returns how many were sent outside every
// phase (during set-up): they count as failures too.
func applyBad(bad []int64, ts []*tally) int64 {
	wrong := map[int64]bool{}
	for _, i := range bad {
		wrong[i] = true
	}
	found := map[int64]bool{}
	for _, t := range ts {
		for k := range t.samples {
			s := &t.samples[k]
			if !wrong[s.req] {
				continue
			}
			found[s.req] = true
			switch s.out {
			case exact:
				t.exact--
			case inexact:
				t.inexact--
			default:
				continue
			}
			s.out = failed
			t.failed++
		}
	}
	return int64(len(wrong) - len(found))
}

// heapObjects reads the bytes of live and not-yet-swept heap objects.
func heapObjects() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapPeak samples the heap every 2 ms until stopped.
type heapPeak struct {
	stop, done chan struct{}
	start      time.Time
	at         []time.Duration
	bytes      []uint64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{}), start: time.Now()}
	go func() {
		defer close(h.done)
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case now := <-t.C:
				h.at = append(h.at, now.Sub(h.start))
				h.bytes = append(h.bytes, heapObjects())
			}
		}
	}()
	return h
}

// end stops sampling and returns the median across one-second windows of
// each window's peak heap.
func (h *heapPeak) end() uint64 {
	close(h.stop)
	<-h.done
	n := max(1, int(time.Since(h.start)/rateWindow))
	peaks := make([]float64, n)
	for i, at := range h.at {
		k := min(n-1, int(at/rateWindow))
		peaks[k] = max(peaks[k], float64(h.bytes[i]))
	}
	return uint64(median(peaks))
}

// phaseInfo is one phase in the run record.
type phaseInfo struct {
	Name    string  `json:"name"`
	Traced  bool    `json:"traced"`
	WallS   float64 `json:"wall_s"`
	Sent    int64   `json:"sent"`
	Exact   int64   `json:"exact"`
	Inexact int64   `json:"inexact"`
	Failed  int64   `json:"failed"`
	P50MS   float64 `json:"p50_ms"`
	P99MS   float64 `json:"p99_ms"`
	// P99WindowsMS is each latency window's p99; P99MS is their median.
	P99WindowsMS []float64 `json:"p99_windows_ms"`
	Samples      int       `json:"samples"`
	RPS          float64   `json:"throughput_rps"`
	RPSWindows   []float64 `json:"throughput_windows_rps"`
	GCUPS        float64   `json:"gcups"`
}

func describe(p phases, traced bool) []phaseInfo {
	var out []phaseInfo
	for _, t := range p.all() {
		name := "closed"
		if t == p.open {
			name = "open"
		}
		p50s, p99s, n := latencyWindows(t)
		rs, gs := rateWindows(t)
		out = append(out, phaseInfo{Name: name, Traced: traced, WallS: t.wall.Seconds(), Sent: t.sent,
			Exact: t.exact, Inexact: t.inexact, Failed: t.failed,
			P50MS: median(append([]float64(nil), p50s...)), P99MS: median(append([]float64(nil), p99s...)),
			P99WindowsMS: p99s, Samples: n, RPSWindows: rs,
			RPS: median(append([]float64(nil), rs...)), GCUPS: median(gs)})
	}
	return out
}

// setupReps is how many times an untraced run sets up; setup_s is the
// median. A traced run sets up once.
const setupReps = 3

// execute sets up (several times, keeping the last), runs the measured
// phases, checks the answers and computes the metrics.
func execute(o options, log io.Writer) (result, *record, error) {
	def := workloads[o.workload]
	rec := &record{Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Host: readHost()}
	fmt.Fprintf(log, "servebench: host %+v\n", rec.Host)
	var load *recorder
	if o.trace {
		load = newRecorder()
	}
	reps := setupReps
	if o.trace {
		reps = 1
	}
	var e *env
	for rep := 0; rep < reps; rep++ {
		begin := time.Now()
		if rep == 0 {
			begin = processStart
		}
		cur, err := setup(o, def, rep, load)
		if err != nil {
			return result{}, nil, fmt.Errorf("set-up: %w", err)
		}
		rec.SetupS = append(rec.SetupS, time.Since(begin).Seconds())
		if rep+1 < reps {
			if err := cur.close(); err != nil {
				return result{}, nil, err
			}
			continue
		}
		e = cur
	}
	defer func() {
		if err := e.close(); err != nil {
			fmt.Fprintf(log, "servebench: %v\n", err)
		}
	}()
	if o.corrupt != nil {
		o.corrupt(e.w)
	}
	total := time.Duration(o.seconds) * time.Second
	if o.trace {
		return traced(o, def, e, rec, load, total, log)
	}

	runtime.GC()
	base := heapObjects()
	peak := startHeapPeak()
	p := runPhases(e, def, total, nil, o.seed)
	peakBytes := peak.end()
	checked, bad := e.w.postCheck()
	outside := applyBad(bad, p.all())
	rec.Phases = describe(p, false)

	sent, exactN, _, failedN := sumCounts(p.all())
	failedN += outside
	p50, p99, n := latencyStats(p.closed)
	rps, gcups := rateStats(p.closed)
	m := map[string]metric{
		"setup_s":        {median(append([]float64(nil), rec.SetupS...)), "s"},
		"p50_ms":         {p50, "ms"},
		"p99_ms":         {p99, "ms"},
		"throughput_rps": {rps, "1/s"},
		"gcups":          {gcups, "GCUPS"},
		"exact_ratio":    {float64(exactN) / float64(sent), "ratio"},
		"peak_heap_mb":   {float64(int64(peakBytes)-int64(base)) / (1 << 20), "MB"},
	}
	fmt.Fprintf(log, "servebench: %s seed %d: %d latency samples, %d sent, %d failed, %d answers checked\n",
		o.workload, o.seed, n, sent, failedN, checked)
	return result{Correct: failedN == 0, Attempted: sent, Failed: failedN, Metrics: m}, rec, nil
}
