package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// outcome is the checker's judgement of one response.
type outcome int

const (
	// exact: 2xx, well-formed, and equal to the oracle's answer.
	exact outcome = iota
	// inexact: a well-formed answer whose every returned score is exact,
	// but which is not the oracle's answer — a /search top-K that the
	// lossy prefilter funnel cut short (ROADMAP item 2).
	inexact
	// failed: transport error, non-2xx, malformed body, or a score that
	// contradicts the oracle.
	failed
)

// target is one workload's request source and checker. request renders
// request i into buf (a request's content depends only on the seed and
// i) and returns its route and DP cells; check judges the response.
type target interface {
	request(i int64, buf []byte) (route string, body []byte, cells int64)
	check(i int64, status int, body []byte) outcome
}

// sample is one answered request: its index, when it completed (since the
// phase started), its latency, its DP cells and its outcome. Only exact
// answers count towards throughput and GCUPS.
type sample struct {
	req       int64
	done, lat time.Duration
	cells     int64
	out       outcome
}

// tally accumulates one phase's samples. Each client goroutine fills its
// own tally; they are merged after the phase.
type tally struct {
	start                time.Time
	planned              time.Duration // the phase's measured duration
	samples              []sample
	lag                  []time.Duration
	sent, exact, inexact int64
	failed               int64
	wall                 time.Duration
}

func newTally(start time.Time, planned time.Duration, capHint int) *tally {
	return &tally{start: start, planned: planned, samples: make([]sample, 0, capHint),
		lag: make([]time.Duration, 0, capHint)}
}

func (t *tally) merge(o *tally) {
	t.samples = append(t.samples, o.samples...)
	t.lag = append(t.lag, o.lag...)
	t.sent += o.sent
	t.exact += o.exact
	t.inexact += o.inexact
	t.failed += o.failed
}

// client is one generator goroutine's connection state.
type client struct {
	st   *stack
	tgt  target
	rec  *recorder // nil, or the load recorder (spans while switched on)
	buf  []byte
	resp bytes.Buffer
}

// do sends request i and records it into t; latency runs from the given
// time to the checked response.
func (c *client) do(i int64, due time.Time, t *tally) {
	route, body, cells := c.tgt.request(i, c.buf[:0])
	c.buf = body[:0]
	sent := time.Now()
	out := failed
	if status, err := c.post(i, route, body); err == nil {
		out = c.tgt.check(i, status, c.resp.Bytes())
	}
	done := time.Now()
	if c.rec != nil && c.rec.on.Load() {
		c.rec.add(rootID(i), 0, i, "client.request", sent, done.Sub(sent))
	}
	t.sent++
	switch out {
	case exact:
		t.exact++
	case inexact:
		t.inexact++
	default:
		t.failed++
	}
	t.samples = append(t.samples, sample{req: i, done: done.Sub(t.start), lat: done.Sub(due), cells: cells, out: out})
}

func (c *client) post(i int64, route string, body []byte) (int, error) {
	req, err := http.NewRequest(http.MethodPost, c.st.url+route, bytes.NewReader(body))
	if err != nil {
		return 0, fmt.Errorf("build request: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	if c.rec != nil && c.rec.on.Load() {
		req.Header.Set("X-Trace-Id", strconv.FormatInt(i, 10))
	}
	resp, err := c.st.client.Do(req)
	if err != nil {
		return 0, fmt.Errorf("post %s: %w", route, err)
	}
	defer resp.Body.Close()
	c.resp.Reset()
	if _, err := c.resp.ReadFrom(resp.Body); err != nil {
		return 0, fmt.Errorf("read %s response: %w", route, err)
	}
	return resp.StatusCode, nil
}

// openLoop sends Poisson arrivals at rate per second for dur, from
// GOMAXPROCS goroutines that each claim the next due slot. A request that
// could not be sent on time because the clients were still waiting on
// earlier answers is timed from its due time, so a stall is charged to
// every request it delays. A client that was free sleeps until the due
// time; the timer wakes it up to a millisecond late (the poller's
// resolution), and that lateness is the generator's, not the server's, so
// such a request is timed from its actual send. Lag records how late each
// request went out either way.
//
// The clients sleep rather than spin: a goroutine spinning on
// runtime.Gosched stays runnable, and a P that always finds runnable work
// skips its non-blocking network poll, so the server's own reads would
// wait for sysmon's poll, up to 10 ms later.
func openLoop(st *stack, tgt target, rec *recorder, next *atomic.Int64, rate float64, dur time.Duration, seed uint64) *tally {
	rng := rand.New(rand.NewPCG(seed, 0x09e7))
	var offs []time.Duration
	for at := time.Duration(0); ; {
		at += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if at >= dur {
			break
		}
		offs = append(offs, at)
	}
	clients := runtime.GOMAXPROCS(0)
	var slot atomic.Int64
	start := time.Now().Add(2 * time.Millisecond)
	return drive(st, tgt, rec, clients, dur, len(offs)/clients+16, func(c *client, t *tally) {
		for {
			k := slot.Add(1) - 1
			if k >= int64(len(offs)) {
				return
			}
			due := start.Add(offs[k])
			from := due
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
				from = time.Now()
			}
			t.lag = append(t.lag, time.Since(due))
			c.do(next.Add(1)-1, from, t)
		}
	}, start)
}

// closedLoop runs clients that each send their next request as soon as
// the previous one is checked, until dur has passed. Lag is the
// generator's own gap between a response and the next send.
func closedLoop(st *stack, tgt target, rec *recorder, next *atomic.Int64, clients int, dur time.Duration) *tally {
	start := time.Now()
	stop := start.Add(dur)
	return drive(st, tgt, rec, clients, dur, 1<<15, func(c *client, t *tally) {
		prev := time.Now()
		for time.Now().Before(stop) {
			due := time.Now()
			t.lag = append(t.lag, due.Sub(prev))
			c.do(next.Add(1)-1, due, t)
			prev = time.Now()
		}
	}, start)
}

// countRequests sends n requests from one goroutine, outside any timed
// phase (warm-up).
func countRequests(st *stack, tgt target, next *atomic.Int64, n int) *tally {
	return drive(st, tgt, nil, 1, 0, n, func(c *client, t *tally) {
		for k := 0; k < n; k++ {
			c.do(next.Add(1)-1, time.Now(), t)
		}
	}, time.Now())
}

// drive runs body on the given number of client goroutines, waits for all
// of them and merges their tallies. The phase's wall time runs from start
// to the last response; planned is its nominal length.
func drive(st *stack, tgt target, rec *recorder, clients int, planned time.Duration, capHint int, body func(*client, *tally), start time.Time) *tally {
	tallies := make([]*tally, clients)
	var wg sync.WaitGroup
	for w := range tallies {
		tallies[w] = newTally(start, planned, capHint)
		wg.Add(1)
		go func(t *tally) {
			defer wg.Done()
			body(&client{st: st, tgt: tgt, rec: rec, buf: make([]byte, 0, 4096)}, t)
		}(tallies[w])
	}
	wg.Wait()
	out := newTally(start, planned, 0)
	for _, t := range tallies {
		out.merge(t)
	}
	out.wall = time.Since(start)
	return out
}
