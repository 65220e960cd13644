package main

import (
	"context"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/alignsvc"
	"repro/internal/dna"
	"repro/internal/obs"
)

// span is one timed call at a layer boundary. Spans of one request share
// Req; Parent is the span that caused this one (0 for a root).
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Req     int64  `json:"req"`
	Name    string `json:"name"`
	StartUS int64  `json:"start_us"` // since the recorder started
	DurUS   int64  `json:"dur_us"`
	start   time.Time
	dur     time.Duration
}

// recorder keeps spans in memory while it is switched on. Root spans of
// load request i have ID 2i+1, so the server-side wrapper can name its
// parent from the request's X-Trace-Id alone; every other span draws an
// even ID.
type recorder struct {
	on   atomic.Bool
	t0   time.Time
	next atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func rootID(req int64) int64 { return 2*req + 1 }

func (r *recorder) newID() int64 { return 2 * r.next.Add(1) }

func (r *recorder) add(id, parent, req int64, name string, begin time.Time, dur time.Duration) {
	s := span{ID: id, Parent: parent, Req: req, Name: name,
		StartUS: begin.Sub(r.t0).Microseconds(), DurUS: dur.Microseconds(), start: begin, dur: dur}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

type spanKey struct{}

// tracedHandler records a server.handler span around the real handler
// and hands its ID to spans recorded deeper in the request.
type tracedHandler struct {
	next http.Handler
	rec  *recorder
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.rec.on.Load() {
		h.next.ServeHTTP(w, r)
		return
	}
	req, _ := strconv.ParseInt(r.Header.Get("X-Trace-Id"), 10, 64)
	id := h.rec.newID()
	r = r.WithContext(context.WithValue(r.Context(), spanKey{}, id))
	begin := time.Now()
	h.next.ServeHTTP(w, r)
	h.rec.add(id, rootID(req), req, "server.handler", begin, time.Since(begin))
}

// tracedBackend is the scoring backend handed to corpus.NewSearcher in
// traced runs: each AlignBatch becomes a corpus.score span under the
// request's server.handler span.
type tracedBackend struct {
	alignsvc.Backend
	rec *recorder
}

func (b *tracedBackend) AlignBatch(ctx context.Context, pairs []dna.Pair, opts alignsvc.BatchOpts) ([]int, alignsvc.BatchStats, error) {
	if !b.rec.on.Load() {
		return b.Backend.AlignBatch(ctx, pairs, opts)
	}
	parent, _ := ctx.Value(spanKey{}).(int64)
	req, _ := strconv.ParseInt(obs.TraceID(ctx), 10, 64)
	begin := time.Now()
	scores, st, err := b.Backend.AlignBatch(ctx, pairs, opts)
	b.rec.add(b.rec.newID(), parent, req, "corpus.score", begin, time.Since(begin))
	return scores, st, err
}

// spanStat summarises one span name: how many, and the mean duration and
// self time (duration minus the part of it covered by child spans).
type spanStat struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	MeanUS float64 `json:"mean_us"`
	SelfUS float64 `json:"self_us"`
}

// summarize computes self times and per-name means of the recorded spans.
func (r *recorder) summarize() []spanStat {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := map[int64][]int{}
	for i, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	type acc struct {
		n         int
		dur, self time.Duration
	}
	by := map[string]*acc{}
	for _, s := range r.spans {
		a := by[s.Name]
		if a == nil {
			a = &acc{}
			by[s.Name] = a
		}
		a.n++
		a.dur += s.dur
		a.self += s.dur - covered(s, r.spans, children[s.ID])
	}
	out := make([]spanStat, 0, len(by))
	for name, a := range by {
		out = append(out, spanStat{Name: name, Count: a.n,
			MeanUS: float64(a.dur.Microseconds()) / float64(a.n),
			SelfUS: float64(a.self.Microseconds()) / float64(a.n)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered is how much of parent's interval the child spans cover (their
// union, clipped to the parent).
func covered(parent span, all []span, kids []int) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(kids))
	end := parent.start.Add(parent.dur)
	for _, k := range kids {
		a, b := all[k].start, all[k].start.Add(all[k].dur)
		if a.Before(parent.start) {
			a = parent.start
		}
		if b.After(end) {
			b = end
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a.After(cur.b):
			total += cur.b.Sub(cur.a)
			cur = v
		case v.b.After(cur.b):
			cur.b = v.b
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// stat looks a span name up in a summary.
func stat(ss []spanStat, name string) spanStat {
	for _, s := range ss {
		if s.Name == name {
			return s
		}
	}
	return spanStat{Name: name}
}
