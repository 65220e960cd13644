package main

import (
	"time"

	"repro/internal/striped"
)

// ladder collects the replay timings of one workload: each rung is a call
// into one layer's public function on the workload's own inputs, repeated,
// and summarised by its median. Traced runs also record every replayed
// call as a span whose parent is the enclosing layer's replay of the same
// request. The calls run one after another, so a layer's self time is its
// median minus its child rung's median, not an interval difference.
type ladder struct {
	rec     *recorder // nil when untraced
	samples map[string][]float64
	cells   map[string]int64
	parent  map[string]string
	order   []string
	req     int64            // current replay request (negative ids)
	ids     map[string]int64 // span ids of the current request's rungs
	engine  striped.Stats    // the replay kernel's counters
}

// rungStat is one rung in the run record.
type rungStat struct {
	Name     string  `json:"name"`
	Parent   string  `json:"parent,omitempty"`
	N        int     `json:"n"`
	MedianUS float64 `json:"median_us"`
	Cells    int64   `json:"cells,omitempty"` // DP cells per call
}

func newLadder(rec *recorder) *ladder {
	return &ladder{rec: rec, samples: map[string][]float64{}, cells: map[string]int64{},
		parent: map[string]string{}}
}

// begin starts one replayed request.
func (l *ladder) begin() {
	l.req--
	l.ids = map[string]int64{}
}

// time runs fn as rung name, a child of rung parent ("" for the root) of
// the current replay request.
func (l *ladder) time(name, parent string, cells int64, fn func()) {
	begin := time.Now()
	fn()
	d := time.Since(begin)
	if l.rec != nil {
		id := l.rec.newID()
		l.ids[name] = id
		l.rec.add(id, l.ids[parent], l.req, name, begin, d)
	}
	if _, seen := l.samples[name]; !seen {
		l.order = append(l.order, name)
		l.cells[name] = cells
		l.parent[name] = parent
	}
	l.samples[name] = append(l.samples[name], float64(d.Nanoseconds())/1e3)
}

// us is a rung's median in microseconds (0 if it never ran).
func (l *ladder) us(name string) float64 {
	return median(append([]float64(nil), l.samples[name]...))
}

// gcups is a rung's DP cells per nanosecond at its median.
func (l *ladder) gcups(name string) float64 {
	us := l.us(name)
	if us == 0 {
		return 0
	}
	return float64(l.cells[name]) / (us * 1e3)
}

func (l *ladder) stats() []rungStat {
	out := make([]rungStat, 0, len(l.order))
	for _, name := range l.order {
		out = append(out, rungStat{Name: name, Parent: l.parent[name], N: len(l.samples[name]),
			MedianUS: l.us(name), Cells: l.cells[name]})
	}
	return out
}
