package main

import (
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks. xs is sorted in place. It returns 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// millis converts durations to float milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// mix is splitmix64: a stateless hash that turns (seed, index) into the
// per-request random choices, so a request's content depends only on the
// seed and its index, never on which client sent it.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// draw is the per-request random number of stream salt for request i.
func draw(seed, salt uint64, i int64) uint64 { return mix(mix(seed+salt) ^ uint64(i)) }

// unit maps a hash to [0, 1).
func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// Window sizes for the reported statistics. Runs share a host whose
// speed drifts (other guests steal CPU in bursts), so each statistic is
// computed per window and the median across windows is reported: a burst
// that spoils one or two windows does not move it.
const (
	// latencyWindowSamples is the fewest samples a latency window holds,
	// so each window's p99 has ten samples beyond it.
	latencyWindowSamples = 1000
	maxLatencyWindows    = 10
	// rateWindow is the length of a throughput or heap window.
	rateWindow = time.Second
)

// windows splits a phase's samples into n equal stretches of its planned
// time by completion; samples completing after the planned end are
// dropped.
func windows(t *tally, n int) [][]sample {
	out := make([][]sample, n)
	for _, s := range t.samples {
		k := int(int64(s.done) * int64(n) / int64(t.planned))
		if k >= 0 && k < n {
			out[k] = append(out[k], s)
		}
	}
	return out
}

// latencyStats returns the medians across windows of each window's p50
// and p99 (ms), and the number of samples they rest on.
func latencyStats(t *tally) (p50, p99 float64, n int) {
	p50s, p99s, n := latencyWindows(t)
	return median(p50s), median(p99s), n
}

// latencyWindows returns each latency window's p50 and p99 (ms).
func latencyWindows(t *tally) (p50s, p99s []float64, n int) {
	k := max(1, min(maxLatencyWindows, len(t.samples)/latencyWindowSamples))
	for _, w := range windows(t, k) {
		lat := make([]float64, len(w))
		for i, s := range w {
			lat[i] = float64(s.lat) / float64(time.Millisecond)
		}
		p50s = append(p50s, quantile(lat, 0.5))
		p99s = append(p99s, quantile(lat, 0.99))
		n += len(w)
	}
	return p50s, p99s, n
}

// rateStats returns the medians across one-second windows of exact
// answers per second and the GCUPS they delivered.
func rateStats(t *tally) (rps, gcups float64) {
	rs, gs := rateWindows(t)
	return median(rs), median(gs)
}

// rateWindows returns each one-second window's exact answers per second
// and the GCUPS they delivered.
func rateWindows(t *tally) (rs, gs []float64) {
	k := max(1, int(t.planned/rateWindow))
	secs := t.planned.Seconds() / float64(k)
	for _, w := range windows(t, k) {
		var ok, cells float64
		for _, s := range w {
			if s.out == exact {
				ok++
				cells += float64(s.cells)
			}
		}
		rs = append(rs, ok/secs)
		gs = append(gs, cells/secs/1e9)
	}
	return rs, gs
}
