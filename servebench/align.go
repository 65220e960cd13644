package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/aligncache"
	"repro/internal/alignsvc"
	"repro/internal/dna"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/server"
	"repro/internal/striped"
	"repro/internal/swa"
)

// The paper's bulk shape: pattern m = 128, text n = 1024.
const (
	patternLen = 128
	textLen    = 1024
	// The pair pool: pair c is pattern c % P against text (c/P + c%P) % T
	// rotated left by c / (P·T) bases, so no two pair indices share content
	// and fresh pairs never repeat, however many a run sends.
	poolPatterns = 512
	poolTexts    = 4096
	// sampleChecks bounds the fresh answers re-scored by swa.Score after
	// the timed phase (0.67 ms each on a 2-vCPU Xeon).
	sampleChecks = 2000
	// fillBase is the first pool pair that set-up sends to fill the cache;
	// its rotation (512 bases) is one a run's pairs never reach.
	fillBase = 1 << 30
	// sendBatch is how many pairs one set-up request carries.
	sendBatch = 128
)

// alignTarget generates /align traffic: perReq pairs per request, and for
// the interactive mix a share of requests repeating a hot-set pair.
type alignTarget struct {
	seed    uint64
	perReq  int
	hot     int     // hot-set size (pairs 0..hot-1); fresh pairs follow it
	repeat  float64 // share of requests that repeat a hot pair
	pats    []string
	texts   []string
	patSeq  []dna.Seq
	textSeq []dna.Seq

	hotScores []int // swa.Score of every hot pair
	checked   atomic.Int64

	// A reservoir sample of the fresh answers, re-scored after the load.
	mu      sync.Mutex
	offered int64
	rng     *rand.Rand
	kept    []answer
}

// answer is one fresh pair's score as the server returned it.
type answer struct {
	req   int64
	c     int
	score int
}

func newAlignTarget(seed uint64, perReq, hot int, repeat float64) *alignTarget {
	rng := rand.New(rand.NewPCG(seed, 0xa11e))
	a := &alignTarget{seed: seed, perReq: perReq, hot: hot, repeat: repeat,
		rng: rand.New(rand.NewPCG(seed, 0xc4ec))}
	a.patSeq = make([]dna.Seq, poolPatterns)
	a.pats = make([]string, poolPatterns)
	for i := range a.patSeq {
		a.patSeq[i] = dna.RandSeq(rng, patternLen)
		a.pats[i] = a.patSeq[i].String()
	}
	a.textSeq = make([]dna.Seq, poolTexts)
	a.texts = make([]string, poolTexts)
	for i := range a.textSeq {
		a.textSeq[i] = dna.RandSeq(rng, textLen)
		a.texts[i] = a.textSeq[i].String()
	}
	return a
}

// pair returns pool pair c's pattern and text indices and text rotation.
func (a *alignTarget) pair(c int) (x, y, rot int) {
	return c % poolPatterns, (c/poolPatterns + c%poolPatterns) % poolTexts, c / (poolPatterns * poolTexts) % textLen
}

// seqs returns pool pair c as parsed sequences.
func (a *alignTarget) seqs(c int) (dna.Seq, dna.Seq) {
	x, y, rot := a.pair(c)
	t := a.textSeq[y]
	if rot > 0 {
		t = append(t[rot:len(t):len(t)], t[:rot]...)
	}
	return a.patSeq[x], t
}

// combo is the pool index of pair j of request i.
func (a *alignTarget) combo(i int64, j int) int {
	if a.hot > 0 && unit(draw(a.seed, 1, i)) < a.repeat {
		return int(draw(a.seed, 2, i) % uint64(a.hot))
	}
	return a.hot + int(i)*a.perReq + j
}

func (a *alignTarget) request(i int64, buf []byte) (string, []byte, int64) {
	buf = append(buf, `{"pairs":[`...)
	for j := 0; j < a.perReq; j++ {
		if j > 0 {
			buf = append(buf, ',')
		}
		x, y, rot := a.pair(a.combo(i, j))
		buf = append(buf, `{"x":"`...)
		buf = append(buf, a.pats[x]...)
		buf = append(buf, `","y":"`...)
		buf = append(buf, a.texts[y][rot:]...)
		buf = append(buf, a.texts[y][:rot]...)
		buf = append(buf, `"}`...)
	}
	buf = append(buf, `]}`...)
	return "/align", buf, int64(a.perReq) * patternLen * textLen
}

// check compares hot-pair scores with the oracle at once and offers fresh
// scores to the sample re-scored after the load.
func (a *alignTarget) check(i int64, status int, body []byte) outcome {
	if status != http.StatusOK {
		return failed
	}
	var resp struct {
		Scores []int `json:"scores"`
	}
	if err := json.Unmarshal(body, &resp); err != nil || len(resp.Scores) != a.perReq {
		return failed
	}
	for j, s := range resp.Scores {
		c := a.combo(i, j)
		if c < a.hot {
			a.checked.Add(1)
			if s != a.hotScores[c] {
				return failed
			}
			continue
		}
		a.offer(answer{req: i, c: c, score: s})
	}
	return exact
}

// offer keeps a uniform sample of sampleChecks fresh answers (reservoir
// sampling), however many the run produces.
func (a *alignTarget) offer(ans answer) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.offered++
	if len(a.kept) < sampleChecks {
		a.kept = append(a.kept, ans)
	} else if k := a.rng.Int64N(a.offered); k < sampleChecks {
		a.kept[k] = ans
	}
}

// scoreAll runs swa.Score over the pool pairs cs on GOMAXPROCS goroutines.
func (a *alignTarget) scoreAll(cs []int) []int {
	out := make([]int, len(cs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := next.Add(1) - 1; k < int64(len(cs)); k = next.Add(1) - 1 {
				x, y := a.seqs(cs[k])
				out[k] = swa.Score(x, y, swa.PaperScoring)
			}
		}()
	}
	wg.Wait()
	return out
}

// warm fills the score cache, then computes the hot set's oracle scores
// and sends the hot set to the server once, so later repeats are cache
// hits. The server's answers for the hot set must match the oracle.
func (a *alignTarget) warm(st *stack) error {
	if err := a.fill(st); err != nil {
		return err
	}
	if a.hot == 0 {
		return nil
	}
	cs := make([]int, a.hot)
	for c := range cs {
		cs[c] = c
	}
	a.hotScores = a.scoreAll(cs)
	for lo := 0; lo < a.hot; lo += sendBatch {
		scores, err := a.send(st, lo, min(lo+sendBatch, a.hot))
		if err != nil {
			return fmt.Errorf("hot set: %w", err)
		}
		for k, s := range scores {
			if s != a.hotScores[lo+k] {
				return fmt.Errorf("hot pair %d: server %d, swa.Score %d", lo+k, s, a.hotScores[lo+k])
			}
		}
	}
	return nil
}

// fill sends pairs from fillBase on, from GOMAXPROCS goroutines, until the
// cache first evicts. The load then meets a full cache, as a long-running
// server's is, rather than one that grows through the first seconds of the
// run while the collector's mark work grows with it and raises the tail.
func (a *alignTarget) fill(st *stack) error {
	var next atomic.Int64
	errs := make([]error, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for st.svc.CacheStats().EvictionsLRU == 0 {
				lo := fillBase + int(next.Add(sendBatch)-sendBatch)
				if _, err := a.send(st, lo, lo+sendBatch); err != nil {
					errs[w] = fmt.Errorf("fill cache: %w", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// send posts pool pairs lo..hi-1 in one /align request and returns the
// scores.
func (a *alignTarget) send(st *stack, lo, hi int) ([]int, error) {
	req := server.AlignRequest{}
	for c := lo; c < hi; c++ {
		x, y := a.seqs(c)
		req.Pairs = append(req.Pairs, server.PairJSON{X: x.String(), Y: y.String()})
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("encode: %w", err)
	}
	resp, err := st.client.Post(st.url+"/align", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("send: %w", err)
	}
	defer resp.Body.Close()
	var out server.AlignResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || resp.StatusCode != http.StatusOK || len(out.Scores) != hi-lo {
		return nil, fmt.Errorf("status %d, %d scores: %v", resp.StatusCode, len(out.Scores), err)
	}
	return out.Scores, nil
}

// postCheck re-scores the sampled fresh answers with swa.Score and
// returns how many answers were checked in all and the request indices
// that were wrong.
func (a *alignTarget) postCheck() (int64, []int64) {
	cs := make([]int, len(a.kept))
	for k, ans := range a.kept {
		cs[k] = ans.c
	}
	want := a.scoreAll(cs)
	var bad []int64
	for k, ans := range a.kept {
		if ans.score != want[k] {
			bad = append(bad, ans.req)
		}
	}
	a.checked.Add(int64(len(a.kept)))
	a.kept = nil
	return a.checked.Load(), bad
}

func (a *alignTarget) close() error { return nil }

// replay times each layer of the /align path on the workload's own
// request shape, outside the load: the handler and the service on a stack
// with the cache off (so every replay does the same work), the bare
// backend, the striped kernel, and the pieces of the handler's own work.
func (a *alignTarget) replay(_ *stack, rec *recorder, from int64) (*ladder, error) {
	reg := obs.NewRegistry()
	svc := alignsvc.New(alignsvc.Config{Backend: alignsvc.BackendStriped, Lanes: 32, Seed: 1, Metrics: reg})
	defer svc.Close()
	srv, err := server.New(server.Config{Service: svc, Metrics: reg})
	if err != nil {
		return nil, fmt.Errorf("replay server: %w", err)
	}
	h := srv.Handler()
	be, err := alignsvc.NewBackend(alignsvc.BackendStriped, pipeline.Config{}, 32)
	if err != nil {
		return nil, fmt.Errorf("replay backend: %w", err)
	}
	eng := striped.New(striped.Config{})
	sc := swa.PaperScoring
	ctx := context.Background()

	inputs, reps := 64, 5
	if a.perReq > 1 {
		inputs, reps = 8, 3
	}
	l := newLadder(rec)
	var buf []byte
	for k, i := 0, from; k < inputs; i++ {
		if a.combo(i, 0) < a.hot {
			continue // replay fresh requests only: the replay stack has no cache
		}
		_, body, cells := a.request(i, buf[:0])
		buf = body
		k++
		for r := 0; r < reps; r++ {
			l.begin()
			var code int
			l.time("server.handler", "", cells, func() {
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/align", bytes.NewReader(body)))
				code = w.Code
			})
			if code != http.StatusOK {
				return nil, fmt.Errorf("replay handler: status %d", code)
			}
			var req server.AlignRequest
			var err error
			l.time("json.decode", "server.handler", 0, func() {
				err = json.NewDecoder(bytes.NewReader(body)).Decode(&req)
			})
			if err != nil {
				return nil, fmt.Errorf("replay decode: %w", err)
			}
			pairs := make([]dna.Pair, len(req.Pairs))
			l.time("dna.parse", "server.handler", 0, func() {
				for j, p := range req.Pairs {
					x, _ := dna.Parse(p.X) // the handler replay above validated them
					y, _ := dna.Parse(p.Y)
					pairs[j] = dna.Pair{X: x, Y: y}
				}
			})
			var res *alignsvc.BatchResult
			l.time("alignsvc.service", "server.handler", cells, func() { res, err = svc.Align(ctx, pairs) })
			if err != nil {
				return nil, fmt.Errorf("replay service: %w", err)
			}
			l.time("aligncache.key", "alignsvc.service", 0, func() {
				for _, p := range pairs {
					aligncache.KeyOf(p.X, p.Y, sc, 32)
				}
			})
			l.time("alignsvc.backend", "alignsvc.service", cells, func() { _, _, err = be.AlignBatch(ctx, pairs, alignsvc.BatchOpts{}) })
			if err != nil {
				return nil, fmt.Errorf("replay backend: %w", err)
			}
			l.time("striped", "alignsvc.backend", cells, func() { _, _, err = eng.ScoreBatch(ctx, pairs, sc) })
			if err != nil {
				return nil, fmt.Errorf("replay kernel: %w", err)
			}
			l.time("striped.lone_pair", "alignsvc.backend", patternLen*textLen, func() { _, _, err = eng.ScoreBatch(ctx, pairs[:1], sc) })
			if err != nil {
				return nil, fmt.Errorf("replay kernel: %w", err)
			}
			l.time("json.encode", "server.handler", 0, func() {
				_ = json.NewEncoder(io.Discard).Encode(server.AlignResponse{Scores: res.Scores, Report: res.Report})
			})
		}
	}
	l.engine = eng.Stats()
	return l, nil
}
