package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/alignsvc"
	"repro/internal/corpus"
	"repro/internal/dna"
	"repro/internal/pipeline"
	"repro/internal/server"
	"repro/internal/striped"
	"repro/internal/swa"
)

// Shape of the search workload: a synthetic corpus of 128-base sequences
// indexed at the default k, whose posting lists (several MB) exceed the
// per-core caches, and 64-base queries asking for the top 10.
const (
	corpusSeqs     = 16384
	corpusSeqLen   = 128
	queryLen       = 64
	queriesPerKind = 16
	searchTopK     = 10
	// plantedCopies homologs per planted query: more true hits than K.
	plantedCopies = 20
	// partialLen bases of a partial query are planted in one sequence.
	partialLen = 30
)

// Query kinds, in equal shares of the pool.
const (
	kindPlanted = iota // homologs planted in plantedCopies sequences
	kindPartial        // a partialLen-base piece planted in one sequence
	kindRandom         // nothing planted
)

var kindNames = [3]string{"planted", "partial", "random"}

// searchTarget generates /search traffic from a seeded query pool and
// checks each response against a scan-all oracle: the exact score of
// every corpus sequence for every pooled query, and the top-K ranked from
// them (what /search answers with min_kmer_hits and max_edits at -1).
type searchTarget struct {
	seed    uint64
	dir     string
	c       *corpus.Corpus
	queries []dna.Seq
	bodies  [][]byte
	all     [][]int32      // all[q][id]: exact SW score
	ranked  [][]corpus.Hit // oracle top-(K+1) per query, re-scored by swa.Score
	checked atomic.Int64

	mu     sync.Mutex
	funnel funnel
	// unverified maps each returned (query, id) whose score only the
	// striped oracle vouched for to the requests that returned it; the
	// post-run check re-scores it with swa.Score.
	unverified map[[2]int][]int64
}

// funnel sums what the well-formed /search answers of a run reported.
type funnel struct {
	n, kmer, cand, scored float64
	recall, kindN         [3]float64 // per query kind
}

// newSearchTarget builds the corpus under dir and computes the oracle.
func newSearchTarget(seed uint64, dir string) (*searchTarget, error) {
	rng := rand.New(rand.NewPCG(seed, 0x5ea7c4))
	seqs := make([]dna.Seq, corpusSeqs)
	for i := range seqs {
		seqs[i] = dna.RandSeq(rng, corpusSeqLen)
	}
	// Plants land in distinct sequences, drawn without replacement.
	targets := rng.Perm(corpusSeqs)
	mut := dna.MutationModel{SubRate: 0.05, InsRate: 0.01, DelRate: 0.01}
	s := &searchTarget{seed: seed, dir: dir, unverified: map[[2]int][]int64{}}
	for qi := 0; qi < 3*queriesPerKind; qi++ {
		q := dna.RandSeq(rng, queryLen)
		switch qi % 3 {
		case kindPlanted:
			for r := 0; r < plantedCopies; r++ {
				cp := mut.Mutate(rng, q)
				if len(cp) > corpusSeqLen {
					cp = cp[:corpusSeqLen]
				}
				y := seqs[targets[0]]
				targets = targets[1:]
				copy(y[rng.IntN(corpusSeqLen-len(cp)+1):], cp)
			}
		case kindPartial:
			off := rng.IntN(queryLen - partialLen + 1)
			y := seqs[targets[0]]
			targets = targets[1:]
			copy(y[rng.IntN(corpusSeqLen-partialLen+1):], q[off:off+partialLen])
		}
		s.queries = append(s.queries, q)
		body, err := json.Marshal(server.SearchRequest{Query: q.String(), TopK: searchTopK})
		if err != nil {
			return nil, fmt.Errorf("encode query: %w", err)
		}
		s.bodies = append(s.bodies, body)
	}
	recs := make([]dna.Record, corpusSeqs)
	for i, y := range seqs {
		recs[i] = dna.Record{Name: fmt.Sprintf("s%05d", i), Seq: y}
	}
	c, err := corpus.Build(dir, recs, corpus.IndexOptions{})
	if err != nil {
		_ = os.RemoveAll(dir) // the build error is the one to report
		return nil, fmt.Errorf("build corpus: %w", err)
	}
	s.c = c
	if err := s.oracle(); err != nil {
		_ = s.close() // the oracle error is the one to report
		return nil, err
	}
	return s, nil
}

// oracle scores every (query, sequence) pair on a private striped backend
// and ranks the scan-all top-K and the runner-up; each is re-scored by the
// scalar swa.Score, so neither the oracle's answer nor the score that
// keeps a sequence out of it rests on the engine alone.
func (s *searchTarget) oracle() error {
	be, err := alignsvc.NewBackend(alignsvc.BackendStriped, pipeline.Config{}, 32)
	if err != nil {
		return fmt.Errorf("oracle backend: %w", err)
	}
	s.all = make([][]int32, len(s.queries))
	s.ranked = make([][]corpus.Hit, len(s.queries))
	errs := make([]error, len(s.queries))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pairs := make([]dna.Pair, 0, 1024)
			for qi := int(next.Add(1) - 1); qi < len(s.queries); qi = int(next.Add(1) - 1) {
				errs[qi] = s.oracleQuery(be, qi, pairs)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (s *searchTarget) oracleQuery(be alignsvc.Backend, qi int, pairs []dna.Pair) error {
	q := s.queries[qi]
	all := make([]int32, s.c.Len())
	hits := make([]corpus.Hit, s.c.Len())
	for lo := 0; lo < s.c.Len(); lo += cap(pairs) {
		pairs = pairs[:0]
		for id := lo; id < min(lo+cap(pairs), s.c.Len()); id++ {
			pairs = append(pairs, dna.Pair{X: q, Y: s.c.Seq(id)})
		}
		scores, _, err := be.AlignBatch(context.Background(), pairs, alignsvc.BatchOpts{})
		if err != nil {
			return fmt.Errorf("oracle query %d: %w", qi, err)
		}
		for k, sc := range scores {
			id := lo + k
			all[id] = int32(sc)
			hits[id] = corpus.Hit{ID: id, Name: s.c.Name(id), Score: sc}
		}
	}
	ranked := corpus.RankHits(hits, searchTopK+1)
	for _, h := range ranked {
		if want := swa.Score(q, s.c.Seq(h.ID), swa.PaperScoring); want != h.Score {
			return fmt.Errorf("oracle query %d: striped scored sequence %d %d, swa.Score %d", qi, h.ID, h.Score, want)
		}
	}
	s.all[qi], s.ranked[qi] = all, ranked
	return nil
}

// top is the oracle's answer for query qi.
func (s *searchTarget) top(qi int) []corpus.Hit {
	r := s.ranked[qi]
	return r[:min(len(r), searchTopK)]
}

func (s *searchTarget) query(i int64) int { return int(draw(s.seed, 3, i) % uint64(len(s.queries))) }

func (s *searchTarget) request(i int64, buf []byte) (string, []byte, int64) {
	q := s.query(i)
	// SWAPHI's database-search convention: query length × corpus bases.
	return "/search", append(buf, s.bodies[q]...), int64(len(s.queries[q])) * s.c.TotalBases()
}

// check fails a response that is not 2xx, not well-formed, or carries a
// score, name or order that contradicts the oracle; it is inexact when
// every returned hit is right but the list is not the scan-all top-K.
func (s *searchTarget) check(i int64, status int, body []byte) outcome {
	if status != http.StatusOK {
		return failed
	}
	var resp server.SearchResponse
	if err := json.Unmarshal(body, &resp); err != nil || len(resp.Hits) > searchTopK {
		return failed
	}
	s.checked.Add(1)
	qi := s.query(i)
	top := s.top(qi)
	matched := 0
	var unverified []int
	for k, h := range resp.Hits {
		if h.ID < 0 || h.ID >= s.c.Len() || h.Name != s.c.Name(h.ID) || h.Score != int(s.all[qi][h.ID]) {
			return failed
		}
		if k > 0 {
			p := resp.Hits[k-1]
			if p.Score < h.Score || (p.Score == h.Score && p.ID >= h.ID) {
				return failed
			}
		}
		ranked := false
		for r, t := range s.ranked[qi] {
			if t.ID == h.ID {
				ranked = true
				if r < len(top) {
					matched++
				}
				break
			}
		}
		if !ranked {
			unverified = append(unverified, h.ID)
		}
	}
	out := inexact
	if matched == len(top) && len(resp.Hits) == len(top) {
		out = exact
	}
	recall := 1.0
	if len(top) > 0 {
		recall = float64(matched) / float64(len(top))
	}
	kind := qi % 3
	s.mu.Lock()
	defer s.mu.Unlock()
	f := &s.funnel
	f.n++
	f.kmer += float64(resp.Stats.KmerCandidates)
	f.cand += float64(resp.Stats.Candidates)
	f.scored += float64(resp.Stats.Cells)
	f.recall[kind] += recall
	f.kindN[kind]++
	for _, id := range unverified {
		key := [2]int{qi, id}
		s.unverified[key] = append(s.unverified[key], i)
	}
	return out
}

func (s *searchTarget) warm(*stack) error { return nil }

// postCheck re-scores with swa.Score every returned (query, id) outside
// the oracle's re-scored top-(K+1); the requests that returned one whose
// score is wrong are returned as wrong.
func (s *searchTarget) postCheck() (int64, []int64) {
	var bad []int64
	for key, reqs := range s.unverified {
		q, id := key[0], key[1]
		if swa.Score(s.queries[q], s.c.Seq(id), swa.PaperScoring) != int(s.all[q][id]) {
			bad = append(bad, reqs...)
		}
	}
	s.unverified = map[[2]int][]int64{}
	return s.checked.Load(), bad
}

func (s *searchTarget) close() error {
	if err := os.RemoveAll(s.dir); err != nil {
		return fmt.Errorf("remove corpus: %w", err)
	}
	return nil
}

// replay times each stage of the /search path on every pooled query:
// the live handler, the searcher, the two prefilter stages, scoring of
// the candidates, the top-K ranking, JSON, and the striped kernel on this
// workload's pair shape.
func (s *searchTarget) replay(st *stack, rec *recorder, _ int64) (*ladder, error) {
	be, err := alignsvc.NewBackend(alignsvc.BackendStriped, pipeline.Config{}, 32)
	if err != nil {
		return nil, fmt.Errorf("replay backend: %w", err)
	}
	eng := striped.New(striped.Config{})
	h := st.srv.Handler()
	ctx := context.Background()
	sc := swa.PaperScoring
	p := corpus.Params{TopK: searchTopK}
	const reps, kernelBatch = 3, 1024
	l := newLadder(rec)
	for qi, body := range s.bodies {
		q := s.queries[qi]
		scan := make([]dna.Pair, kernelBatch)
		for k := range scan {
			scan[k] = dna.Pair{X: q, Y: s.c.Seq((qi*kernelBatch + k) % s.c.Len())}
		}
		for r := 0; r < reps; r++ {
			l.begin()
			var code int
			l.time("server.handler", "", 0, func() {
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/search", bytes.NewReader(body)))
				code = w.Code
			})
			if code != http.StatusOK {
				return nil, fmt.Errorf("replay handler: status %d", code)
			}
			var req server.SearchRequest
			l.time("json.decode", "server.handler", 0, func() {
				err = json.NewDecoder(bytes.NewReader(body)).Decode(&req)
			})
			if err != nil {
				return nil, fmt.Errorf("replay decode: %w", err)
			}
			l.time("dna.parse", "server.handler", 0, func() { _, err = dna.Parse(req.Query) })
			if err != nil {
				return nil, fmt.Errorf("replay parse: %w", err)
			}
			var res *corpus.Result
			l.time("corpus.search", "server.handler", 0, func() { res, err = st.searcher.Search(ctx, q, p) })
			if err != nil {
				return nil, fmt.Errorf("replay search: %w", err)
			}
			var cand corpus.Candidates
			l.time("corpus.prefilter", "corpus.search", 0, func() { cand = s.c.Prefilter(q, p) })
			l.time("corpus.kmer", "corpus.prefilter", 0, func() { s.c.Prefilter(q, corpus.Params{TopK: searchTopK, MaxEdits: -1}) })
			pairs := make([]dna.Pair, len(cand.IDs))
			for k, id := range cand.IDs {
				pairs[k] = dna.Pair{X: q, Y: s.c.Seq(int(id))}
			}
			var scores []int
			l.time("corpus.score", "corpus.search", 0, func() {
				if len(pairs) > 0 {
					scores, _, err = be.AlignBatch(ctx, pairs, alignsvc.BatchOpts{})
				}
			})
			if err != nil {
				return nil, fmt.Errorf("replay score: %w", err)
			}
			hits := make([]corpus.Hit, len(scores))
			for k, sc := range scores {
				id := int(cand.IDs[k])
				hits[k] = corpus.Hit{ID: id, Name: s.c.Name(id), Score: sc}
			}
			l.time("corpus.topk", "corpus.search", 0, func() { corpus.RankHits(hits, searchTopK) })
			l.time("json.encode", "server.handler", 0, func() {
				_ = json.NewEncoder(io.Discard).Encode(server.SearchResponse{Corpus: corpusName, Hits: res.Hits, Stats: res.Stats})
			})
			l.time("striped", "corpus.score", int64(kernelBatch)*int64(len(q))*corpusSeqLen, func() {
				_, _, err = eng.ScoreBatch(ctx, scan, sc)
			})
			if err != nil {
				return nil, fmt.Errorf("replay kernel: %w", err)
			}
			l.time("striped.lone_pair", "corpus.score", int64(len(q))*corpusSeqLen, func() {
				_, _, err = eng.ScoreBatch(ctx, scan[:1], sc)
			})
			if err != nil {
				return nil, fmt.Errorf("replay kernel: %w", err)
			}
		}
	}
	l.engine = eng.Stats()
	return l, nil
}
