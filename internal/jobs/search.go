package jobs

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/corpus"
	"repro/internal/dna"
	"repro/internal/jobstore"
)

// Search-specific manager errors.
var (
	// ErrWrongKind is returned when a kind-specific accessor is used on a
	// job of the other kind (it aliases the store's sentinel so errors.Is
	// matches wherever the mismatch surfaced).
	ErrWrongKind = jobstore.ErrWrongKind
	// ErrNoCorpus rejects a search submission naming an unmounted corpus.
	ErrNoCorpus = errors.New("jobs: unknown corpus")
)

// SubmitSearchFor persists a new corpus-search job owned by a tenant and
// queues it. The search parameters are resolved (defaults filled) before
// they hit the WAL, and the corpus content fingerprint is pinned
// alongside them, so a resumed job re-derives exactly the submit-time
// candidate set — or fails typed if the corpus was rebuilt underneath
// it. Idempotency keys and tenant quotas behave exactly as in SubmitFor.
func (m *Manager) SubmitSearchFor(corpusName string, query dna.Seq, p corpus.Params, key, tenantID string) (snap Snapshot, created bool, err error) {
	if len(query) == 0 {
		return Snapshot{}, false, errors.New("jobs: empty query")
	}
	h, ok := m.corpora().Get(corpusName)
	if !ok {
		return Snapshot{}, false, fmt.Errorf("%w: %q", ErrNoCorpus, corpusName)
	}
	p = p.Resolved(len(query))
	spec := jobstore.SearchSpec{
		Corpus:      corpusName,
		Fingerprint: h.Corpus.Fingerprint(),
		Query:       query.String(),
		TopK:        p.TopK,
		MinKmerHits: p.MinKmerHits,
		MaxEdits:    p.MaxEdits,
		SeqCount:    h.Corpus.Len(),
	}
	return m.submit(key, tenantID, func(id, sk, tid string) (*jobstore.Job, error) {
		return m.store.SubmitSearch(id, sk, tid, m.cfg.SearchChunkSize, spec)
	})
}

// corpora returns the configured corpus registry, or an empty one so
// lookup sites need no nil checks.
func (m *Manager) corpora() *corpus.Registry {
	if m.cfg.Corpora == nil {
		return emptyCorpora
	}
	return m.cfg.Corpora
}

var emptyCorpora = corpus.NewRegistry()

// SearchResultFor returns the merged ranked hits of one of the tenant's
// done search jobs (see finished for the other states). A done alignment
// job fails with ErrWrongKind.
func (m *Manager) SearchResultFor(id, tenantID string) ([]corpus.Hit, Snapshot, error) {
	j, snap, err := m.finished(id, tenantID)
	if j == nil {
		return nil, snap, err
	}
	data, err := j.SearchHits()
	if err != nil {
		return nil, snap, err
	}
	hits := make([]corpus.Hit, len(data))
	for i, h := range data {
		hits[i] = corpus.Hit{ID: h.ID, Name: h.Name, Score: h.Score}
	}
	return hits, snap, nil
}

// searchStep builds a search job's chunk step over the corpus sequence-ID
// space: each chunk scores its share of the candidates and checkpoints
// its top-K hits. The prefilter runs once, here — it is deterministic in
// (corpus, query, params), all of which the WAL pins — so a resumed job
// sees the identical candidate set and skips exactly its checkpointed
// chunks.
func (m *Manager) searchStep(j *jobstore.Job) (chunkStep, error) {
	spec := j.Search
	h, ok := m.corpora().Get(spec.Corpus)
	if !ok {
		return chunkStep{}, fmt.Errorf("corpus %q not mounted", spec.Corpus)
	}
	if fp := h.Corpus.Fingerprint(); fp != spec.Fingerprint {
		return chunkStep{}, fmt.Errorf(
			"corpus %q fingerprint %s does not match submit-time %s (corpus rebuilt?)",
			spec.Corpus, fp, spec.Fingerprint)
	}
	if h.Corpus.Len() != spec.SeqCount {
		return chunkStep{}, fmt.Errorf("corpus %q has %d sequences, submit-time %d",
			spec.Corpus, h.Corpus.Len(), spec.SeqCount)
	}
	q, err := dna.Parse(spec.Query)
	if err != nil {
		return chunkStep{}, fmt.Errorf("query: %w", err)
	}
	p := corpus.Params{TopK: spec.TopK, MinKmerHits: spec.MinKmerHits, MaxEdits: spec.MaxEdits}
	cand := h.Corpus.Prefilter(q, p)
	return chunkStep{span: "jobs.search.chunk", run: func(ctx context.Context, c int) (func() error, error) {
		lo, hi := j.ChunkBounds(c)
		hits, _, err := h.Searcher.ScoreRange(ctx, q, cand.IDs, lo, hi, spec.TopK)
		if err != nil {
			return nil, err
		}
		data := make([]jobstore.HitData, len(hits))
		for i, ht := range hits {
			data[i] = jobstore.HitData{ID: ht.ID, Name: ht.Name, Score: ht.Score}
		}
		return func() error { return m.store.AddSearchChunk(j.ID, c, data) }, nil
	}}, nil
}
