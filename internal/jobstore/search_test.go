package jobstore

import (
	"errors"
	"reflect"
	"testing"
)

func testSpec() SearchSpec {
	return SearchSpec{
		Corpus:      "ref",
		Fingerprint: "deadbeef",
		Query:       "ACGTACGT",
		TopK:        3,
		MinKmerHits: 4,
		MaxEdits:    2,
		SeqCount:    10,
	}
}

func openTestStore(t *testing.T, dir string) *Store {
	t.Helper()
	s, _, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestSubmitSearchValidation(t *testing.T) {
	s := openTestStore(t, t.TempDir())
	bad := []SearchSpec{
		{},
		{Corpus: "ref", Query: "ACGT", SeqCount: 10}, // no top-k
		{Corpus: "ref", Query: "ACGT", TopK: 3},      // no seq count
		{Corpus: "ref", TopK: 3, SeqCount: 10},       // no query
		{Query: "ACGT", TopK: 3, SeqCount: 10},       // no corpus
	}
	for i, sp := range bad {
		if _, err := s.SubmitSearch("job-x", "", "", 4, sp); err == nil {
			t.Errorf("spec %d: want error", i)
		}
	}
	if _, err := s.SubmitSearch("job-x", "", "", 0, testSpec()); err == nil {
		t.Error("zero chunk size: want error")
	}
	if _, err := s.SubmitSearch("", "", "", 4, testSpec()); err == nil {
		t.Error("empty id: want error")
	}
}

func TestSearchJobLifecycleAndReplay(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir)
	spec := testSpec()
	j, err := s.SubmitSearch("job-s", "key-s", "acme", 4, spec)
	if err != nil {
		t.Fatal(err)
	}
	if j.Kind != KindSearch || j.NumChunks() != 3 || j.Search.TopK != 3 {
		t.Fatalf("submitted job: kind=%q chunks=%d spec=%+v", j.Kind, j.NumChunks(), j.Search)
	}
	if lo, hi := j.ChunkBounds(2); lo != 8 || hi != 10 {
		t.Fatalf("chunk 2 bounds [%d,%d), want [8,10)", lo, hi)
	}

	// Kind confusion is typed.
	if err := s.AddChunk("job-s", 0, []int{1, 2, 3, 4}); !errors.Is(err, ErrWrongKind) {
		t.Errorf("AddChunk on search job: %v, want ErrWrongKind", err)
	}
	if _, err := j.Scores(); !errors.Is(err, ErrWrongKind) {
		t.Errorf("Scores on search job: %v, want ErrWrongKind", err)
	}

	if err := s.AddSearchChunk("job-s", 0, nil); !errors.Is(err, ErrBadTransition) {
		t.Errorf("checkpoint while queued: %v, want ErrBadTransition", err)
	}
	if _, err := s.SetState("job-s", StateRunning, ""); err != nil {
		t.Fatal(err)
	}
	chunks := map[int][]HitData{
		0: {{ID: 1, Name: "a", Score: 9}, {ID: 3, Name: "b", Score: 9}},
		1: {}, // empty checkpoint: no candidates in range
		2: {{ID: 8, Name: "c", Score: 12}},
	}
	for idx, hits := range chunks {
		if err := s.AddSearchChunk("job-s", idx, hits); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AddSearchChunk("job-s", 1, nil); !errors.Is(err, ErrDuplicateChunk) {
		t.Errorf("duplicate chunk: %v, want ErrDuplicateChunk", err)
	}
	if err := s.AddSearchChunk("job-s", 3, nil); err == nil {
		t.Error("out-of-range chunk: want error")
	}
	if err := s.AddSearchChunk("job-s", 0, make([]HitData, 4)); !errors.Is(err, ErrDuplicateChunk) {
		// (dup wins over the over-top-k check; both are rejections)
		t.Errorf("oversized dup chunk: %v", err)
	}
	if _, err := s.SetState("job-s", StateDone, ""); err != nil {
		t.Fatal(err)
	}

	want := []HitData{{ID: 8, Name: "c", Score: 12}, {ID: 1, Name: "a", Score: 9}, {ID: 3, Name: "b", Score: 9}}
	got, _ := s.Get("job-s")
	if got.ChunksDone() != 3 {
		t.Fatalf("ChunksDone = %d, want 3", got.ChunksDone())
	}
	hits, err := got.SearchHits()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(hits, want) {
		t.Fatalf("merged hits %v, want %v", hits, want)
	}

	// Replay: reopen and check everything — including the empty chunk 1
	// checkpoint — survived.
	s.Close()
	s2 := openTestStore(t, dir)
	re, ok := s2.Get("job-s")
	if !ok {
		t.Fatal("job lost on replay")
	}
	if re.Kind != KindSearch || !reflect.DeepEqual(re.Search, &spec) || re.Tenant != "acme" {
		t.Fatalf("replayed job: kind=%q tenant=%q spec=%+v", re.Kind, re.Tenant, re.Search)
	}
	if h, ok := re.SearchChunks[1]; !ok || len(h) != 0 {
		t.Fatalf("empty chunk checkpoint lost on replay: %v ok=%v", h, ok)
	}
	rehits, err := re.SearchHits()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rehits, want) {
		t.Fatalf("replayed hits %v, want %v", rehits, want)
	}
}

func TestSearchHitsMissingChunk(t *testing.T) {
	s := openTestStore(t, t.TempDir())
	if _, err := s.SubmitSearch("job-m", "", "", 4, testSpec()); err != nil {
		t.Fatal(err)
	}
	j, _ := s.Get("job-m")
	if _, err := j.SearchHits(); err == nil {
		t.Error("SearchHits with no checkpoints: want error")
	}
	// And the wrong-kind direction: SearchHits on an alignment job.
	if _, err := s.SubmitOwned("job-a", "", "", 2, []PairData{{X: "AC", Y: "GT"}}); err != nil {
		t.Fatal(err)
	}
	a, _ := s.Get("job-a")
	if _, err := a.SearchHits(); !errors.Is(err, ErrWrongKind) {
		t.Errorf("SearchHits on alignment job: %v, want ErrWrongKind", err)
	}
}

func TestSearchRecordValidate(t *testing.T) {
	spec := testSpec()
	cases := []struct {
		name string
		rec  Record
		ok   bool
	}{
		{"search-submit", Record{Type: RecSubmit, Submit: &SubmitRecord{
			ID: "j", Kind: KindSearch, ChunkSize: 4, Search: &spec}}, true},
		{"search-submit-with-pairs", Record{Type: RecSubmit, Submit: &SubmitRecord{
			ID: "j", Kind: KindSearch, ChunkSize: 4, Search: &spec,
			Pairs: []PairData{{X: "A", Y: "C"}}}}, false},
		{"align-submit-with-spec", Record{Type: RecSubmit, Submit: &SubmitRecord{
			ID: "j", ChunkSize: 4, Pairs: []PairData{{X: "A", Y: "C"}}, Search: &spec}}, false},
		{"unknown-kind", Record{Type: RecSubmit, Submit: &SubmitRecord{
			ID: "j", Kind: "mystery", ChunkSize: 4, Search: &spec}}, false},
		{"search-submit-no-spec", Record{Type: RecSubmit, Submit: &SubmitRecord{
			ID: "j", Kind: KindSearch, ChunkSize: 4}}, false},
		{"search-chunk-empty-hits", Record{Type: RecChunk, Chunk: &ChunkRecord{
			ID: "j", Index: 0, Search: true}}, true},
		{"search-chunk-with-scores", Record{Type: RecChunk, Chunk: &ChunkRecord{
			ID: "j", Index: 0, Search: true, Scores: []int{1}}}, false},
		{"align-chunk-with-hits", Record{Type: RecChunk, Chunk: &ChunkRecord{
			ID: "j", Index: 0, Scores: []int{1}, Hits: []HitData{{ID: 1}}}}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.rec.Seq, tc.rec.TimeMS = 1, 1
			err := tc.rec.validate()
			if (err == nil) != tc.ok {
				t.Errorf("validate() = %v, want ok=%v", err, tc.ok)
			}
			if err != nil {
				return
			}
			// Valid records must round-trip the encoder.
			line, err := encodeRecord(tc.rec)
			if err != nil {
				t.Fatal(err)
			}
			got, err := decodeRecord(line[:len(line)-1])
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.rec) {
				t.Errorf("round-trip %+v != %+v", got, tc.rec)
			}
		})
	}
}
