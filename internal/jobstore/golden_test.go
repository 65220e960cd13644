package jobstore

import (
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// updateGolden rewrites testdata/golden/ from the current code:
//
//	go test ./internal/jobstore -run TestGoldenWALReplay -update-golden
//
// Do that only for a deliberate format change: the committed segment is
// the proof that logs written by earlier builds still replay.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden from the current code")

const goldenDir = "testdata/golden"

// goldenEpochMS is the first record's timestamp; each later record is one
// second on.
const goldenEpochMS = 1_700_000_000_000

// writeGoldenWAL appends the golden record sequence to a fresh log in dir:
// for both job kinds a submit, state changes and chunk checkpoints (an
// alignment chunk with scores, search chunks with empty and non-empty
// hits), plus one dropped job of each kind.
func writeGoldenWAL(t *testing.T, dir string) {
	t.Helper()
	tick := int64(goldenEpochMS)
	s, _, err := Open(Options{Dir: dir, Sync: SyncNever, now: func() time.Time {
		at := time.UnixMilli(tick)
		tick += 1000
		return at
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	state := func(id string, to State, msg string) {
		t.Helper()
		_, err := s.SetState(id, to, msg)
		must(err)
	}
	spec := SearchSpec{Corpus: "ref", Fingerprint: "0123abcd", Query: "ACGTACGTAC",
		TopK: 2, MinKmerHits: 3, MaxEdits: 4, SeqCount: 10}

	// Alignment job of a named tenant, run to done.
	_, err = s.SubmitOwned("job-align", "acme\x00k-align", "acme", 2,
		[]PairData{{X: "AC", Y: "ACGT"}, {X: "GT", Y: "GGTT"}, {X: "TT", Y: "TTAA"}})
	must(err)
	state("job-align", StateRunning, "")
	must(s.AddChunk("job-align", 0, []int{4, 3}))
	must(s.AddChunk("job-align", 1, []int{4}))
	state("job-align", StateDone, "")

	// Anonymous search job: one empty-hits chunk, one with hits, then a
	// drain requeue.
	_, err = s.SubmitSearch("job-search", "k-search", "", 5, spec)
	must(err)
	state("job-search", StateRunning, "")
	must(s.AddSearchChunk("job-search", 0, nil))
	must(s.AddSearchChunk("job-search", 1, []HitData{{ID: 7, Name: "ref-7", Score: 9}}))
	state("job-search", StateQueued, "")

	// Failed alignment job, kept.
	_, err = s.SubmitOwned("job-failed", "", "", 1, []PairData{{X: "A", Y: "AC"}})
	must(err)
	state("job-failed", StateRunning, "")
	state("job-failed", StateFailed, "chunk 0/1: deadline exceeded after 1ms")

	// One job of each kind cancelled and dropped: neither survives replay,
	// and the dropped search job's key is free again.
	_, err = s.SubmitOwned("job-drop-align", "k-drop", "", 1, []PairData{{X: "G", Y: "GC"}})
	must(err)
	state("job-drop-align", StateCancelled, "")
	_, err = s.Drop("job-drop-align")
	must(err)
	_, err = s.SubmitSearch("job-drop-search", "k-drop-search", "acme", 4, spec)
	must(err)
	state("job-drop-search", StateRunning, "")
	must(s.AddSearchChunk("job-drop-search", 0, nil))
	state("job-drop-search", StateCancelled, "")
	_, err = s.Drop("job-drop-search")
	must(err)
}

// TestGoldenWALReplay pins the WAL format: a segment written by an
// earlier build must rebuild exactly these jobs.
func TestGoldenWALReplay(t *testing.T) {
	if *updateGolden {
		if err := os.RemoveAll(goldenDir); err != nil {
			t.Fatal(err)
		}
		writeGoldenWAL(t, goldenDir)
	}
	// Replay a copy: Open may truncate and appends, the golden must not move.
	dir := t.TempDir()
	ents, err := os.ReadDir(goldenDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(goldenDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, rep, err := Open(Options{Dir: dir, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if rep.Records != 21 || rep.Jobs != 3 || rep.Truncated {
		t.Fatalf("replay report: %+v", rep)
	}

	at := func(n int64) time.Time { return time.UnixMilli(goldenEpochMS + n*1000) }
	want := []*Job{
		{
			ID: "job-align", Key: "acme\x00k-align", Tenant: "acme", State: StateDone, ChunkSize: 2,
			Pairs:        []PairData{{X: "AC", Y: "ACGT"}, {X: "GT", Y: "GGTT"}, {X: "TT", Y: "TTAA"}},
			Chunks:       map[int][]int{0: {4, 3}, 1: {4}},
			SearchChunks: map[int][]HitData{},
			SubmitSeq:    1, Created: at(0), Updated: at(4),
		},
		{
			ID: "job-search", Key: "k-search", Kind: KindSearch, State: StateQueued, ChunkSize: 5,
			Search: &SearchSpec{Corpus: "ref", Fingerprint: "0123abcd", Query: "ACGTACGTAC",
				TopK: 2, MinKmerHits: 3, MaxEdits: 4, SeqCount: 10},
			Chunks:       map[int][]int{},
			SearchChunks: map[int][]HitData{0: {}, 1: {{ID: 7, Name: "ref-7", Score: 9}}},
			SubmitSeq:    6, Created: at(5), Updated: at(9),
		},
		{
			ID: "job-failed", State: StateFailed, Error: "chunk 0/1: deadline exceeded after 1ms", ChunkSize: 1,
			Pairs:        []PairData{{X: "A", Y: "AC"}},
			Chunks:       map[int][]int{},
			SearchChunks: map[int][]HitData{},
			SubmitSeq:    11, Created: at(10), Updated: at(12),
		},
	}
	got := s.List()
	if !reflect.DeepEqual(got, want) {
		for i := range got {
			t.Logf("got[%d] = %+v search=%+v", i, *got[i], got[i].Search)
		}
		t.Fatal("replayed jobs differ from the golden expectation")
	}
	for _, key := range []string{"k-drop", "k-drop-search"} {
		if j, ok := s.ByKey(key); ok {
			t.Fatalf("dropped job's key %q still maps to %s", key, j.ID)
		}
	}
	if j, ok := s.ByKey("acme\x00k-align"); !ok || j.ID != "job-align" {
		t.Fatalf("ByKey(acme/k-align) = %v, %v", j, ok)
	}
}
