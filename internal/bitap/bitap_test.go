package bitap

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/dna"
	"repro/internal/match"
)

func TestShiftAndMatchesStraightforward(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 0))
		m := 1 + rng.IntN(32)
		n := m + rng.IntN(200)
		x := dna.RandSeq(rng, m)
		y := dna.RandSeq(rng, n)
		if rng.Uint32()&1 == 0 {
			copy(y[rng.IntN(n-m+1):], x) // plant an occurrence
		}
		want, err := match.Occurrences(x, y)
		if err != nil {
			return false
		}
		got, err := ShiftAnd(x, y)
		if err != nil {
			return false
		}
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestShiftOrEqualsShiftAnd(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 1))
		m := 1 + rng.IntN(64)
		n := m + rng.IntN(150)
		x := dna.RandSeq(rng, m)
		y := dna.RandSeq(rng, n)
		copy(y[rng.IntN(n-m+1):], x)
		a, err1 := ShiftAnd(x, y)
		o, err2 := ShiftOr(x, y)
		if err1 != nil || err2 != nil || len(a) != len(o) {
			return false
		}
		for i := range a {
			if a[i] != o[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestBitapPatternLimits(t *testing.T) {
	y := dna.RandSeq(rand.New(rand.NewPCG(1, 1)), 100)
	if _, err := ShiftAnd(nil, y); err == nil {
		t.Error("empty pattern should fail")
	}
	if _, err := ShiftAnd(dna.RandSeq(rand.New(rand.NewPCG(2, 2)), 65), y); err == nil {
		t.Error("pattern > 64 should fail")
	}
	if _, err := ShiftOr(nil, y); err == nil {
		t.Error("ShiftOr empty pattern should fail")
	}
	if _, err := MyersDistances(nil, y); err == nil {
		t.Error("Myers empty pattern should fail")
	}
	if _, err := MyersSearch(dna.MustParse("ACG"), y, -1); err == nil {
		t.Error("negative k should fail")
	}
	// Full 64-base pattern is legal.
	x := dna.RandSeq(rand.New(rand.NewPCG(3, 3)), 64)
	if _, err := ShiftAnd(x, y); err != nil {
		t.Errorf("64-base pattern failed: %v", err)
	}
}

func TestMyersMatchesReferenceDP(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 2))
		m := 1 + rng.IntN(60)
		n := 1 + rng.IntN(150)
		x := dna.RandSeq(rng, m)
		y := dna.RandSeq(rng, n)
		got, err := MyersDistances(x, y)
		if err != nil {
			return false
		}
		want := EditDistancesRef(x, y)
		for j := range want {
			if got[j] != want[j] {
				t.Logf("j=%d: myers %d, dp %d (m=%d n=%d)", j, got[j], want[j], m, n)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMyersSearchFindsApproximateHit(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	x := dna.RandSeq(rng, 24)
	y := dna.RandSeq(rng, 300)
	// Plant a copy with 2 substitutions ending at position 99.
	planted := x.Clone()
	planted[5] ^= 1
	planted[17] ^= 2
	copy(y[100-len(planted):100], planted)
	hits, err := MyersSearch(x, y, 2)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, h := range hits {
		if h.End == 99 && h.Dist <= 2 {
			found = true
		}
	}
	if !found {
		t.Errorf("planted 2-substitution hit not found; hits=%v", hits)
	}
	// With k=1 the planted hit must disappear (its distance is exactly 2).
	hits1, err := MyersSearch(x, y, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range hits1 {
		if h.End == 99 {
			t.Errorf("hit at 99 should need 2 edits, found at k=1 with %d", h.Dist)
		}
	}
}

func TestMyersExactMatchDistanceZero(t *testing.T) {
	x := dna.MustParse("ACGTACGT")
	y := append(dna.MustParse("TTT"), append(x.Clone(), dna.MustParse("GGG")...)...)
	d, err := MyersDistances(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if d[3+8-1] != 0 {
		t.Errorf("exact occurrence has distance %d, want 0", d[10])
	}
}

func BenchmarkShiftAnd(b *testing.B) {
	rng := rand.New(rand.NewPCG(5, 5))
	x := dna.RandSeq(rng, 32)
	y := dna.RandSeq(rng, 4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ShiftAnd(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMyers(b *testing.B) {
	rng := rand.New(rand.NewPCG(6, 6))
	x := dna.RandSeq(rng, 64)
	y := dna.RandSeq(rng, 4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := MyersDistances(x, y); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)*64*4096/b.Elapsed().Seconds()/1e9, "Gcells/s")
}

func TestMyersMinDistanceMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	for trial := 0; trial < 200; trial++ {
		x := dna.RandSeq(rng, 1+rng.IntN(64))
		y := dna.RandSeq(rng, rng.IntN(200))
		got, err := MyersMinDistance(x, y)
		if err != nil {
			t.Fatal(err)
		}
		want := len(x)
		for _, d := range EditDistancesRef(x, y) {
			if d < want {
				want = d
			}
		}
		if got != want {
			t.Fatalf("trial %d: MyersMinDistance = %d, want %d (m=%d n=%d)",
				trial, got, want, len(x), len(y))
		}
	}
}

func TestMyersMinDistanceEdges(t *testing.T) {
	if _, err := MyersMinDistance(nil, dna.MustParse("ACGT")); err == nil {
		t.Error("empty pattern: want error")
	}
	if _, err := MyersMinDistance(dna.RandSeq(rand.New(rand.NewPCG(8, 8)), 65), nil); err == nil {
		t.Error("pattern over 64: want error")
	}
	d, err := MyersMinDistance(dna.MustParse("ACGT"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if d != 4 {
		t.Errorf("empty text: distance %d, want 4", d)
	}
}

// TestPatternMinDistanceMatchesReference checks the compiled, branch-free
// loop against the quadratic DP, reusing one Pattern across many texts.
// Pattern lengths include 1 (shift 0) and 64 (the top bit of the word);
// text lengths span 0..200.
func TestPatternMinDistanceMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	for trial := 0; trial < 50; trial++ {
		m := []int{1, 2, 17, 63, 64}[trial%5]
		x := dna.RandSeq(rng, m)
		p, err := Compile(x)
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n <= 200; n += 1 + rng.IntN(8) {
			y := dna.RandSeq(rng, n)
			if n > m && rng.IntN(2) == 0 {
				copy(y[rng.IntN(n-m+1):], x) // an exact hit: distance 0
			}
			want := m
			for _, d := range EditDistancesRef(x, y) {
				want = min(want, d)
			}
			if got := p.MinDistance(y); got != want {
				t.Fatalf("m=%d n=%d: MinDistance = %d, want %d", m, n, got, want)
			}
		}
	}
	if _, err := Compile(nil); err == nil {
		t.Error("empty pattern: want error")
	}
	if _, err := Compile(dna.RandSeq(rng, 65)); err == nil {
		t.Error("pattern over 64: want error")
	}
}

// BenchmarkPatternMinDistance is the prefilter's stage-two shape: one
// 64-base query compiled once, then matched against 2,048 128-base texts.
func BenchmarkPatternMinDistance(b *testing.B) {
	rng := rand.New(rand.NewPCG(10, 10))
	p, err := Compile(dna.RandSeq(rng, 64))
	if err != nil {
		b.Fatal(err)
	}
	texts := make([]dna.Seq, 2048)
	for i := range texts {
		texts[i] = dna.RandSeq(rng, 128)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, y := range texts {
			sinkDist += p.MinDistance(y)
		}
	}
}

var sinkDist int
