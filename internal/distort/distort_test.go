package distort

import (
	"context"
	"math"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"byzshield/internal/assign"
)

func molsAnalyzer(t testing.TB, l, r int) *Analyzer {
	t.Helper()
	a, err := assign.MOLS(l, r)
	if err != nil {
		t.Fatal(err)
	}
	return NewAnalyzer(a)
}

func ram2Analyzer(t testing.TB, s, m int) *Analyzer {
	t.Helper()
	a, err := assign.Ramanujan2(s, m)
	if err != nil {
		t.Fatal(err)
	}
	return NewAnalyzer(a)
}

func TestMajorityThreshold(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 2, 4: 3, 5: 3, 7: 4, 9: 5}
	for r, want := range cases {
		if got := MajorityThreshold(r); got != want {
			t.Errorf("MajorityThreshold(%d) = %d, want %d", r, got, want)
		}
	}
}

// TestPaperTable3 reproduces the c_max and ε̂ columns of Table 3:
// MOLS-based assignment with (K, f, l, r) = (15, 25, 5, 3).
func TestPaperTable3(t *testing.T) {
	an := molsAnalyzer(t, 5, 3)
	want := map[int]int{2: 1, 3: 3, 4: 5, 5: 8, 6: 12, 7: 14}
	for q := 2; q <= 7; q++ {
		res := an.MaxDistorted(context.Background(), q)
		if !res.Exact {
			t.Fatalf("q=%d: search not exact", q)
		}
		if res.CMax != want[q] {
			t.Errorf("q=%d: c_max = %d, want %d", q, res.CMax, want[q])
		}
		if got := an.DistortedCount(res.Byzantines); got != res.CMax {
			t.Errorf("q=%d: witness set distorts %d != %d", q, got, res.CMax)
		}
	}
}

// TestPaperTable3Gamma reproduces the γ column of Table 3 from Claim 1
// with µ1 = 1/r.
func TestPaperTable3Gamma(t *testing.T) {
	wantGamma := map[int]float64{2: 2.11, 3: 4.29, 4: 6.96, 5: 10, 6: 13.33, 7: 16.9}
	for q, want := range wantGamma {
		got := Gamma(q, 5, 3, 15, 1.0/3)
		if math.Abs(got-want) > 0.01 {
			t.Errorf("q=%d: γ = %.3f, want %.2f", q, got, want)
		}
	}
}

// TestPaperTable4 reproduces Table 4: Ramanujan Case 2 with
// (m, s) = (5, 5), i.e. (K, f, l, r) = (25, 25, 5, 5).
func TestPaperTable4(t *testing.T) {
	an := ram2Analyzer(t, 5, 5)
	want := map[int]int{3: 1, 4: 1, 5: 2, 6: 4, 7: 5, 8: 7, 9: 9, 10: 12, 11: 14, 12: 17}
	maxQ := 9
	if !testing.Short() {
		maxQ = 12
	}
	for q := 3; q <= maxQ; q++ {
		res := an.MaxDistorted(context.Background(), q)
		if !res.Exact {
			t.Fatalf("q=%d: search not exact", q)
		}
		if res.CMax != want[q] {
			t.Errorf("q=%d: c_max = %d, want %d", q, res.CMax, want[q])
		}
	}
}

// TestPaperTable4Gamma reproduces the γ column of Table 4.
func TestPaperTable4Gamma(t *testing.T) {
	wantGamma := map[int]float64{3: 2.43, 4: 3.9, 5: 5.56, 6: 7.35, 7: 9.25,
		8: 11.23, 9: 13.28, 10: 15.38, 11: 17.54, 12: 19.73}
	for q, want := range wantGamma {
		got := Gamma(q, 5, 5, 25, 1.0/5)
		if math.Abs(got-want) > 0.01 {
			t.Errorf("q=%d: γ = %.3f, want %.2f", q, got, want)
		}
	}
}

// TestPaperTable6 reproduces Table 6: MOLS with
// (K, f, l, r) = (21, 49, 7, 3).
func TestPaperTable6(t *testing.T) {
	an := molsAnalyzer(t, 7, 3)
	want := map[int]int{2: 1, 3: 3, 4: 5, 5: 8, 6: 12, 7: 16, 8: 21, 9: 25, 10: 29}
	maxQ := 7
	if !testing.Short() {
		maxQ = 10
	}
	for q := 2; q <= maxQ; q++ {
		res := an.MaxDistorted(context.Background(), q)
		if !res.Exact {
			t.Fatalf("q=%d: search not exact", q)
		}
		if res.CMax != want[q] {
			t.Errorf("q=%d: c_max = %d, want %d", q, res.CMax, want[q])
		}
	}
}

// TestPaperTable5SmallQ reproduces the tractable prefix of Table 5:
// MOLS with (K, f, l, r) = (35, 49, 7, 5). The paper itself stops at
// q = 13 because the search scales exponentially; we verify the small-q
// entries in unit tests and leave the rest to cmd/byzsim.
func TestPaperTable5SmallQ(t *testing.T) {
	an := molsAnalyzer(t, 7, 5)
	want := map[int]int{3: 1, 4: 1, 5: 2, 6: 4, 7: 5}
	maxQ := 6
	if !testing.Short() {
		maxQ = 7
	}
	for q := 3; q <= maxQ; q++ {
		res := an.MaxDistorted(context.Background(), q)
		if !res.Exact {
			t.Fatalf("q=%d: search not exact", q)
		}
		if res.CMax != want[q] {
			t.Errorf("q=%d: c_max = %d, want %d", q, res.CMax, want[q])
		}
	}
}

// TestClaim2MatchesSearch verifies the Claim 2 closed forms against
// exhaustive search in the q <= r regime for several constructions.
func TestClaim2MatchesSearch(t *testing.T) {
	analyzers := []*Analyzer{
		molsAnalyzer(t, 5, 3),
		molsAnalyzer(t, 7, 3),
		molsAnalyzer(t, 7, 5),
		ram2Analyzer(t, 5, 5),
	}
	for _, an := range analyzers {
		r := an.Assignment().R
		for q := 0; q <= r; q++ {
			want, ok := Claim2Exact(q, r)
			if !ok {
				t.Fatalf("Claim2Exact(%d,%d) not applicable", q, r)
			}
			res := an.MaxDistorted(context.Background(), q)
			if res.CMax != want {
				t.Errorf("%v q=%d: search c_max=%d, Claim 2 says %d", an.Assignment(), q, res.CMax, want)
			}
		}
	}
}

// TestGammaIsUpperBound: γ must dominate the exact c_max everywhere —
// the paper's "γ is a very accurate worst-case approximation" claim.
func TestGammaIsUpperBound(t *testing.T) {
	an := molsAnalyzer(t, 5, 3)
	a := an.Assignment()
	for q := 1; q <= 7; q++ {
		res := an.MaxDistorted(context.Background(), q)
		gamma := Gamma(q, a.L, a.R, a.K, 1/float64(a.R))
		if float64(res.CMax) > gamma+1e-9 {
			t.Errorf("q=%d: c_max %d exceeds γ %.3f", q, res.CMax, gamma)
		}
	}
}

// TestEpsilonClosedForms checks the ε̂ bound formulas against γ/f.
func TestEpsilonClosedForms(t *testing.T) {
	for q := 1; q <= 7; q++ {
		gammaOverF := Gamma(q, 5, 3, 15, 1.0/3) / 25
		closed := EpsilonMOLSBound(q, 5, 3)
		if math.Abs(gammaOverF-closed) > 1e-12 {
			t.Errorf("MOLS q=%d: γ/f=%v, closed form=%v", q, gammaOverF, closed)
		}
	}
	for q := 1; q <= 12; q++ {
		gammaOverF := Gamma(q, 5, 5, 25, 1.0/5) / 25
		closed := EpsilonRam2Bound(q, 5, 5)
		if math.Abs(gammaOverF-closed) > 1e-12 {
			t.Errorf("Ram2 q=%d: γ/f=%v, closed form=%v", q, gammaOverF, closed)
		}
	}
}

// TestEpsilonFRCTableColumns reproduces the ε̂_FRC columns of Tables 3,
// 4 and 6.
func TestEpsilonFRCTableColumns(t *testing.T) {
	table3 := map[int]float64{2: 0.2, 3: 0.2, 4: 0.4, 5: 0.4, 6: 0.6, 7: 0.6}
	for q, want := range table3 {
		if got := EpsilonFRC(q, 3, 15); math.Abs(got-want) > 1e-9 {
			t.Errorf("Table3 FRC q=%d: %v, want %v", q, got, want)
		}
	}
	table4 := map[int]float64{3: 0.2, 4: 0.2, 5: 0.2, 6: 0.4, 7: 0.4, 8: 0.4,
		9: 0.6, 10: 0.6, 11: 0.6, 12: 0.8}
	for q, want := range table4 {
		if got := EpsilonFRC(q, 5, 25); math.Abs(got-want) > 1e-9 {
			t.Errorf("Table4 FRC q=%d: %v, want %v", q, got, want)
		}
	}
	// Table 6: K=21, r=3 → ⌊q/2⌋·3/21.
	table6 := map[int]float64{2: 1.0 / 7, 3: 1.0 / 7, 4: 2.0 / 7, 5: 2.0 / 7, 10: 5.0 / 7}
	for q, want := range table6 {
		if got := EpsilonFRC(q, 3, 21); math.Abs(got-want) > 1e-9 {
			t.Errorf("Table6 FRC q=%d: %v, want %v", q, got, want)
		}
	}
}

func TestEpsilonFRCSaturates(t *testing.T) {
	// With q = K, all groups are lost but the fraction caps at 1.
	if got := EpsilonFRC(15, 3, 15); got != 1 {
		t.Errorf("EpsilonFRC(15,3,15) = %v, want 1", got)
	}
}

func TestEpsilonBaseline(t *testing.T) {
	if EpsilonBaseline(3, 25) != 0.12 {
		t.Errorf("baseline ε̂(3/25) = %v", EpsilonBaseline(3, 25))
	}
	if EpsilonBaseline(5, 25) != 0.2 {
		t.Errorf("baseline ε̂(5/25) = %v", EpsilonBaseline(5, 25))
	}
}

func TestClaim2OutsideRegime(t *testing.T) {
	if _, ok := Claim2Exact(4, 3); ok {
		t.Error("q > r accepted")
	}
	if _, ok := Claim2Exact(-1, 3); ok {
		t.Error("q < 0 accepted")
	}
}

// TestGreedyIsLowerBound: the greedy heuristic never exceeds the exact
// optimum, and matches it on the small instances where the adversary's
// structure is simple.
func TestGreedyIsLowerBound(t *testing.T) {
	an := molsAnalyzer(t, 5, 3)
	for q := 1; q <= 7; q++ {
		greedy := an.MaxDistortedGreedy(q)
		exact := an.MaxDistorted(context.Background(), q)
		if greedy.CMax > exact.CMax {
			t.Errorf("q=%d: greedy %d > exact %d", q, greedy.CMax, exact.CMax)
		}
		if got := an.DistortedCount(greedy.Byzantines); got != greedy.CMax {
			t.Errorf("q=%d: greedy witness inconsistent", q)
		}
	}
}

func TestDistortedFilesConsistent(t *testing.T) {
	an := molsAnalyzer(t, 5, 3)
	res := an.MaxDistorted(context.Background(), 5)
	files := an.DistortedFiles(res.Byzantines)
	if len(files) != res.CMax {
		t.Errorf("DistortedFiles returned %d files, c_max = %d", len(files), res.CMax)
	}
	for _, v := range files {
		byzCopies := 0
		byz := make(map[int]bool)
		for _, u := range res.Byzantines {
			byz[u] = true
		}
		for _, u := range an.Assignment().FileWorkers(v) {
			if byz[u] {
				byzCopies++
			}
		}
		if byzCopies < MajorityThreshold(an.Assignment().R) {
			t.Errorf("file %d reported distorted with only %d Byzantine copies", v, byzCopies)
		}
	}
}

// TestMaxDistortedCanonical: when branch-and-bound improves on the
// greedy seed, several sets can reach c_max, and which one the parallel
// search keeps depends on scheduling. MaxDistorted names the
// lexicographically first maximizer — the one an exhaustive scan in
// lexicographic order finds first — on every call at every GOMAXPROCS.
// Ramanujan2(5,5) at q = 5 is such a case (greedy picks [0 1 2 3 4]).
func TestMaxDistortedCanonical(t *testing.T) {
	const q = 5
	an := ram2Analyzer(t, 5, 5)
	want := []int{0, 1, 5, 6, 18}
	if greedy := an.MaxDistortedGreedy(q); slices.Equal(greedy.Byzantines, want) {
		t.Fatalf("greedy already picks %v: the case no longer exercises the canonical pass", want)
	}
	if first, cmax := firstMaximizerByScan(an, q); !slices.Equal(first, want) {
		t.Fatalf("exhaustive scan: first maximizer %v (c_max %d), want %v", first, cmax, want)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for i := 0; i < 10; i++ {
			res := an.MaxDistorted(context.Background(), q)
			if !res.Exact || !slices.Equal(res.Byzantines, want) {
				t.Fatalf("GOMAXPROCS %d call %d: %v (exact %v), want %v", procs, i, res.Byzantines, res.Exact, want)
			}
		}
	}
}

// firstMaximizerByScan enumerates every q-subset of the workers in
// lexicographic order and returns the first that distorts the most
// files, with that count.
func firstMaximizerByScan(an *Analyzer, q int) ([]int, int) {
	k := an.Assignment().K
	set := make([]int, q)
	for i := range set {
		set[i] = i
	}
	var best []int
	cmax := -1
	for {
		if c := an.DistortedCount(set); c > cmax {
			cmax, best = c, slices.Clone(set)
		}
		i := q - 1
		for i >= 0 && set[i] == k-q+i {
			i--
		}
		if i < 0 {
			return best, cmax
		}
		set[i]++
		for j := i + 1; j < q; j++ {
			set[j] = set[j-1] + 1
		}
	}
}

func TestCancelledSearchReturnsIncumbent(t *testing.T) {
	an := molsAnalyzer(t, 7, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancel up front: search must return greedy incumbent
	res := an.MaxDistorted(ctx, 6)
	if res.Exact {
		t.Error("cancelled search claimed exactness")
	}
	if res.CMax < 1 {
		t.Error("cancelled search lost the greedy incumbent")
	}
}

func TestMaxDistortedZeroQ(t *testing.T) {
	an := molsAnalyzer(t, 5, 3)
	res := an.MaxDistorted(context.Background(), 0)
	if res.CMax != 0 || !res.Exact {
		t.Errorf("q=0: %+v", res)
	}
}

// Property: distortion is monotone in q — adding Byzantines never
// reduces the number of distortable files.
func TestQuickMonotoneInQ(t *testing.T) {
	an := molsAnalyzer(t, 5, 3)
	results := make([]int, 8)
	for q := 0; q <= 7; q++ {
		results[q] = an.MaxDistorted(context.Background(), q).CMax
	}
	for q := 1; q <= 7; q++ {
		if results[q] < results[q-1] {
			t.Errorf("c_max(%d)=%d < c_max(%d)=%d", q, results[q], q-1, results[q-1])
		}
	}
}

// Property: DistortedCount of a random subset never exceeds c_max(|S|).
func TestQuickSubsetNeverBeatsOptimum(t *testing.T) {
	an := molsAnalyzer(t, 5, 3)
	exact := make(map[int]int)
	for q := 0; q <= 6; q++ {
		exact[q] = an.MaxDistorted(context.Background(), q).CMax
	}
	prop := func(mask uint16) bool {
		var byz []int
		for u := 0; u < 15 && len(byz) < 6; u++ {
			if mask&(1<<u) != 0 {
				byz = append(byz, u)
			}
		}
		return an.DistortedCount(byz) <= exact[len(byz)]
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func BenchmarkExhaustiveTable3Q5(b *testing.B) {
	an := molsAnalyzer(b, 5, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = an.MaxDistorted(context.Background(), 5)
	}
}

func BenchmarkGreedyQ5(b *testing.B) {
	an := molsAnalyzer(b, 5, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = an.MaxDistortedGreedy(5)
	}
}
