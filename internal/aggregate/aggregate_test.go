package aggregate

import (
	"math"
	"testing"
	"testing/quick"

	"byzshield/internal/linalg"
)

func vecsAlmostEq(t *testing.T, got, want []float64, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("dim %d, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > tol {
			t.Fatalf("got %v, want %v (coord %d)", got, want, i)
		}
	}
}

func TestMean(t *testing.T) {
	out, err := Mean{}.Aggregate([][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	vecsAlmostEq(t, out, []float64{2, 3}, 1e-12)
	if _, err := (Mean{}).Aggregate(nil); err == nil {
		t.Error("empty input accepted")
	}
}

func TestMedianIgnoresOutlier(t *testing.T) {
	grads := [][]float64{
		{1, 1}, {1.1, 0.9}, {0.9, 1.1}, {1e9, -1e9}, {1, 1},
	}
	out, err := Median{}.Aggregate(grads)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out[0]-1) > 0.2 || math.Abs(out[1]-1) > 0.2 {
		t.Errorf("median swayed by outlier: %v", out)
	}
}

func TestTrimmedMean(t *testing.T) {
	grads := [][]float64{{0}, {1}, {2}, {3}, {100}}
	out, err := TrimmedMean{Trim: 1}.Aggregate(grads)
	if err != nil {
		t.Fatal(err)
	}
	vecsAlmostEq(t, out, []float64{2}, 1e-12)
	if _, err := (TrimmedMean{Trim: 3}).Aggregate(grads); err == nil {
		t.Error("over-trim accepted")
	}
	if err := (TrimmedMean{Trim: 1}).Feasible(5, 1); err != nil {
		t.Errorf("Feasible(5,1) with trim 1: %v", err)
	}
	if err := (TrimmedMean{Trim: 1}).Feasible(5, 2); err == nil {
		t.Error("trim < c accepted")
	}
}

func TestMedianOfMeans(t *testing.T) {
	// 6 inputs, 3 groups of 2: group means 0.5, 2.5, 100 → median 2.5.
	grads := [][]float64{{0}, {1}, {2}, {3}, {100}, {100}}
	out, err := MedianOfMeans{Groups: 3}.Aggregate(grads)
	if err != nil {
		t.Fatal(err)
	}
	vecsAlmostEq(t, out, []float64{2.5}, 1e-12)
	if _, err := (MedianOfMeans{Groups: 0}).Aggregate(grads); err == nil {
		t.Error("groups=0 accepted")
	}
	if _, err := (MedianOfMeans{Groups: 7}).Aggregate(grads); err == nil {
		t.Error("groups > n accepted")
	}
}

func TestMedianOfMeansUnevenGroups(t *testing.T) {
	// 5 inputs into 2 groups: sizes 3 and 2, all values equal → value.
	grads := [][]float64{{4}, {4}, {4}, {4}, {4}}
	out, err := MedianOfMeans{Groups: 2}.Aggregate(grads)
	if err != nil {
		t.Fatal(err)
	}
	vecsAlmostEq(t, out, []float64{4}, 1e-12)
}

func TestSignSGD(t *testing.T) {
	grads := [][]float64{
		{1, -2, 0},
		{3, -1, 0},
		{-1, -5, 0},
	}
	out, err := SignSGD{}.Aggregate(grads)
	if err != nil {
		t.Fatal(err)
	}
	vecsAlmostEq(t, out, []float64{1, -1, 0}, 0)
	// tie: one positive, one negative
	out, err = SignSGD{}.Aggregate([][]float64{{1}, {-1}})
	if err != nil {
		t.Fatal(err)
	}
	vecsAlmostEq(t, out, []float64{0}, 0)
}

func TestGeometricMedianRobust(t *testing.T) {
	grads := [][]float64{
		{1, 1}, {1.2, 0.8}, {0.8, 1.2}, {1000, 1000},
	}
	out, err := GeometricMedian{}.Aggregate(grads)
	if err != nil {
		t.Fatal(err)
	}
	if linalg.Dist2(out, []float64{1, 1}) > 1 {
		t.Errorf("geometric median pulled to outlier: %v", out)
	}
}

func TestGeometricMedianCoincidentPoint(t *testing.T) {
	// Mean coincides with a data point: must not NaN.
	grads := [][]float64{{1, 1}, {1, 1}, {1, 1}}
	out, err := GeometricMedian{}.Aggregate(grads)
	if err != nil {
		t.Fatal(err)
	}
	vecsAlmostEq(t, out, []float64{1, 1}, 1e-9)
}

func TestKrumPicksHonestVector(t *testing.T) {
	honest := [][]float64{{1, 1}, {1.1, 1}, {0.9, 1.05}, {1, 0.95}, {1.05, 1.1}, {0.98, 1.02}}
	byz := [][]float64{{50, -50}}
	grads := append(append([][]float64{}, honest...), byz...)
	k := Krum{C: 1}
	if err := k.Feasible(len(grads), 1); err != nil {
		t.Fatal(err)
	}
	out, err := k.Aggregate(grads)
	if err != nil {
		t.Fatal(err)
	}
	// Output must be one of the honest inputs.
	found := false
	for _, h := range honest {
		if linalg.Dist2(out, h) < 1e-12 {
			found = true
		}
	}
	if !found {
		t.Errorf("krum selected non-honest vector %v", out)
	}
}

func TestKrumOutputIsAnInput(t *testing.T) {
	grads := [][]float64{{1}, {2}, {3}, {4}, {5}}
	out, err := Krum{C: 1}.Aggregate(grads)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, g := range grads {
		if g[0] == out[0] {
			found = true
		}
	}
	if !found {
		t.Error("krum output is not one of the inputs")
	}
}

func TestKrumFeasibility(t *testing.T) {
	if err := (Krum{C: 1}).Feasible(5, 1); err != nil {
		t.Errorf("Feasible(5,1): %v", err)
	}
	if err := (Krum{C: 1}).Feasible(4, 1); err == nil {
		t.Error("n < 2c+3 accepted")
	}
	if err := (Krum{C: 1}).Feasible(9, 2); err == nil {
		t.Error("c > configured accepted")
	}
	if _, err := (Krum{C: 2}).Aggregate([][]float64{{1}, {2}}); err == nil {
		t.Error("aggregate with too few inputs accepted")
	}
}

func TestMultiKrumAveragesSelection(t *testing.T) {
	honest := [][]float64{{1}, {1.1}, {0.9}, {1.05}, {0.95}, {1}}
	byz := [][]float64{{-100}}
	grads := append(append([][]float64{}, honest...), byz...)
	out, err := MultiKrum{C: 1, M: 3}.Aggregate(grads)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out[0]-1) > 0.2 {
		t.Errorf("multi-krum output %v, want ≈1", out)
	}
}

func TestMultiKrumDefaultM(t *testing.T) {
	grads := [][]float64{{1}, {1}, {1}, {1}, {1}, {1}, {1}}
	out, err := MultiKrum{C: 1}.Aggregate(grads)
	if err != nil {
		t.Fatal(err)
	}
	vecsAlmostEq(t, out, []float64{1}, 1e-12)
}

func TestBulyanRobustToCByzantines(t *testing.T) {
	// n = 7 = 4c+3 with c = 1.
	honest := [][]float64{{1, 2}, {1.1, 2.1}, {0.9, 1.9}, {1, 2.05}, {1.05, 1.95}, {0.95, 2}}
	byz := [][]float64{{-1000, 1000}}
	grads := append(append([][]float64{}, honest...), byz...)
	b := Bulyan{C: 1}
	if err := b.Feasible(len(grads), 1); err != nil {
		t.Fatal(err)
	}
	out, err := b.Aggregate(grads)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out[0]-1) > 0.3 || math.Abs(out[1]-2) > 0.3 {
		t.Errorf("bulyan output %v, want ≈(1,2)", out)
	}
}

func TestBulyanFeasibility(t *testing.T) {
	if err := (Bulyan{C: 1}).Feasible(7, 1); err != nil {
		t.Errorf("Feasible(7,1): %v", err)
	}
	if err := (Bulyan{C: 1}).Feasible(6, 1); err == nil {
		t.Error("n < 4c+3 accepted")
	}
	if _, err := (Bulyan{C: 1}).Aggregate([][]float64{{1}, {2}, {3}}); err == nil {
		t.Error("aggregate with too few inputs accepted")
	}
}

func TestAurorDiscardsMinorityCluster(t *testing.T) {
	grads := [][]float64{{0.9}, {1}, {1.1}, {1}, {50}, {51}}
	out, err := Auror{Threshold: 5}.Aggregate(grads)
	if err != nil {
		t.Fatal(err)
	}
	vecsAlmostEq(t, out, []float64{1}, 0.2)
}

func TestAurorKeepsAllWhenClose(t *testing.T) {
	grads := [][]float64{{1}, {2}, {3}, {4}}
	out, err := Auror{Threshold: 100}.Aggregate(grads)
	if err != nil {
		t.Fatal(err)
	}
	vecsAlmostEq(t, out, []float64{2.5}, 1e-12)
}

func TestAurorSingleInput(t *testing.T) {
	out, err := Auror{}.Aggregate([][]float64{{7, 8}})
	if err != nil {
		t.Fatal(err)
	}
	vecsAlmostEq(t, out, []float64{7, 8}, 0)
}

func TestAggregatorsDoNotMutateInputs(t *testing.T) {
	aggs := []Aggregator{
		Mean{}, Median{}, TrimmedMean{Trim: 1}, MedianOfMeans{Groups: 2},
		SignSGD{}, GeometricMedian{}, Krum{C: 1}, MultiKrum{C: 1},
		Bulyan{C: 1}, Auror{Threshold: 1},
	}
	for _, agg := range aggs {
		grads := [][]float64{{1, 2}, {3, 4}, {5, 6}, {7, 8}, {9, 10}, {11, 12}, {13, 14}}
		orig := make([][]float64, len(grads))
		for i, g := range grads {
			orig[i] = linalg.CloneVec(g)
		}
		if _, err := agg.Aggregate(grads); err != nil {
			t.Errorf("%s: %v", agg.Name(), err)
			continue
		}
		for i := range grads {
			for j := range grads[i] {
				if grads[i][j] != orig[i][j] {
					t.Errorf("%s mutated input %d", agg.Name(), i)
				}
			}
		}
	}
}

func TestNamesAreStable(t *testing.T) {
	if (Krum{C: 2}).Name() != "krum(c=2)" {
		t.Error("krum name changed")
	}
	if (MedianOfMeans{Groups: 5}).Name() != "median-of-means(5)" {
		t.Error("mom name changed")
	}
}

// Property: for all aggregators the output is within the coordinate-wise
// min/max envelope of the inputs... except SignSGD (maps to signs) and
// Mean-like rules which stay inside the convex hull anyway. We check the
// envelope property for the robust rules on random data.
func TestQuickOutputWithinEnvelope(t *testing.T) {
	robust := []Aggregator{Median{}, TrimmedMean{Trim: 1}, MedianOfMeans{Groups: 3},
		GeometricMedian{}, Krum{C: 1}, MultiKrum{C: 1}, Bulyan{C: 1}}
	prop := func(raw [7][3]float64) bool {
		grads := make([][]float64, 7)
		for i := range grads {
			grads[i] = []float64{clamp(raw[i][0]), clamp(raw[i][1]), clamp(raw[i][2])}
		}
		for _, agg := range robust {
			out, err := agg.Aggregate(grads)
			if err != nil {
				return false
			}
			for c := 0; c < 3; c++ {
				lo, hi := grads[0][c], grads[0][c]
				for _, g := range grads {
					lo = math.Min(lo, g[c])
					hi = math.Max(hi, g[c])
				}
				if out[c] < lo-1e-9 || out[c] > hi+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: permutation invariance for the symmetric rules. Krum is
// excluded: under exact score ties its argmin selection is order
// dependent, which the original paper leaves unspecified.
func TestQuickPermutationInvariance(t *testing.T) {
	aggs := []Aggregator{Median{}, TrimmedMean{Trim: 1}, GeometricMedian{},
		Mean{}, SignSGD{}}
	prop := func(raw [6][2]float64, rot uint8) bool {
		grads := make([][]float64, 6)
		for i := range grads {
			grads[i] = []float64{clamp(raw[i][0]), clamp(raw[i][1])}
		}
		s := int(rot) % 6
		rotated := make([][]float64, 6)
		for i := range grads {
			rotated[i] = grads[(i+s)%6]
		}
		for _, agg := range aggs {
			a, err1 := agg.Aggregate(grads)
			b, err2 := agg.Aggregate(rotated)
			if err1 != nil || err2 != nil {
				return false
			}
			if linalg.Dist2(a, b) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func clamp(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0.5
	}
	return math.Mod(x, 5)
}

func benchGrads(n, d int) [][]float64 {
	grads := make([][]float64, n)
	for i := range grads {
		grads[i] = make([]float64, d)
		for j := range grads[i] {
			grads[i][j] = float64((i*31+j*17)%13) - 6
		}
	}
	return grads
}

// BenchmarkMedian25x1000 draws from 13 distinct values, which lets
// quickselect's equal run exit early; BenchmarkMedianChunk times the
// median kernel on Gaussian columns, as real gradients are.
func BenchmarkMedian25x1000(b *testing.B) {
	grads := benchGrads(25, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (Median{}).Aggregate(grads); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMultiKrum25x1000(b *testing.B) {
	grads := benchGrads(25, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (MultiKrum{C: 5}).Aggregate(grads); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBulyan25x1000(b *testing.B) {
	grads := benchGrads(25, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (Bulyan{C: 5}).Aggregate(grads); err != nil {
			b.Fatal(err)
		}
	}
}

func TestMeanAroundMedian(t *testing.T) {
	grads := [][]float64{{0}, {1}, {2}, {3}, {100}}
	// near=3: values closest to median 2 are {2, 1, 3} → mean 2.
	out, err := MeanAroundMedian{Near: 3}.Aggregate(grads)
	if err != nil {
		t.Fatal(err)
	}
	vecsAlmostEq(t, out, []float64{2}, 1e-12)
	// default near = ceil(n/2) = 3: same result.
	out, err = MeanAroundMedian{}.Aggregate(grads)
	if err != nil {
		t.Fatal(err)
	}
	vecsAlmostEq(t, out, []float64{2}, 1e-12)
	// near > n clamps to n (plain mean).
	out, err = MeanAroundMedian{Near: 99}.Aggregate(grads)
	if err != nil {
		t.Fatal(err)
	}
	vecsAlmostEq(t, out, []float64{21.2}, 1e-12)
	if _, err := (MeanAroundMedian{}).Aggregate(nil); err == nil {
		t.Error("empty input accepted")
	}
}

func TestMeanAroundMedianIgnoresOutliers(t *testing.T) {
	grads := [][]float64{{1, -1}, {1.1, -0.9}, {0.9, -1.1}, {1e6, -1e6}, {1.05, -1.05}}
	out, err := MeanAroundMedian{Near: 3}.Aggregate(grads)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out[0]-1) > 0.2 || math.Abs(out[1]+1) > 0.2 {
		t.Errorf("output %v pulled by outlier", out)
	}
}
