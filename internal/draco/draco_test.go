package draco

import (
	"math"
	"testing"
	"testing/quick"

	"byzshield/internal/assign"
	"byzshield/internal/distort"
)

// makeReturns produces worker reports for a scheme: honest workers
// return truth[v]; byzantine workers return the adversarial vector.
func makeReturns(s *Scheme, truth [][]float64, byz map[int]bool, adversarial []float64) []map[int][]float64 {
	a := s.Assignment
	out := make([]map[int][]float64, a.K)
	for u := 0; u < a.K; u++ {
		m := make(map[int][]float64)
		for _, v := range a.WorkerFiles(u) {
			if byz[u] {
				m[v] = adversarial
			} else {
				m[v] = truth[v]
			}
		}
		out[u] = m
	}
	return out
}

func makeTruth(f, d int) [][]float64 {
	truth := make([][]float64, f)
	for v := range truth {
		row := make([]float64, d)
		for i := range row {
			row[i] = float64(v*10 + i)
		}
		truth[v] = row
	}
	return truth
}

func TestCyclicConstruction(t *testing.T) {
	s, err := NewCyclic(7, 3)
	if err != nil {
		t.Fatal(err)
	}
	a := s.Assignment
	if a.K != 7 || a.F != 7 || a.L != 3 || a.R != 3 {
		t.Errorf("params: %v", a)
	}
	// Worker 5 holds files 5, 6, 0 (cyclic wraparound).
	files := a.WorkerFiles(5)
	want := []int{0, 5, 6}
	for i := range want {
		if files[i] != want[i] {
			t.Fatalf("worker 5 files = %v, want %v", files, want)
		}
	}
	if err := a.Validate(); err != nil {
		t.Error(err)
	}
	if _, err := NewCyclic(5, 6); err == nil {
		t.Error("r > K accepted")
	}
}

func TestFeasibilityBoundary(t *testing.T) {
	s, err := NewCyclic(9, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Feasible(2); err != nil { // r=5 >= 2·2+1
		t.Errorf("q=2 should be feasible: %v", err)
	}
	if err := s.Feasible(3); err == nil { // r=5 < 2·3+1=7
		t.Error("q=3 should be infeasible")
	}
}

func TestExactRecoveryWithinGuarantee(t *testing.T) {
	// r = 5, q = 2: exact recovery guaranteed for ANY Byzantine pair.
	s, err := NewCyclic(10, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Feasible(2); err != nil {
		t.Fatal(err)
	}
	truth := makeTruth(s.Assignment.F, 3)
	adversarial := []float64{-999, -999, -999}
	for b1 := 0; b1 < 10; b1++ {
		for b2 := b1 + 1; b2 < 10; b2++ {
			byz := map[int]bool{b1: true, b2: true}
			files, exact, err := s.Decode(makeReturns(s, truth, byz, adversarial), truth)
			if err != nil {
				t.Fatal(err)
			}
			if !exact {
				t.Fatalf("byz={%d,%d}: recovery not exact", b1, b2)
			}
			for v, f := range files {
				if math.Abs(f[0]-truth[v][0]) > 0 {
					t.Fatalf("byz={%d,%d}: file %d decoded wrong", b1, b2, v)
				}
			}
		}
	}
}

func TestRecoveryFailsBeyondGuarantee(t *testing.T) {
	// r = 3, q = 2 > (r−1)/2 = 1: an adversary packing a file's replica
	// set breaks the decode — the fragility the paper highlights.
	s, err := NewCyclic(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Feasible(2); err == nil {
		t.Fatal("q=2 should be infeasible for r=3")
	}
	truth := makeTruth(6, 2)
	adversarial := []float64{-999, -999}
	// Workers 0 and 1 share files 1 and 2 (cyclic): two byzantine
	// replicas beat one honest replica on both files.
	byz := map[int]bool{0: true, 1: true}
	_, exact, err := s.Decode(makeReturns(s, truth, byz, adversarial), truth)
	if err != nil {
		t.Fatal(err)
	}
	if exact {
		t.Error("decode claimed exactness with a corrupted majority")
	}
}

func TestFractionalExactRecovery(t *testing.T) {
	a, err := assign.FRC(15, 5)
	if err != nil {
		t.Fatal(err)
	}
	s := &Scheme{Code: CodeFractional, Assignment: a}
	truth := makeTruth(s.Assignment.F, 2)
	adversarial := []float64{1e9, 1e9}
	// q = 2 < r' = 3 in every group: exact.
	byz := map[int]bool{0: true, 5: true}
	_, exact, err := s.Decode(makeReturns(s, truth, byz, adversarial), truth)
	if err != nil {
		t.Fatal(err)
	}
	if !exact {
		t.Error("fractional decode not exact within guarantee")
	}
}

func TestAggregateSums(t *testing.T) {
	files := [][]float64{{1, 2}, {3, 4}, {5, 6}}
	out := Aggregate(files)
	if out[0] != 9 || out[1] != 12 {
		t.Errorf("Aggregate = %v", out)
	}
	if Aggregate(nil) != nil {
		t.Error("empty aggregate should be nil")
	}
}

func TestDecodeErrors(t *testing.T) {
	s, _ := NewCyclic(5, 3)
	if _, _, err := s.Decode(make([]map[int][]float64, 3), nil); err == nil {
		t.Error("wrong report count accepted")
	}
	// Missing file in a report.
	reports := make([]map[int][]float64, 5)
	for u := range reports {
		reports[u] = map[int][]float64{}
	}
	if _, _, err := s.Decode(reports, nil); err == nil {
		t.Error("missing files accepted")
	}
}

// TestCyclicDistortionComparesToByzShield reproduces the Sec. 5.3.1
// contrast: at equal (K, r), the cyclic DRACO placement admits a far
// larger worst-case distortion fraction than MOLS once q exceeds the
// exact-recovery bound.
func TestCyclicDistortionComparesToByzShield(t *testing.T) {
	s, err := NewCyclic(15, 3)
	if err != nil {
		t.Fatal(err)
	}
	an := distort.NewAnalyzer(s.Assignment)
	// Adjacent byzantine workers corrupt shared cyclic files: q = 4
	// adjacent workers hold files with ≥ 2 byz replicas.
	greedy := an.MaxDistortedGreedy(4)
	if greedy.CMax < 3 {
		t.Errorf("cyclic placement should lose ≥3 files at q=4, got %d", greedy.CMax)
	}
}

// Property: for any q within the exact-recovery bound and any Byzantine
// set, cyclic DRACO decodes exactly.
func TestQuickExactRecoveryProperty(t *testing.T) {
	s, err := NewCyclic(11, 5)
	if err != nil {
		t.Fatal(err)
	}
	truth := makeTruth(11, 2)
	adversarial := []float64{-7, 13}
	prop := func(a, b uint8) bool {
		b1 := int(a) % 11
		b2 := int(b) % 11
		byz := map[int]bool{b1: true, b2: true}
		_, exact, err := s.Decode(makeReturns(s, truth, byz, adversarial), truth)
		return err == nil && exact
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkCyclicDecode(b *testing.B) {
	s, err := NewCyclic(25, 5)
	if err != nil {
		b.Fatal(err)
	}
	truth := makeTruth(25, 500)
	byz := map[int]bool{3: true, 11: true}
	returns := makeReturns(s, truth, byz, make([]float64, 500))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Decode(returns, truth); err != nil {
			b.Fatal(err)
		}
	}
}
