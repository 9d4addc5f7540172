package byzshield

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestFacadeConstructors(t *testing.T) {
	mols, err := NewMOLS(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if mols.K != 15 || mols.F != 25 {
		t.Errorf("MOLS params: %v", mols)
	}
	ram2, err := NewRamanujan2(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	if ram2.K != 25 || ram2.F != 25 {
		t.Errorf("Ram2 params: %v", ram2)
	}
	if _, err := NewRamanujan1(5, 3); err != nil {
		t.Error(err)
	}
	if _, err := NewFRC(15, 3); err != nil {
		t.Error(err)
	}
	if _, err := NewBaseline(25); err != nil {
		t.Error(err)
	}
	if _, err := NewRandom(15, 25, 3, 1); err != nil {
		t.Error(err)
	}
}

func TestSpectralGapValues(t *testing.T) {
	mols, _ := NewMOLS(5, 3)
	mu1, err := SpectralGap(mols)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mu1-1.0/3) > 1e-6 {
		t.Errorf("MOLS µ1 = %v, want 1/3", mu1)
	}
	frc, _ := NewFRC(15, 3)
	mu1FRC, err := SpectralGap(frc)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mu1FRC-1) > 1e-6 {
		t.Errorf("FRC µ1 = %v, want 1", mu1FRC)
	}
}

func TestAnalyzeDistortionMatchesTable3(t *testing.T) {
	mols, _ := NewMOLS(5, 3)
	rep, err := AnalyzeDistortion(mols, 5, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Exact || rep.CMax != 8 {
		t.Errorf("q=5: %+v, want exact c_max=8", rep)
	}
	if math.Abs(rep.Epsilon-0.32) > 1e-9 {
		t.Errorf("ε̂ = %v, want 0.32", rep.Epsilon)
	}
	if math.Abs(rep.Gamma-10) > 0.01 {
		t.Errorf("γ = %v, want 10 (Table 3)", rep.Gamma)
	}
	if len(rep.Byzantines) != 5 {
		t.Errorf("byzantines = %v", rep.Byzantines)
	}
}

func TestAnalyzeDistortionErrors(t *testing.T) {
	if _, err := AnalyzeDistortion(nil, 1, time.Second); err == nil {
		t.Error("nil assignment accepted")
	}
	mols, _ := NewMOLS(5, 3)
	if _, err := AnalyzeDistortion(mols, -1, time.Second); err == nil {
		t.Error("negative q accepted")
	}
	if _, err := AnalyzeDistortion(mols, 99, time.Second); err == nil {
		t.Error("q > K accepted")
	}
}

func TestGammaBound(t *testing.T) {
	mols, _ := NewMOLS(5, 3)
	g, err := GammaBound(mols, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g-2.105) > 0.01 {
		t.Errorf("γ(2) = %v, want ≈2.11", g)
	}
}

func TestTrainEndToEnd(t *testing.T) {
	mols, err := NewMOLS(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	train, test, err := SyntheticDataset(800, 300, 12, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewSoftmaxModel(12, 10)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(context.Background(), TrainConfig{
		Assignment: mols,
		Model:      m,
		Train:      train,
		Test:       test,
		BatchSize:  100,
		Q:          3,
		Attack:     ALIE(),
		Iterations: 60,
		EvalEvery:  20,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h, err := s.Run(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if h.FinalAccuracy() < 0.5 {
		t.Errorf("accuracy %.3f under ALIE q=3", h.FinalAccuracy())
	}
}

// TestOpenNamesCanonicalByzantines: Open's worst-case search on
// Ramanujan2(5,5) at Q = 5, where several sets reach c_max, names the
// same set on every open — the lexicographically first maximizer that
// internal/distort's TestMaxDistortedCanonical pins.
func TestOpenNamesCanonicalByzantines(t *testing.T) {
	ram2, err := NewRamanujan2(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	train, test, err := SyntheticDataset(300, 100, 8, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewSoftmaxModel(8, 10)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 5, 6, 18}
	for open := 0; open < 2; open++ {
		s, err := Open(context.Background(), TrainConfig{
			Assignment: ram2,
			Model:      m,
			Train:      train,
			Test:       test,
			BatchSize:  100,
			Q:          5,
			Iterations: 1,
			Seed:       1,
		})
		if err != nil {
			t.Fatal(err)
		}
		got := s.Byzantines()
		s.Close()
		if !slices.Equal(got, want) {
			t.Fatalf("open %d: Byzantines %v, want %v", open, got, want)
		}
	}
}

// TestPaperShapeTrajectoryPins pins 20 rounds of the sim-paper-k25
// shape: MLP 64-128-10 on Ramanujan2(5,5), Q = 5 on the canonical
// worst-case set, batch 750 (30-sample files) and the median. The
// hashes were taken from the one-sample-at-a-time MLP kernels, before
// the AVX-512 dense kernels existed, so this holds both dispatches to
// them (CI runs the suite on whichever the runner's CPU picks).
func TestPaperShapeTrajectoryPins(t *testing.T) {
	ram2, err := NewRamanujan2(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	mlp, err := NewMLPModel(64, 128, 10)
	if err != nil {
		t.Fatal(err)
	}
	train, test, err := NewSyntheticDataset(DatasetConfig{
		Train: 1500, Test: 100, Dim: 64, Classes: 10, ClassSep: 0.4, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	gaussian, err := Registry.Attack("random-gaussian")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		attack Attack
		want   uint64
	}{
		{"alie", ALIE(), 0x96a27cec1fa698fa},
		{"random-gaussian", gaussian, 0x45359586249d5161},
	} {
		s, err := Open(context.Background(), TrainConfig{
			Assignment: ram2, Model: mlp, Train: train, Test: test,
			BatchSize: 750, Q: 5, Attack: tc.attack, Aggregator: Median(),
			Seed: 7, Iterations: 20, EvalEvery: 20,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(context.Background(), 0); err != nil {
			t.Fatal(err)
		}
		if got, want := s.Byzantines(), []int{0, 1, 5, 6, 18}; !slices.Equal(got, want) {
			t.Errorf("%s: Byzantines %v, want %v", tc.name, got, want)
		}
		h := fnv.New64a()
		for _, v := range s.Params() {
			binary.Write(h, binary.LittleEndian, math.Float64bits(v))
		}
		s.Close()
		if got := h.Sum64(); got != tc.want {
			t.Errorf("%s: params hash after 20 rounds %#016x, want %#016x", tc.name, got, tc.want)
		}
	}
}

func TestTrainValidatesInfeasibleAggregator(t *testing.T) {
	mols, _ := NewMOLS(5, 3)
	train, test, _ := SyntheticDataset(300, 100, 8, 10, 4)
	m, _ := NewSoftmaxModel(8, 10)
	_, err := Open(context.Background(), TrainConfig{
		Assignment: mols,
		Model:      m,
		Train:      train,
		Test:       test,
		BatchSize:  100,
		Q:          7, // c_max = 14 of 25: Bulyan needs 4·14+3 = 59 > 25
		Aggregator: Bulyan(14),
		Iterations: 5,
		Seed:       1,
	})
	if err == nil || !strings.Contains(err.Error(), "bulyan") {
		t.Errorf("expected bulyan feasibility error, got %v", err)
	}
}

func TestTrainRequiresAssignment(t *testing.T) {
	if _, err := Open(context.Background(), TrainConfig{}); err == nil {
		t.Error("empty config accepted")
	}
}

func TestEvaluateAccuracyFacade(t *testing.T) {
	train, _, err := SyntheticDataset(50, 10, 6, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMLPModel(6, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	params := make([]float64, m.NumParams())
	acc := EvaluateAccuracy(m, params, train)
	if acc < 0 || acc > 1 {
		t.Errorf("accuracy %v", acc)
	}
}

func TestAggregatorFactories(t *testing.T) {
	grads := [][]float64{{1}, {2}, {3}, {4}, {5}, {6}, {7}}
	for _, agg := range []Aggregator{
		Median(), Mean(), TrimmedMean(1), MedianOfMeans(3),
		MultiKrum(1, 0), Krum(1), Bulyan(1), SignSGD(), GeometricMedian(),
	} {
		if _, err := agg.Aggregate(grads); err != nil {
			t.Errorf("%s: %v", agg.Name(), err)
		}
	}
}

func TestAttackFactories(t *testing.T) {
	for _, a := range []Attack{NoAttack(), ALIE(), ConstantAttack(-1), ReversedGradient(1)} {
		if a.Name() == "" {
			t.Error("attack with empty name")
		}
	}
}
