// Cross-module integration tests: every attack × defense combination at
// small scale must run end to end without errors and produce sane
// accuracy, and the qualitative robustness relations the paper
// establishes must hold across model architectures.
package byzshield_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"byzshield"
	"byzshield/internal/aggregate"
	"byzshield/internal/assign"
	"byzshield/internal/attack"
	"byzshield/internal/cluster"
	"byzshield/internal/data"
	"byzshield/internal/distort"
	"byzshield/internal/draco"
	"byzshield/internal/model"
	"byzshield/internal/trainer"
)

// TestAttackDefenseGrid runs every attack against every vote-compatible
// defense on the MOLS(5,3) cluster with the worst-case q = 3 adversary.
func TestAttackDefenseGrid(t *testing.T) {
	asn, err := assign.MOLS(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	an := distort.NewAnalyzer(asn)
	byz := an.WorstCaseByzantines(context.Background(), 3)
	train, test, err := data.Synthetic(data.SyntheticConfig{
		Train: 600, Test: 200, Dim: 10, Classes: 5, Seed: 77, ClassSep: 2,
	})
	if err != nil {
		t.Fatal(err)
	}

	// The registry's "sign-flip" alias resolves to the reversed gradient;
	// its cells run it as a user naming it gets it.
	signFlip, err := byzshield.Registry.Attack("sign-flip")
	if err != nil {
		t.Fatal(err)
	}
	attacks := []struct {
		name string
		atk  attack.Attack
	}{
		{"benign", attack.Benign{}},
		{"alie", attack.ALIE{}},
		{"alie", attack.ALIE{ZOverride: 1}},
		{"constant", attack.Constant{ScaleByFileSize: true}},
		{"reversed-gradient", attack.Reversed{C: 1}},
		{"reversed-gradient", attack.Reversed{C: 10}},
		{"random-gaussian", attack.RandomGaussian{Scale: 5}},
		{"sign-flip", signFlip},
	}
	defenses := []aggregate.Aggregator{
		aggregate.Median{},
		aggregate.TrimmedMean{Trim: 3},
		aggregate.MedianOfMeans{Groups: 5},
		aggregate.MultiKrum{C: 3},
		aggregate.Bulyan{C: 3},
		aggregate.GeometricMedian{},
		aggregate.Auror{Threshold: 1},
	}
	for _, a := range attacks {
		atk := a.atk
		for _, def := range defenses {
			name := fmt.Sprintf("%s/%s", a.name, def.Name())
			t.Run(name, func(t *testing.T) {
				mdl, err := model.NewSoftmax(10, 5)
				if err != nil {
					t.Fatal(err)
				}
				eng, err := cluster.New(cluster.Config{
					Assignment: asn, Model: mdl, Train: train, Test: test,
					BatchSize: 100, Attack: atk, Byzantines: byz,
					Aggregator: def,
					Schedule:   trainer.Schedule{Base: 0.05, Decay: 0.96, Every: 20},
					Momentum:   0.9, Seed: 9,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer eng.Close()
				h, err := eng.Run(context.Background(), 40, 40)
				if err != nil {
					t.Fatal(err)
				}
				acc := h.FinalAccuracy()
				if acc < 0.2 {
					// ε̂ = 0.12 with a robust rule should never collapse
					// to chance (0.2 for 5 classes) on this easy task.
					t.Errorf("accuracy %.3f under %s", acc, name)
				}
			})
		}
	}
}

// TestAllModelsTrainUnderAttack runs the full pipeline with each model
// architecture.
func TestAllModelsTrainUnderAttack(t *testing.T) {
	builders := map[string]func() (model.Model, error){
		"softmax": func() (model.Model, error) { return model.NewSoftmax(12, 4) },
		"mlp":     func() (model.Model, error) { return model.NewMLP(12, 16, 4) },
		"convnet": func() (model.Model, error) { return model.NewConvNet(12, 3, 4, 4) },
	}
	asn, err := assign.MOLS(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	train, test, err := data.Synthetic(data.SyntheticConfig{
		Train: 600, Test: 200, Dim: 12, Classes: 4, Seed: 5, ClassSep: 2.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	an := distort.NewAnalyzer(asn)
	byz := an.WorstCaseByzantines(context.Background(), 3)
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			mdl, err := build()
			if err != nil {
				t.Fatal(err)
			}
			eng, err := cluster.New(cluster.Config{
				Assignment: asn, Model: mdl, Train: train, Test: test,
				BatchSize: 100, Attack: attack.ALIE{ZOverride: 1}, Byzantines: byz,
				Aggregator: aggregate.Median{},
				Schedule:   trainer.Schedule{Base: 0.05, Decay: 0.96, Every: 20},
				Momentum:   0.9, Seed: 5,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			h, err := eng.Run(context.Background(), 60, 60)
			if err != nil {
				t.Fatal(err)
			}
			if h.FinalAccuracy() < 0.5 {
				t.Errorf("%s accuracy %.3f under ALIE q=3 with ByzShield", name, h.FinalAccuracy())
			}
		})
	}
}

// TestDRACOVsByzShieldBoundary demonstrates the Sec. 5.3.1 contrast at
// the applicability boundary: with r = 3, DRACO guarantees exact
// recovery only for q ≤ 1; at q = 2 DRACO's guarantee is void (and a
// packed adversary corrupts its decode), while ByzShield's vote +
// median keeps training (ε̂ = 0.04).
func TestDRACOVsByzShieldBoundary(t *testing.T) {
	dr, err := draco.NewCyclic(15, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := dr.Feasible(1); err != nil {
		t.Errorf("q=1 should be inside DRACO's guarantee: %v", err)
	}
	if err := dr.Feasible(2); err == nil {
		t.Error("q=2 should be outside DRACO's guarantee for r=3")
	}

	// ByzShield at q=2: ε̂ = 1/25, converges.
	asn, err := byzshield.NewMOLS(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	train, test, err := byzshield.SyntheticDataset(600, 200, 10, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	mdl, err := byzshield.NewSoftmaxModel(10, 5)
	if err != nil {
		t.Fatal(err)
	}
	s, err := byzshield.Open(context.Background(), byzshield.TrainConfig{
		Assignment: asn, Model: mdl, Train: train, Test: test,
		BatchSize: 100, Q: 2, Attack: byzshield.ReversedGradient(10),
		Iterations: 40, EvalEvery: 40, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h, err := s.Run(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if h.FinalAccuracy() < 0.6 {
		t.Errorf("ByzShield q=2 accuracy %.3f", h.FinalAccuracy())
	}
}

// TestEndToEndCheckpointedTraining exercises snapshot → file → restore
// through the checkpoint package against a live engine.
func TestEndToEndCheckpointedTraining(t *testing.T) {
	asn, err := assign.MOLS(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	train, test, err := data.Synthetic(data.SyntheticConfig{
		Train: 400, Test: 100, Dim: 8, Classes: 4, Seed: 13, ClassSep: 2.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	newEngine := func() *cluster.Engine {
		mdl, err := model.NewSoftmax(8, 4)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := cluster.New(cluster.Config{
			Assignment: asn, Model: mdl, Train: train, Test: test,
			BatchSize: 60, Attack: attack.Reversed{}, Byzantines: []int{0, 7},
			Aggregator: aggregate.Median{},
			Schedule:   trainer.Schedule{Base: 0.05, Decay: 0.96, Every: 20},
			Momentum:   0.9, Seed: 13,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { eng.Close() })
		return eng
	}
	eng := newEngine()
	for i := 0; i < 6; i++ {
		if _, err := eng.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
	params, velocity, iter := eng.Snapshot()

	path := t.TempDir() + "/state.gob"
	if err := saveState(path, params, velocity, iter); err != nil {
		t.Fatal(err)
	}
	p2, v2, it2, err := loadState(path)
	if err != nil {
		t.Fatal(err)
	}
	restored := newEngine()
	for i := 0; i < 6; i++ { // replay RNG streams to the snapshot point
		if _, err := restored.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
	if err := restored.Restore(p2, v2, it2); err != nil {
		t.Fatal(err)
	}
	if restored.Iteration() != 6 {
		t.Errorf("restored iteration %d", restored.Iteration())
	}
	if _, err := restored.RunRound(); err != nil {
		t.Fatal(err)
	}
}

func saveState(path string, params, velocity []float64, iter int) error {
	return checkpointSave(path, params, velocity, iter)
}

func loadState(path string) ([]float64, []float64, int, error) {
	return checkpointLoad(path)
}

// TestFacadeDistortionSweepAgainstBounds sweeps q over the facade
// analysis and checks γ dominance plus ε̂ monotonicity.
func TestFacadeDistortionSweepAgainstBounds(t *testing.T) {
	asn, err := byzshield.NewRamanujan2(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	prev := -1
	for q := 0; q <= 8; q++ {
		rep, err := byzshield.AnalyzeDistortion(asn, q, 20*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if rep.CMax < prev {
			t.Errorf("c_max not monotone at q=%d", q)
		}
		prev = rep.CMax
		if q > 0 && float64(rep.CMax) > rep.Gamma+1e-9 {
			t.Errorf("q=%d: c_max %d exceeds γ %.3f", q, rep.CMax, rep.Gamma)
		}
	}
}
