package byzshield_test

import (
	"context"
	"math"
	"slices"
	"testing"

	"byzshield"
)

// TestAttackAggregatorMatrix sweeps every registered attack against
// every registered aggregator for a few rounds — the ByzFL-style
// regression surface: no combination may error, produce non-finite
// parameters, or distort more file votes than the Byzantine set
// statically controls.
func TestAttackAggregatorMatrix(t *testing.T) {
	asn, err := byzshield.NewMOLS(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	train, test, err := byzshield.SyntheticDataset(300, 100, 8, 4, 11)
	if err != nil {
		t.Fatal(err)
	}
	// Aggregator knobs valid for 25 operands with the worst-case q=2
	// corruption (c_max = 1, Table 3).
	params := map[string]byzshield.AggregatorParams{
		"krum":         {C: 1},
		"multikrum":    {C: 1},
		"bulyan":       {C: 1},
		"trimmed-mean": {Trim: 1},
	}
	// "sign-flip" is an alias of reversed, not a canonical name; old
	// command lines still name it, so it keeps its own cells.
	attacks := append(byzshield.Registry.Attacks(), "sign-flip")
	aggregators := byzshield.Registry.Aggregators()
	if len(attacks) < 5 || len(aggregators) < 10 {
		t.Fatalf("registry unexpectedly small: %d attacks, %d aggregators", len(attacks), len(aggregators))
	}
	for _, atkName := range attacks {
		for _, aggName := range aggregators {
			t.Run(atkName+"/"+aggName, func(t *testing.T) {
				atk, err := byzshield.Registry.Attack(atkName)
				if err != nil {
					t.Fatal(err)
				}
				agg, err := byzshield.Registry.Aggregator(aggName, params[aggName])
				if err != nil {
					t.Fatal(err)
				}
				mdl, err := byzshield.NewSoftmaxModel(8, 4)
				if err != nil {
					t.Fatal(err)
				}
				s, err := byzshield.Open(context.Background(), byzshield.TrainConfig{
					Assignment: asn,
					Model:      mdl,
					Train:      train,
					Test:       test,
					BatchSize:  50,
					Q:          2,
					Attack:     atk,
					Aggregator: agg,
					Iterations: 3,
					EvalEvery:  3,
					Seed:       11,
				})
				if err != nil {
					t.Fatalf("open %s/%s: %v", atkName, aggName, err)
				}
				defer s.Close()
				corruptible := len(s.CorruptibleFiles())
				for round := 0; round < 3; round++ {
					res, err := s.Step(context.Background())
					if err != nil {
						t.Fatalf("round %d: %v", round, err)
					}
					if res.DistortedFiles > corruptible {
						t.Fatalf("round %d distorted %d votes, but only %d files are corruptible",
							round, res.DistortedFiles, corruptible)
					}
				}
				for i, p := range s.Params() {
					if math.IsNaN(p) || math.IsInf(p, 0) {
						t.Fatalf("param %d is %v after %s/%s", i, p, atkName, aggName)
					}
				}
			})
		}
	}
}

// TestAttackDetectorMatrix sweeps every registered attack against every
// registered detector: no combination may error or produce non-finite
// parameters, every blacklist verdict must land on a member of the
// worst-case Byzantine set (never an honest worker), reputations must
// stay within [0, 1], and a benign run must blacklist nobody.
func TestAttackDetectorMatrix(t *testing.T) {
	asn, err := byzshield.NewMOLS(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	// The detection layer's verified operating point (the byzsim -detect
	// sweep): MLP gradients over the 10-class synthetic set, large enough
	// batches that honest per-worker features are noise, not structure.
	train, test, err := byzshield.NewSyntheticDataset(byzshield.DatasetConfig{
		Train: 3000, Test: 500, Dim: 24, Classes: 10, ClassSep: 0.5, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	attacks := append(byzshield.Registry.Attacks(), "sign-flip") // as above
	detectors := byzshield.Registry.Detectors()
	if len(attacks) < 5 || len(detectors) < 3 {
		t.Fatalf("registry unexpectedly small: %d attacks, %d detectors", len(attacks), len(detectors))
	}
	// Enough rounds for the default policy (MinRounds 10) to blacklist a
	// persistent offender.
	const rounds = 16
	for _, atkName := range attacks {
		for _, detName := range detectors {
			t.Run(atkName+"/"+detName, func(t *testing.T) {
				atk, err := byzshield.Registry.Attack(atkName)
				if err != nil {
					t.Fatal(err)
				}
				det, err := byzshield.Registry.Detector(detName)
				if err != nil {
					t.Fatal(err)
				}
				mdl, err := byzshield.NewMLPModel(24, 24, 10)
				if err != nil {
					t.Fatal(err)
				}
				s, err := byzshield.Open(context.Background(), byzshield.TrainConfig{
					Assignment: asn,
					Model:      mdl,
					Train:      train,
					Test:       test,
					BatchSize:  500,
					Q:          3,
					Attack:     atk,
					Detector:   det,
					Iterations: rounds,
					EvalEvery:  rounds,
					Seed:       11,
				})
				if err != nil {
					t.Fatalf("open %s/%s: %v", atkName, detName, err)
				}
				defer s.Close()
				byz := s.Byzantines()
				blacklisted := 0
				for round := 0; round < rounds; round++ {
					res, err := s.Step(context.Background())
					if err != nil {
						t.Fatalf("round %d: %v", round, err)
					}
					if res.MeanReputation < 0 || res.MeanReputation > 1 {
						t.Fatalf("round %d: mean reputation %v outside [0, 1]", round, res.MeanReputation)
					}
					for _, u := range res.BlacklistedWorkers {
						if !slices.Contains(byz, u) {
							t.Fatalf("round %d: honest worker %d blacklisted (Byzantines %v)", round, u, byz)
						}
					}
					blacklisted += len(res.BlacklistedWorkers)
					if res.Blacklisted != blacklisted {
						t.Fatalf("round %d: cumulative blacklist %d, per-round verdicts sum to %d",
							round, res.Blacklisted, blacklisted)
					}
				}
				if atkName == "benign" && blacklisted != 0 {
					t.Errorf("benign run blacklisted %d workers under %s", blacklisted, detName)
				}
				for i, p := range s.Params() {
					if math.IsNaN(p) || math.IsInf(p, 0) {
						t.Fatalf("param %d is %v after %s/%s", i, p, atkName, detName)
					}
				}
			})
		}
	}
}

// TestHonestFleetNeverBlacklisted is the false-positive guard: with no
// attack at all, the cluster detector must blacklist nobody under any
// registered aggregator, and the fleet's mean reputation must stay
// high.
func TestHonestFleetNeverBlacklisted(t *testing.T) {
	asn, err := byzshield.NewMOLS(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	train, test, err := byzshield.NewSyntheticDataset(byzshield.DatasetConfig{
		Train: 3000, Test: 500, Dim: 24, Classes: 10, ClassSep: 0.5, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	params := map[string]byzshield.AggregatorParams{
		"krum":         {C: 1},
		"multikrum":    {C: 1},
		"bulyan":       {C: 1},
		"trimmed-mean": {Trim: 1},
	}
	const rounds = 16
	for _, aggName := range byzshield.Registry.Aggregators() {
		t.Run(aggName, func(t *testing.T) {
			agg, err := byzshield.Registry.Aggregator(aggName, params[aggName])
			if err != nil {
				t.Fatal(err)
			}
			mdl, err := byzshield.NewMLPModel(24, 24, 10)
			if err != nil {
				t.Fatal(err)
			}
			s, err := byzshield.Open(context.Background(), byzshield.TrainConfig{
				Assignment: asn,
				Model:      mdl,
				Train:      train,
				Test:       test,
				BatchSize:  500,
				Aggregator: agg,
				Detector:   byzshield.ClusterDetector(),
				Iterations: rounds,
				EvalEvery:  rounds,
				Seed:       11,
			})
			if err != nil {
				t.Fatalf("open %s: %v", aggName, err)
			}
			defer s.Close()
			var last byzshield.RoundResult
			for round := 0; round < rounds; round++ {
				if last, err = s.Step(context.Background()); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
			}
			if last.Blacklisted != 0 {
				t.Errorf("honest-only run blacklisted %d workers under %s", last.Blacklisted, aggName)
			}
			if last.MeanReputation < 0.8 {
				t.Errorf("honest-only mean reputation %v under %s, want ≥ 0.8", last.MeanReputation, aggName)
			}
		})
	}
}
