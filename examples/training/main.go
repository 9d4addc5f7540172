// Training comparison: the paper's K = 25 cluster under the ALIE attack
// with three defenses — ByzShield (Ramanujan Case 2 + median), the
// un-replicated coordinate-wise median baseline, and DETOX (FRC + vote +
// median-of-means) — reproducing the shape of Figure 2. Every pipeline
// is assembled purely from registry names, so the run definitions are
// data, not code.
package main

import (
	"context"
	"fmt"
	"log"

	"byzshield"
)

func main() {
	const q = 5 // Byzantine workers (of K = 25)
	ctx := context.Background()

	// A task hard enough that defenses separate: clean training reaches
	// ≈0.75; ALIE's bias costs the weaker defenses 10–20 points. The
	// model is a ReLU MLP — for pure softmax, ALIE's uniform
	// per-coordinate shift is argmax-invariant and nearly harmless.
	train, test, err := byzshield.NewSyntheticDataset(byzshield.DatasetConfig{
		Train: 3000, Test: 1000, Dim: 24, Classes: 10, ClassSep: 0.5, Seed: 11,
	})
	if err != nil {
		log.Fatal(err)
	}

	type runDef struct {
		name         string
		scheme       string
		schemeParams byzshield.SchemeParams
		agg          string
		aggParams    byzshield.AggregatorParams
	}
	runs := []runDef{
		{"ByzShield (Ram2 + median)", "ramanujan2", byzshield.SchemeParams{L: 5, R: 5}, "median", byzshield.AggregatorParams{}},
		{"Baseline median", "baseline", byzshield.SchemeParams{K: 25}, "median", byzshield.AggregatorParams{}},
		{"DETOX (FRC + MoM)", "frc", byzshield.SchemeParams{K: 25, R: 5}, "median-of-means", byzshield.AggregatorParams{Groups: 5}},
	}

	for _, r := range runs {
		asn, err := byzshield.Registry.Scheme(r.scheme, r.schemeParams)
		if err != nil {
			log.Fatal(err)
		}
		agg, err := byzshield.Registry.Aggregator(r.agg, r.aggParams)
		if err != nil {
			log.Fatal(err)
		}
		attack, err := byzshield.Registry.Attack("alie")
		if err != nil {
			log.Fatal(err)
		}
		mdl, err := byzshield.NewMLPModel(24, 24, 10)
		if err != nil {
			log.Fatal(err)
		}
		sess, err := byzshield.Open(ctx, byzshield.TrainConfig{
			Assignment: asn,
			Model:      mdl,
			Train:      train,
			Test:       test,
			BatchSize:  500,
			Q:          q,
			Attack:     attack,
			Aggregator: agg,
			Iterations: 250,
			EvalEvery:  50,
			Seed:       11,
		})
		if err != nil {
			log.Fatal(err)
		}
		history, err := sess.Run(ctx, 0)
		sess.Close()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-28s", r.name)
		for _, p := range history.Points {
			fmt.Printf("  %d:%.3f", p.Iteration, p.Accuracy)
		}
		fmt.Printf("  (final %.3f)\n", history.FinalAccuracy())
	}
	fmt.Println("\nExpected shape (paper Fig. 2): ByzShield's small ε̂ (0.08) keeps it near")
	fmt.Println("attack-free accuracy while the baseline median (ε̂=0.20) decays under ALIE.")
	fmt.Println("DETOX's larger ε̂ penalty becomes catastrophic at q=9 — run")
	fmt.Println("`go run ./cmd/byzsim -figure 6` for its collapse to chance accuracy.")
}
