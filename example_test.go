package byzshield_test

import (
	"context"
	"fmt"
	"time"

	"byzshield"
)

// ExampleNewMOLS constructs the paper's Example 1 assignment and shows
// worker U0's files (Table 2, first row).
func ExampleNewMOLS() {
	asn, err := byzshield.NewMOLS(5, 3)
	if err != nil {
		panic(err)
	}
	fmt.Println(asn)
	fmt.Println(asn.WorkerFiles(0))
	// Output:
	// mols(K=15, f=25, l=5, r=3)
	// [0 9 13 17 21]
}

// ExampleAnalyzeDistortion reproduces a Table 3 row: with q = 3
// omniscient Byzantines, at most 3 of 25 file votes can be flipped.
func ExampleAnalyzeDistortion() {
	asn, err := byzshield.NewMOLS(5, 3)
	if err != nil {
		panic(err)
	}
	rep, err := byzshield.AnalyzeDistortion(asn, 3, 30*time.Second)
	if err != nil {
		panic(err)
	}
	fmt.Printf("c_max=%d epsilon=%.2f gamma=%.2f exact=%v\n",
		rep.CMax, rep.Epsilon, rep.Gamma, rep.Exact)
	// Output:
	// c_max=3 epsilon=0.12 gamma=4.29 exact=true
}

// ExampleSpectralGap shows the Lemma 2 spectral gap µ1 = 1/r for the
// Ramanujan Case 2 construction versus µ1 = 1 for FRC grouping.
func ExampleSpectralGap() {
	ram, err := byzshield.NewRamanujan2(5, 5)
	if err != nil {
		panic(err)
	}
	frc, err := byzshield.NewFRC(25, 5)
	if err != nil {
		panic(err)
	}
	muRam, err := byzshield.SpectralGap(ram)
	if err != nil {
		panic(err)
	}
	muFRC, err := byzshield.SpectralGap(frc)
	if err != nil {
		panic(err)
	}
	fmt.Printf("ramanujan2 mu1=%.2f frc mu1=%.2f\n", muRam, muFRC)
	// Output:
	// ramanujan2 mu1=0.20 frc mu1=1.00
}

// ExampleMedian demonstrates the robust aggregation primitive on its
// own: one adversarial vector cannot move the coordinate-wise median.
func ExampleMedian() {
	agg := byzshield.Median()
	out, err := agg.Aggregate([][]float64{
		{1.0, 2.0},
		{1.1, 2.1},
		{0.9, 1.9},
		{1e9, -1e9}, // Byzantine
		{1.0, 2.0},
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("%.1f %.1f\n", out[0], out[1])
	// Output:
	// 1.0 2.0
}

// ExampleSession_Run runs a short end-to-end defended training job
// against the reversed-gradient attack to its horizon and reports
// whether it converged.
func ExampleSession_Run() {
	ctx := context.Background()
	asn, err := byzshield.NewMOLS(5, 3)
	if err != nil {
		panic(err)
	}
	train, test, err := byzshield.SyntheticDataset(600, 200, 10, 5, 3)
	if err != nil {
		panic(err)
	}
	mdl, err := byzshield.NewSoftmaxModel(10, 5)
	if err != nil {
		panic(err)
	}
	s, err := byzshield.Open(ctx, byzshield.TrainConfig{
		Assignment: asn,
		Model:      mdl,
		Train:      train,
		Test:       test,
		BatchSize:  100,
		Q:          3,
		Attack:     byzshield.ReversedGradient(10),
		Iterations: 50,
		EvalEvery:  50,
		Seed:       3,
	})
	if err != nil {
		panic(err)
	}
	defer s.Close()
	hist, err := s.Run(ctx, 0)
	if err != nil {
		panic(err)
	}
	fmt.Println(hist.FinalAccuracy() > 0.6)
	// Output:
	// true
}

// ExampleOpen steps a session round by round under a context, with the
// components resolved by name from the registry — the incremental
// counterpart of ExampleSession_Run.
func ExampleOpen() {
	ctx := context.Background()
	asn, err := byzshield.Registry.Scheme("mols", byzshield.SchemeParams{L: 5, R: 3})
	if err != nil {
		panic(err)
	}
	train, test, err := byzshield.SyntheticDataset(600, 200, 10, 5, 3)
	if err != nil {
		panic(err)
	}
	mdl, err := byzshield.NewSoftmaxModel(10, 5)
	if err != nil {
		panic(err)
	}
	attack, err := byzshield.Registry.Attack("reversed", byzshield.AttackParams{C: 10})
	if err != nil {
		panic(err)
	}
	s, err := byzshield.Open(ctx, byzshield.TrainConfig{
		Assignment: asn,
		Model:      mdl,
		Train:      train,
		Test:       test,
		BatchSize:  100,
		Q:          3,
		Attack:     attack,
		Iterations: 50,
		EvalEvery:  50,
		Seed:       3,
	})
	if err != nil {
		panic(err)
	}
	defer s.Close()
	for s.Round() < 50 {
		if _, err := s.Step(ctx); err != nil {
			panic(err)
		}
	}
	fmt.Println(s.Round(), s.History().FinalAccuracy() > 0.6)
	// Output:
	// 50 true
}
