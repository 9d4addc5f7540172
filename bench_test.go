// Benchmark harness: one benchmark per paper table and figure (see
// DESIGN.md §4 for the experiment index) plus the ablation benches of
// DESIGN.md §5. Run with:
//
//	go test -bench=. -benchmem
//
// Table benches measure the worst-case distortion search that generates
// the table; figure benches measure a scaled-down end-to-end training
// run with the figure's lead configuration (full-size runs live behind
// cmd/byzsim -figure). Reported values are wall-clock per experiment
// regeneration.
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
	"byzshield/internal/distort"
	"byzshield/internal/experiments"
)

// benchOpts are reduced-size training options so each figure bench
// iteration stays ~100ms.
func benchOpts() experiments.TrainOpts {
	opts := experiments.DefaultTrainOpts()
	opts.Spec.Rounds = 20
	opts.EvalEvery = 20
	opts.Spec.TrainN = 800
	opts.Spec.TestN = 200
	opts.Spec.Dim = 16
	opts.Spec.Hidden = 16
	opts.Spec.BatchSize = 200
	opts.SearchBudget = 5 * time.Second
	return opts
}

// benchTable runs the full q-sweep of a distortion table.
func benchTable(b *testing.B, spec experiments.TableSpec, budget time.Duration) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunTable(context.Background(), spec, budget)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkTable3(b *testing.B) { benchTable(b, experiments.Table3Spec(), 30*time.Second) }

func BenchmarkTable4(b *testing.B) { benchTable(b, experiments.Table4Spec(), 30*time.Second) }

// BenchmarkTable5 uses a bounded budget: the paper itself reports the
// search becomes intractable near q = 13; within the budget the exact
// prefix is proven and the tail falls back to greedy bounds.
func BenchmarkTable5(b *testing.B) {
	spec := experiments.Table5Spec()
	spec.QMax = 9 // exact within seconds; full sweep via cmd/byzsim
	benchTable(b, spec, 30*time.Second)
}

func BenchmarkTable6(b *testing.B) { benchTable(b, experiments.Table6Spec(), 30*time.Second) }

// benchFigure runs one figure's full curve set at bench scale.
func benchFigure(b *testing.B, run func(context.Context, experiments.TrainOpts) experiments.Figure) {
	b.Helper()
	opts := benchOpts()
	for i := 0; i < b.N; i++ {
		fig := run(context.Background(), opts)
		if len(fig.Curves) == 0 {
			b.Fatal("no curves")
		}
	}
}

func BenchmarkFigure2(b *testing.B)  { benchFigure(b, experiments.Figure2) }
func BenchmarkFigure3(b *testing.B)  { benchFigure(b, experiments.Figure3) }
func BenchmarkFigure4(b *testing.B)  { benchFigure(b, experiments.Figure4) }
func BenchmarkFigure5(b *testing.B)  { benchFigure(b, experiments.Figure5) }
func BenchmarkFigure6(b *testing.B)  { benchFigure(b, experiments.Figure6) }
func BenchmarkFigure7(b *testing.B)  { benchFigure(b, experiments.Figure7) }
func BenchmarkFigure8(b *testing.B)  { benchFigure(b, experiments.Figure8) }
func BenchmarkFigure9(b *testing.B)  { benchFigure(b, experiments.Figure9) }
func BenchmarkFigure10(b *testing.B) { benchFigure(b, experiments.Figure10) }
func BenchmarkFigure11(b *testing.B) { benchFigure(b, experiments.Figure11) }

func BenchmarkFigure12(b *testing.B) {
	opts := benchOpts()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure12(context.Background(), opts, 3)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 3 {
			b.Fatal("wrong row count")
		}
	}
}

// BenchmarkAblationAssignment compares the worst-case distortion search
// across assignment schemes at identical (K, r): the design choice at
// the heart of the paper.
func BenchmarkAblationAssignment(b *testing.B) {
	builders := map[string]func() (*assign.Assignment, error){
		"mols":       func() (*assign.Assignment, error) { return assign.MOLS(5, 3) },
		"ramanujan1": func() (*assign.Assignment, error) { return assign.Ramanujan1(5, 3) },
		"frc":        func() (*assign.Assignment, error) { return assign.FRC(15, 3) },
	}
	for name, build := range builders {
		b.Run(name, func(b *testing.B) {
			a, err := build()
			if err != nil {
				b.Fatal(err)
			}
			an := distort.NewAnalyzer(a)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := an.MaxDistorted(context.Background(), 5)
				if !res.Exact {
					b.Fatal("not exact")
				}
			}
		})
	}
}

// BenchmarkAblationAggregator compares the post-vote aggregation rules
// on the same 25×2000 winner set.
func BenchmarkAblationAggregator(b *testing.B) {
	winners := make([][]float64, 25)
	for i := range winners {
		w := make([]float64, 2000)
		for j := range w {
			w[j] = float64((i*31+j*7)%23) - 11
		}
		winners[i] = w
	}
	rules := []aggregate.Aggregator{
		aggregate.Mean{},
		aggregate.Median{},
		aggregate.TrimmedMean{Trim: 5},
		aggregate.MedianOfMeans{Groups: 5},
		aggregate.MultiKrum{C: 5},
		aggregate.Bulyan{C: 5},
		aggregate.GeometricMedian{},
		aggregate.SignSGD{},
	}
	for _, rule := range rules {
		b.Run(rule.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := rule.Aggregate(winners); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationSearch compares the exact branch-and-bound against
// the greedy heuristic for the worst-case Byzantine set.
func BenchmarkAblationSearch(b *testing.B) {
	a, err := assign.MOLS(7, 3)
	if err != nil {
		b.Fatal(err)
	}
	an := distort.NewAnalyzer(a)
	b.Run("exhaustive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = an.MaxDistorted(context.Background(), 6)
		}
	})
	b.Run("greedy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = an.MaxDistortedGreedy(6)
		}
	})
}

// BenchmarkAblationRedundancy sweeps the replication factor r at fixed
// K-ish scale, measuring a full (short) training run: the robustness /
// compute-overhead trade of Sec. 6.2.
func BenchmarkAblationRedundancy(b *testing.B) {
	for _, r := range []int{2, 3, 4} {
		b.Run(fmt.Sprintf("r=%d", r), func(b *testing.B) {
			asn, err := byzshield.NewMOLS(5, r)
			if err != nil {
				b.Fatal(err)
			}
			train, test, err := byzshield.SyntheticDataset(800, 200, 16, 10, 5)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mdl, err := byzshield.NewSoftmaxModel(16, 10)
				if err != nil {
					b.Fatal(err)
				}
				s, err := byzshield.Open(context.Background(), byzshield.TrainConfig{
					Assignment: asn,
					Model:      mdl,
					Train:      train,
					Test:       test,
					BatchSize:  200,
					Q:          2,
					Attack:     attack.Reversed{C: 1},
					Iterations: 20,
					EvalEvery:  20,
					Seed:       5,
				})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := s.Run(context.Background(), 0); err != nil {
					b.Fatal(err)
				}
				s.Close()
			}
		})
	}
}
