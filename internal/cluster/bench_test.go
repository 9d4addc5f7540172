// Round-engine benchmarks: latency and allocations per protocol round
// on the quickstart configuration (MOLS(5,3): K = 15 workers, f = 25
// files; softmax 32×10, dim = 330; batch 500; ALIE with the worst-case
// q = 3 Byzantine set; coordinate-wise median).
//
// Run with:
//
//	go test ./internal/cluster -bench BenchmarkRound -benchmem -run '^$'
//
// These are layer checks for working on the engine; the repository's
// recorded numbers come from bench/ (bash bench/run.sh, README
// "Benchmarks").
package cluster

import (
	"context"
	"testing"

	"byzshield/internal/aggregate"
	"byzshield/internal/assign"
	"byzshield/internal/attack"
	"byzshield/internal/data"
	"byzshield/internal/detect"
	"byzshield/internal/distort"
	"byzshield/internal/linalg"
	"byzshield/internal/model"
	"byzshield/internal/obs"
	"byzshield/internal/trainer"
	"byzshield/internal/vote"
)

// quickstartConfig mirrors examples/quickstart at full scale.
func quickstartConfig(tb testing.TB) Config {
	tb.Helper()
	return quickstartConfigOf[float64](tb)
}

// quickstartConfigOf is quickstartConfig for the engine of width T.
func quickstartConfigOf[T linalg.Float](tb testing.TB) ConfigOf[T] {
	tb.Helper()
	a, err := assign.MOLS(5, 3)
	if err != nil {
		tb.Fatal(err)
	}
	train, test, err := data.Synthetic(data.SyntheticConfig{
		Train: 3000, Test: 1000, Dim: 32, Classes: 10, Seed: 7,
	})
	if err != nil {
		tb.Fatal(err)
	}
	m, err := model.NewSoftmax(32, 10)
	if err != nil {
		tb.Fatal(err)
	}
	byz := distort.NewAnalyzer(a).WorstCaseByzantines(context.Background(), 3)
	return ConfigOf[T]{
		Assignment: a, Model: m, Train: train, Test: test,
		BatchSize: 500, Attack: attack.ALIE{}, Byzantines: byz,
		Aggregator: aggregate.Median{},
		Schedule:   trainer.Schedule{Base: 0.05, Decay: 0.96, Every: 25},
		Momentum:   0.9, Seed: 7,
	}
}

// benchRounds drives b.N rounds through one engine and returns the
// last round's stats.
func benchRounds(b *testing.B, cfg Config) RoundStats {
	b.Helper()
	e, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	b.ReportAllocs()
	b.ResetTimer()
	var stats RoundStats
	for i := 0; i < b.N; i++ {
		if stats, err = e.RunRound(); err != nil {
			b.Fatal(err)
		}
	}
	return stats
}

// BenchmarkRound measures one protocol round: the parallel engine
// (persistent pool, GOMAXPROCS wide), the serial engine, a fixed
// four-wide pool, and the serial engine with detection on. allocs/op is
// the headline number the arena design targets.
func BenchmarkRound(b *testing.B) {
	b.Run("parallel", func(b *testing.B) {
		benchRounds(b, quickstartConfig(b))
	})
	b.Run("serial", func(b *testing.B) {
		cfg := quickstartConfig(b)
		cfg.Parallelism = 1
		benchRounds(b, cfg)
	})
	b.Run("pool-4", func(b *testing.B) {
		cfg := quickstartConfig(b)
		cfg.Parallelism = 4
		benchRounds(b, cfg)
	})
	// PS-side detection on the hot path: per-worker feature extraction
	// (report norm, cosine to the fleet median, robust z-scores into the
	// ring buffers) plus the detector verdict every round. The fleet is
	// honest and its classes overlap (ClassSep 0.5, the detection sweep's
	// operating point), where 8000 rounds blacklist nobody; on the
	// quickstart's well-separated classes the fixed policy blacklists
	// honest workers within 70 rounds, and a shrinking fleet would
	// flatter the number. The features cost the same on any data, so
	// the delta against serial is the detection layer's whole cost.
	b.Run("detect-zscore", func(b *testing.B) {
		cfg := quickstartConfig(b)
		cfg.Parallelism = 1
		cfg.Attack, cfg.Byzantines = attack.Benign{}, nil
		var err error
		cfg.Train, cfg.Test, err = data.Synthetic(data.SyntheticConfig{
			Train: 3000, Test: 1000, Dim: 32, Classes: 10, Seed: 7, ClassSep: 0.5,
		})
		if err != nil {
			b.Fatal(err)
		}
		cfg.Detector = detect.ZScore{}
		if stats := benchRounds(b, cfg); stats.Blacklisted != 0 {
			b.Fatalf("%d honest workers blacklisted: the fleet shrank under the measurement", stats.Blacklisted)
		}
	})
}

// BenchmarkRoundMLP swaps in an MLP so the pooled backprop scratch is on
// the measured path (the per-sample allocation profile the model
// workspaces eliminate).
func BenchmarkRoundMLP(b *testing.B) {
	cfg := quickstartConfig(b)
	m, err := model.NewMLP(32, 24, 10)
	if err != nil {
		b.Fatal(err)
	}
	cfg.Model = m
	benchRounds(b, cfg)
}

// TestSteadyStateAllocsPerRound pins the allocation budget of the hot
// path: after warm-up (first-epoch reshuffle, attacker scratch growth),
// a protocol round on the quickstart configuration — ALIE moment
// estimation and payload crafting included — must stay in low single
// digits, far under the 24 the arena design left behind. Measured on
// the serial engine so pool scheduling noise cannot flake the count.
// The instrumented subtest re-pins the same budget with the metrics
// registry and round tracer enabled: every hot-path instrument is an
// atomic store into preallocated state, so observability must be free
// of allocation too. The -f32 rows hold the float32 engine — the same
// round core, with the attack oracle behind its widened view — to the
// same budget.
func TestSteadyStateAllocsPerRound(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; alloc budget is pinned in the non-race run")
	}
	t.Run("bare", steadyStateAllocs[float64](false))
	t.Run("instrumented", steadyStateAllocs[float64](true))
	t.Run("bare-f32", steadyStateAllocs[float32](false))
	t.Run("instrumented-f32", steadyStateAllocs[float32](true))
}

func steadyStateAllocs[T linalg.Float](instrumented bool) func(*testing.T) {
	return func(t *testing.T) {
		cfgT := quickstartConfigOf[T](t)
		cfgT.Parallelism = 1
		if instrumented {
			cfgT.Metrics = obs.NewRegistry()
			cfgT.Tracer = obs.NewTracer(64)
		}
		e, err := NewOf[T](cfgT)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		for i := 0; i < 8; i++ {
			if _, err := e.RunRound(); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(12, func() {
			if _, err := e.RunRound(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs >= 24 {
			t.Fatalf("steady-state round allocates %.1f times, budget < 24", allocs)
		}
		if allocs > 4 {
			t.Errorf("steady-state round allocates %.1f times, want ≤ 4 (attacker scratch + sampler prealloc regressed)", allocs)
		}
	}
}

// BenchmarkVoteMajority isolates the allocation-free small-n vote on a
// quickstart-shaped replica set: r = 3 replicas of dim 330, one of them
// a disagreeing Byzantine payload.
func BenchmarkVoteMajority(b *testing.B) {
	honest := make([]float64, 330)
	crafted := make([]float64, 330)
	for i := range honest {
		honest[i] = float64(i%13) - 6
		crafted[i] = -honest[i]
	}
	replicas := [][]float64{honest, honest, crafted}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := vote.Majority(replicas); err != nil {
			b.Fatal(err)
		}
	}
}
