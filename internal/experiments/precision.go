package experiments

import (
	"context"
	"fmt"
	"math"
	"time"

	"byzshield/internal/cluster"
	"byzshield/internal/linalg"
	"byzshield/internal/trainer"
	"byzshield/internal/transport"
)

// PrecisionPoint is one dim of the f64-vs-f32 scaling curve: the same
// fault-free ByzShield round (MOLS placement, vote, median aggregation,
// momentum step) timed through the float64 engine and the float32
// engine. The f32 win grows with the parameter dimension — the round is
// memory-bandwidth-bound once gradients outgrow cache, and half-width
// values move twice the coordinates per cache line.
type PrecisionPoint struct {
	// InputDim is the softmax feature dimension; ParamDim the resulting
	// parameter count (InputDim*Classes + Classes).
	InputDim int `json:"input_dim"`
	ParamDim int `json:"param_dim"`
	Rounds   int `json:"rounds"`
	// F64RoundNs / F32RoundNs are best-of-reps mean wall-clock
	// nanoseconds per post-warmup round.
	F64RoundNs int64 `json:"f64_round_ns"`
	F32RoundNs int64 `json:"f32_round_ns"`
	// Speedup is F64RoundNs / F32RoundNs.
	Speedup float64 `json:"f32_speedup"`
}

// PrecisionConfig parameterizes the precision-scaling sweep.
type PrecisionConfig struct {
	// InputDims are the softmax feature dimensions to sweep. The
	// defaults bracket the quickstart config (dim 330) through a
	// large-model regime (dim 100k+): 41, 256, 2000, 12500 at 8 classes
	// give parameter dims 336, 2056, 16008, 100008.
	InputDims []int
	// Classes sizes the softmax output (default 8).
	Classes int
	// Rounds per timed window (default 8) after Warmup (default 2).
	Rounds, Warmup int
	// Reps runs each (dim, precision) point this many times and keeps
	// the fastest (default 3).
	Reps int
	// Seed fixes the data/batch stream.
	Seed int64
	// Logf receives progress lines; nil disables.
	Logf func(format string, args ...any)
}

// precisionSpec builds the sweep's Spec for one input dim: the
// quickstart MOLS(5,3) placement with a small batch, so the round is
// kernel- and aggregation-bound, which is the regime the f32 tier
// targets.
func (c PrecisionConfig) precisionSpec(inputDim int) transport.Spec {
	return transport.Spec{
		Scheme: "mols", L: 5, R: 3,
		Aggregator: "median",
		TrainN:     256, TestN: 64,
		Dim: inputDim, Classes: c.Classes,
		// Not the model seed: see FleetConfig.fleetSpec.
		DataSeed: c.Seed + 1, ClassSep: 2.0,
		BatchSize: 50,
		Schedule:  trainer.Schedule{Base: 0.05, Decay: 0.98, Every: 50},
		Momentum:  0.9, Seed: c.Seed, Rounds: c.Rounds + c.Warmup,
	}
}

// timeRounds times the post-warmup rounds of the width-T engine. A run
// whose parameters never leave their initial bits is an error: it would
// time a round that computes gradients of zero.
func timeRounds[T linalg.Float](ctx context.Context, c PrecisionConfig, spec transport.Spec) (int64, error) {
	cfg, err := transport.EngineConfigOf[T](&spec)
	if err != nil {
		return 0, err
	}
	cfg.Parallelism = 1
	eng, err := cluster.NewOf(cfg)
	if err != nil {
		return 0, err
	}
	defer eng.Close()
	initial := eng.Params()
	for i := 0; i < c.Warmup; i++ {
		if _, err := eng.StepOnce(ctx); err != nil {
			return 0, err
		}
	}
	start := time.Now()
	for i := 0; i < c.Rounds; i++ {
		if _, err := eng.StepOnce(ctx); err != nil {
			return 0, err
		}
	}
	ns := time.Since(start).Nanoseconds() / int64(c.Rounds)
	if linalg.EqualBits(initial, eng.Params()) {
		return 0, fmt.Errorf("%d rounds left the parameters at their initial bits: the spec does not train", c.Warmup+c.Rounds)
	}
	return ns, nil
}

// PrecisionScaling runs the f64-vs-f32 round-time scaling curve: for
// each input dim, both precision engines execute the identical
// experiment serially (Parallelism 1, so the curve measures kernel and
// memory-system throughput, not pool scheduling) and the best-of-reps
// mean round time is recorded. The f32/f64 trajectories are pinned
// against each other by the parity and bit-identity tests; this sweep
// measures only time.
func PrecisionScaling(ctx context.Context, cfg PrecisionConfig) ([]PrecisionPoint, error) {
	if len(cfg.InputDims) == 0 {
		cfg.InputDims = []int{41, 256, 2000, 12500}
	}
	if cfg.Classes == 0 {
		cfg.Classes = 8
	}
	if cfg.Rounds < 1 {
		cfg.Rounds = 8
	}
	if cfg.Warmup < 1 {
		cfg.Warmup = 2
	}
	if cfg.Reps < 1 {
		cfg.Reps = 3
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	best := func(f func(context.Context, PrecisionConfig, transport.Spec) (int64, error), spec transport.Spec) (int64, error) {
		var min int64 = math.MaxInt64
		for rep := 0; rep < cfg.Reps; rep++ {
			ns, err := f(ctx, cfg, spec)
			if err != nil {
				return 0, err
			}
			if ns < min {
				min = ns
			}
		}
		return min, nil
	}
	var out []PrecisionPoint
	for _, dim := range cfg.InputDims {
		spec := cfg.precisionSpec(dim)
		pt := PrecisionPoint{
			InputDim: dim,
			ParamDim: dim*cfg.Classes + cfg.Classes,
			Rounds:   cfg.Rounds,
		}
		var err error
		if pt.F64RoundNs, err = best(timeRounds[float64], spec); err != nil {
			return nil, fmt.Errorf("precision dim %d f64: %w", dim, err)
		}
		if pt.F32RoundNs, err = best(timeRounds[float32], spec); err != nil {
			return nil, fmt.Errorf("precision dim %d f32: %w", dim, err)
		}
		if pt.F32RoundNs > 0 {
			pt.Speedup = float64(pt.F64RoundNs) / float64(pt.F32RoundNs)
		}
		cfg.Logf("precision dim=%-6d (params %-6d) f64=%.3fms f32=%.3fms speedup=%.2fx",
			dim, pt.ParamDim, float64(pt.F64RoundNs)/1e6, float64(pt.F32RoundNs)/1e6, pt.Speedup)
		out = append(out, pt)
	}
	return out, nil
}
