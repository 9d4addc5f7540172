// Package experiments defines one runnable configuration per table and
// figure of the paper's evaluation (Tables 3–6, Figures 2–12) and the
// shared machinery to execute them: worst-case Byzantine selection and
// rendering of the resulting series. Every training cell is a
// transport.Spec, lowered to the engine by transport.EngineConfigOf —
// the same description a fleet serves.
//
// Every experiment is deterministic given its options, and scaled-down
// defaults keep the full suite runnable on a laptop; the cmd tools
// expose flags for full-size runs.
package experiments

import (
	"context"
	"time"

	"byzshield/internal/assign"
	"byzshield/internal/attack"
	"byzshield/internal/cluster"
	"byzshield/internal/distort"
	"byzshield/internal/registry"
	"byzshield/internal/trainer"
	"byzshield/internal/transport"
	"byzshield/internal/wire"
)

// components is the shared process-wide catalog all experiment
// definitions resolve component names through.
var components = registry.Default

// TrainOpts are the knobs shared by all training experiments. The zero
// value is not usable; start from DefaultTrainOpts.
type TrainOpts struct {
	// Spec is the run every training cell starts from — dataset, model,
	// batch stream and data distribution, schedule, seeds, horizon
	// (Rounds) and detector; each cell names its own scheme and rule on
	// top of it (cellSpec).
	Spec      transport.Spec
	EvalEvery int
	// SearchBudget bounds the worst-case Byzantine search per run.
	SearchBudget time.Duration
	// Uplink is the worker→PS report codec tier the PS of each Figure 12
	// fleet names: raw (the zero value) or the lossy sign/int8 quantized
	// tiers.
	Uplink wire.UplinkTier
}

// DefaultTrainOpts returns laptop-scale defaults: a 10-class synthetic
// task (mirroring CIFAR-10's class count) that a clean run solves to
// ≈75% accuracy, trained with a small ReLU MLP — nonlinear, like the
// paper's ResNet-18, so that ALIE's per-coordinate bias actually
// degrades the model (it is argmax-invariant for pure softmax).
func DefaultTrainOpts() TrainOpts {
	return TrainOpts{
		Spec: transport.Spec{
			TrainN: 3000, TestN: 1000, Dim: 24, Classes: 10, ClassSep: 0.5, Hidden: 24,
			BatchSize: 500, Schedule: defaultSchedule, Momentum: 0.9,
			Seed: 42, DataSeed: 42, Rounds: 300,
		},
		EvalEvery:    25,
		SearchBudget: 10 * time.Second,
	}
}

// RunSpec describes one curve of a figure: the cell's scheme and rule,
// named through Spec fields, and its adversary.
type RunSpec struct {
	// Label is the curve's legend entry, e.g. "ByzShield, q = 5".
	Label string
	// Spec carries the cell's Scheme, L, R, K, Aggregator, AggParams and,
	// when non-zero, Schedule; RunOne takes the rest from TrainOpts.Spec.
	Spec transport.Spec
	// Q is the number of Byzantine workers, placed worst-case.
	Q int
	// Attack generates the Byzantine payloads.
	Attack attack.Attack
	// CMaxC sets AggParams.C to the realized worst-case corruption count
	// c_max once the search has run (DETOX-Multi-Krum's lost groups).
	CMaxC bool
}

// Curve is the executed result of a RunSpec.
type Curve struct {
	Label    string
	Epsilon  float64 // realized distortion fraction ε̂
	Points   []trainer.Point
	Err      string // non-empty when the pipeline is infeasible or failed
	Rounds   int
	Schedule trainer.Schedule
}

// Figure is a set of curves sharing axes, mirroring one paper figure.
type Figure struct {
	ID     string
	Title  string
	Curves []Curve
}

// selectByzantines picks the worst-case Byzantine set for the
// assignment, the paper's omniscient adversary placement. The search
// runs under ctx bounded by budget.
func selectByzantines(ctx context.Context, a *assign.Assignment, q int, budget time.Duration) ([]int, int) {
	if q == 0 {
		return nil, 0
	}
	an := distort.NewAnalyzer(a)
	sctx, cancel := context.WithTimeout(ctx, budget)
	defer cancel()
	res := an.MaxDistorted(sctx, q)
	return res.Byzantines, res.CMax
}

// defaultSchedule is the median-pipeline schedule used unless the spec
// overrides it (Table 7 uses per-figure tuning; one robust default keeps
// the scaled-down reproduction comparable across curves).
var defaultSchedule = trainer.Schedule{Base: 0.05, Decay: 0.96, Every: 25}

// signSGDSchedule is the smaller rate used by the sign pipelines.
var signSGDSchedule = trainer.Schedule{Base: 0.005, Decay: 0.9, Every: 50}

// cellSpec is base with cell's scheme and rule: its Scheme, L, R, K,
// Aggregator and AggParams, and its Schedule when that is set.
func cellSpec(base, cell transport.Spec) transport.Spec {
	base.Scheme, base.L, base.R, base.K = cell.Scheme, cell.L, cell.R, cell.K
	base.Aggregator, base.AggParams = cell.Aggregator, cell.AggParams
	if cell.Schedule != (trainer.Schedule{}) {
		base.Schedule = cell.Schedule
	}
	return base
}

// RunOne executes a single RunSpec under ctx and returns its curve.
// Cancellation surfaces as a curve error with the partial point series.
func RunOne(ctx context.Context, cell RunSpec, opts TrainOpts) Curve {
	curve := Curve{Label: cell.Label}
	s := cellSpec(opts.Spec, cell.Spec)
	cfg, err := transport.EngineConfigOf[float64](&s)
	if err != nil {
		curve.Err = err.Error()
		return curve
	}
	byz, cmax := selectByzantines(ctx, cfg.Assignment, cell.Q, opts.SearchBudget)
	curve.Epsilon = float64(cmax) / float64(cfg.Assignment.F)
	if cell.CMaxC {
		s.AggParams.C = cmax
		if cfg.Aggregator, err = s.BuildAggregator(); err != nil {
			curve.Err = err.Error()
			return curve
		}
	}
	cfg.Attack, cfg.Byzantines = cell.Attack, byz
	curve.Schedule = s.Schedule
	eng, err := cluster.New(cfg)
	if err != nil {
		curve.Err = err.Error()
		return curve
	}
	defer eng.Close()
	if err := eng.CheckFeasible(); err != nil {
		// Mirror the paper's "cannot be paired" findings rather than
		// running an invalid configuration.
		curve.Err = "infeasible: " + err.Error()
		return curve
	}
	h, err := eng.Run(ctx, s.Rounds, opts.EvalEvery)
	curve.Points = h.Points
	curve.Rounds = s.Rounds
	if err != nil {
		curve.Err = err.Error()
	}
	return curve
}

// RunFigure executes all curves of a figure definition under ctx.
func RunFigure(ctx context.Context, id, title string, specs []RunSpec, opts TrainOpts) Figure {
	fig := Figure{ID: id, Title: title}
	for _, spec := range specs {
		fig.Curves = append(fig.Curves, RunOne(ctx, spec, opts))
	}
	return fig
}
