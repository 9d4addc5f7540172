// Package experiments defines one runnable configuration per table and
// figure of the paper's evaluation (Tables 3–6, Figures 2–12) and the
// shared machinery to execute them: dataset/model construction,
// worst-case Byzantine selection, pipeline assembly (ByzShield, DETOX,
// baseline), and rendering of the resulting series.
//
// Every experiment is deterministic given its options, and scaled-down
// defaults keep the full suite runnable on a laptop; the cmd tools
// expose flags for full-size runs.
package experiments

import (
	"context"
	"fmt"
	"time"

	"byzshield/internal/aggregate"
	"byzshield/internal/assign"
	"byzshield/internal/attack"
	"byzshield/internal/cluster"
	"byzshield/internal/data"
	"byzshield/internal/distort"
	"byzshield/internal/model"
	"byzshield/internal/registry"
	"byzshield/internal/trainer"
	"byzshield/internal/wire"
)

// components is the shared process-wide catalog all experiment
// definitions resolve scheme names through.
var components = registry.Default

// TrainOpts are the knobs shared by all training experiments. The zero
// value is not usable; start from DefaultTrainOpts.
type TrainOpts struct {
	Iterations int
	EvalEvery  int
	TrainN     int
	TestN      int
	Dim        int
	Classes    int
	ClassSep   float64
	BatchSize  int
	Hidden     int // 0 = softmax regression; > 0 = MLP hidden width
	Seed       int64
	// SearchBudget bounds the worst-case Byzantine search per run.
	SearchBudget time.Duration
	// Detector names the registry detector the PS of each Figure 12
	// fleet runs ("" or "none" = detection off) — how Figure 12 times the
	// detection layer.
	Detector string
	// Uplink is the worker→PS report codec tier the PS of each Figure 12
	// fleet names: raw (the zero value) or the lossy sign/int8 quantized
	// tiers.
	Uplink wire.UplinkTier
	// Distribution names the registry data distribution the training
	// cells sample batches under ("" or "iid" = homogeneous);
	// DistParam is its knob (dirichlet alpha / label-skew shard count).
	Distribution string
	DistParam    float64
}

// engineConfig builds what the options describe — dataset, model and
// batch stream — as the engine configuration every training cell starts
// from; the cell adds its assignment, adversary and aggregation rule.
func (o TrainOpts) engineConfig() (cluster.Config, error) {
	cfg := cluster.Config{BatchSize: o.BatchSize, Schedule: defaultSchedule, Momentum: 0.9, Seed: o.Seed}
	var err error
	cfg.Train, cfg.Test, err = data.Synthetic(data.SyntheticConfig{
		Train: o.TrainN, Test: o.TestN, Dim: o.Dim,
		Classes: o.Classes, ClassSep: o.ClassSep, Seed: o.Seed,
	})
	if err != nil {
		return cfg, err
	}
	if o.Hidden > 0 {
		cfg.Model, err = model.NewMLP(o.Dim, o.Hidden, o.Classes)
	} else {
		cfg.Model, err = model.NewSoftmax(o.Dim, o.Classes)
	}
	if err != nil {
		return cfg, err
	}
	if o.Distribution != "" && o.Distribution != "iid" {
		cfg.Distribution, err = components.Distribution(o.Distribution, registry.DistributionParams{
			Alpha: o.DistParam, Shards: int(o.DistParam), Seed: o.Seed,
		})
	}
	return cfg, err
}

// DefaultTrainOpts returns laptop-scale defaults: a 10-class synthetic
// task (mirroring CIFAR-10's class count) that a clean run solves to
// ≈75% accuracy, trained with a small ReLU MLP — nonlinear, like the
// paper's ResNet-18, so that ALIE's per-coordinate bias actually
// degrades the model (it is argmax-invariant for pure softmax).
func DefaultTrainOpts() TrainOpts {
	return TrainOpts{
		Iterations:   300,
		EvalEvery:    25,
		TrainN:       3000,
		TestN:        1000,
		Dim:          24,
		Classes:      10,
		ClassSep:     0.5,
		BatchSize:    500,
		Hidden:       24,
		Seed:         42,
		SearchBudget: 10 * time.Second,
	}
}

// Pipeline names a defense pipeline from the paper's legends.
type Pipeline string

// Pipelines under evaluation.
const (
	PipelineByzShield Pipeline = "byzshield" // expander assignment + vote + aggregator
	PipelineDETOX     Pipeline = "detox"     // FRC assignment + vote + aggregator
	PipelineBaseline  Pipeline = "baseline"  // no redundancy + aggregator
)

// RunSpec describes one curve of a figure.
type RunSpec struct {
	// Label is the curve's legend entry, e.g. "ByzShield, q = 5".
	Label    string
	Pipeline Pipeline
	// Scheme builds the assignment for the pipeline (nil uses the
	// pipeline default for the given K).
	Scheme func() (*assign.Assignment, error)
	// K is the cluster size (used for baseline/FRC construction).
	K int
	// R is the replication factor for DETOX's FRC.
	R int
	// Q is the number of Byzantine workers.
	Q int
	// Attack generates the Byzantine payloads.
	Attack attack.Attack
	// Aggregator is the post-vote aggregation rule. When nil it is
	// derived per pipeline: median for ByzShield/baseline.
	Aggregator aggregate.Aggregator
	// AggregatorFor, when non-nil, builds the aggregator from the
	// realized worst-case corruption count c (needed by Krum-family
	// rules whose parameters depend on c).
	AggregatorFor func(c int) aggregate.Aggregator
	// Schedule overrides the default learning-rate schedule.
	Schedule *trainer.Schedule
	// Momentum overrides the default momentum (NaN-free default 0.9).
	Momentum *float64
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

// buildAssignment realizes the RunSpec's assignment: an explicit Scheme
// closure wins, otherwise the pipeline default is resolved through the
// component registry.
func buildAssignment(spec *RunSpec) (*assign.Assignment, error) {
	if spec.Scheme != nil {
		return spec.Scheme()
	}
	switch spec.Pipeline {
	case PipelineBaseline:
		return components.Scheme("baseline", registry.SchemeParams{K: spec.K})
	case PipelineDETOX:
		return components.Scheme("frc", registry.SchemeParams{K: spec.K, R: spec.R})
	default:
		return nil, fmt.Errorf("experiments: pipeline %q needs an explicit Scheme", spec.Pipeline)
	}
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

// RunOne executes a single RunSpec under ctx and returns its curve.
// Cancellation surfaces as a curve error with the partial point series.
func RunOne(ctx context.Context, spec RunSpec, opts TrainOpts) Curve {
	curve := Curve{Label: spec.Label}
	asn, err := buildAssignment(&spec)
	if err != nil {
		curve.Err = err.Error()
		return curve
	}
	byz, cmax := selectByzantines(ctx, asn, spec.Q, opts.SearchBudget)
	curve.Epsilon = float64(cmax) / float64(asn.F)

	cfg, err := opts.engineConfig()
	if err != nil {
		curve.Err = err.Error()
		return curve
	}
	cfg.Assignment = asn
	cfg.Attack = spec.Attack
	cfg.Byzantines = byz
	cfg.Aggregator = spec.Aggregator
	if cfg.Aggregator == nil && spec.AggregatorFor != nil {
		cfg.Aggregator = spec.AggregatorFor(cmax)
	}
	if cfg.Aggregator == nil {
		cfg.Aggregator = aggregate.Median{}
	}
	if spec.Schedule != nil {
		cfg.Schedule = *spec.Schedule
	}
	curve.Schedule = cfg.Schedule
	if spec.Momentum != nil {
		cfg.Momentum = *spec.Momentum
	}
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
	h, err := eng.Run(ctx, opts.Iterations, opts.EvalEvery)
	curve.Points = h.Points
	curve.Rounds = opts.Iterations
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
