// Package byzshield is a Go implementation of ByzShield (Konstantinidis
// & Ramamoorthy, MLSys 2021): a redundancy-based defense for distributed
// synchronous SGD against an omniscient Byzantine adversary. Tasks
// (batch files) are assigned to workers along bipartite expander graphs
// built from mutually orthogonal Latin squares or Ramanujan bigraphs;
// the parameter server majority-votes each file's replicas and robustly
// aggregates the winners, bounding the worst-case fraction of corrupted
// gradients by the graphs' spectral expansion.
//
// This package is the public façade over the implementation packages:
//
//	assignment construction  →  NewMOLS, NewRamanujan1, NewRamanujan2, NewFRC, NewBaseline
//	robustness analysis      →  AnalyzeDistortion, SpectralGap, GammaBound
//	attacks                  →  ALIE, ConstantAttack, ReversedGradient, NoAttack
//	aggregation              →  Median, MedianOfMeans, MultiKrum, Bulyan, SignSGD, ...
//	detection                →  ZScoreDetector, ClusterDetector, NoDetector
//	named components         →  Registry (string name → scheme/aggregator/attack)
//	training                 →  Open/Session (incremental), Train (fire-and-forget),
//	                            internal/transport (TCP)
//
// The Session API is the production entry point: Open(ctx, cfg) returns
// a Session whose Step/Run methods advance the protocol under a
// context, stream per-round metrics through OnRound/Events, and
// checkpoint/restore via Checkpoint/Restore — Train is a convenience
// wrapper over it.
//
// See the examples/ directory for runnable programs and DESIGN.md for
// the full system inventory.
package byzshield

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"byzshield/internal/aggregate"
	"byzshield/internal/assign"
	"byzshield/internal/attack"
	"byzshield/internal/data"
	"byzshield/internal/detect"
	"byzshield/internal/distort"
	"byzshield/internal/fault"
	"byzshield/internal/graph"
	"byzshield/internal/model"
	"byzshield/internal/trainer"
)

// Assignment is a worker–file placement produced by one of the scheme
// constructors. See internal/assign for the scheme implementations.
type Assignment = assign.Assignment

// Aggregator combines gradient vectors; see the aggregate constructors
// below.
type Aggregator = aggregate.Aggregator

// Attack generates Byzantine payloads.
type Attack = attack.Attack

// Fault is a worker participation fault model (crash, straggler, delay,
// flaky). Faults are orthogonal to attacks: an Attack corrupts what a
// worker sends, a Fault decides whether and when it sends at all, so
// fault scenarios compose with the attack × aggregator matrix. See the
// NoFault/CrashFault/StragglerFault/DelayFault/FlakyFault constructors
// and internal/fault.
type Fault = fault.Fault

// Detector is a PS-side Byzantine detection rule, run between gradient
// collection and aggregation over per-worker gradient-history features.
// See the NoDetector/ZScoreDetector/ClusterDetector constructors and
// internal/detect.
type Detector = detect.Detector

// History is the recorded metric series of a training run.
type History = trainer.History

// Schedule is the (x, y, z) step-decay learning-rate schedule of the
// paper's Table 7: rate x, multiplied by y every z iterations.
type Schedule = trainer.Schedule

// Dataset is a dense classification dataset.
type Dataset = data.Dataset

// Distributor splits a dataset into per-file sample pools (the non-IID
// data-distribution component); see the IIDDistribution /
// DirichletDistribution / LabelSkewDistribution constructors and
// internal/data.
type Distributor = data.Distributor

// Model is a differentiable classifier over flat parameter vectors.
type Model = model.Model

// NewMOLS builds the Latin-square assignment of Algorithm 2 with
// computational load l (prime power) and replication r (2 ≤ r ≤ l−1):
// K = r·l workers, f = l² files.
func NewMOLS(l, r int) (*Assignment, error) { return assign.MOLS(l, r) }

// NewRamanujan1 builds the Ramanujan bigraph assignment, Case 1
// (m < s, prime s): K = m·s workers, f = s² files, (l, r) = (s, m).
func NewRamanujan1(s, m int) (*Assignment, error) { return assign.Ramanujan1(s, m) }

// NewRamanujan2 builds Case 2 (m ≥ s, s | m, prime s): K = s² workers,
// f = m·s files, (l, r) = (m, s). The paper's K = 25 cluster is
// NewRamanujan2(5, 5).
func NewRamanujan2(s, m int) (*Assignment, error) { return assign.Ramanujan2(s, m) }

// NewFRC builds the Fractional Repetition Code grouping used by DRACO
// and DETOX: K/r groups of r clones.
func NewFRC(k, r int) (*Assignment, error) { return assign.FRC(k, r) }

// NewBaseline builds the redundancy-free assignment (f = K, r = 1).
func NewBaseline(k int) (*Assignment, error) { return assign.Baseline(k) }

// NewRandom builds an unstructured r-replicated assignment (ablation
// contrast for the expander constructions).
func NewRandom(k, f, r int, seed int64) (*Assignment, error) {
	return assign.Random(k, f, r, rand.New(rand.NewSource(seed)))
}

// Median is ByzShield's default post-vote aggregation rule
// (coordinate-wise median).
func Median() Aggregator { return aggregate.Median{} }

// Mean is plain averaging (non-robust; for controls).
func Mean() Aggregator { return aggregate.Mean{} }

// TrimmedMean trims the t smallest and largest values per coordinate.
func TrimmedMean(t int) Aggregator { return aggregate.TrimmedMean{Trim: t} }

// MedianOfMeans groups inputs and takes the median of group means.
func MedianOfMeans(groups int) Aggregator { return aggregate.MedianOfMeans{Groups: groups} }

// MultiKrum averages the m best-scored inputs assuming at most c
// corruptions (m = 0 selects n − c − 2).
func MultiKrum(c, m int) Aggregator { return aggregate.MultiKrum{C: c, M: m} }

// Krum selects the single best-scored input assuming c corruptions.
func Krum(c int) Aggregator { return aggregate.Krum{C: c} }

// Bulyan runs iterated Krum selection plus trimmed aggregation,
// assuming at most c corruptions (requires n ≥ 4c + 3 inputs).
func Bulyan(c int) Aggregator { return aggregate.Bulyan{C: c} }

// SignSGD outputs the coordinate-wise majority sign. Training steps by
// the learning rate times that sign vector, with no per-sample rescale.
func SignSGD() Aggregator { return aggregate.SignSGD{} }

// GeometricMedian computes the Weiszfeld geometric median.
func GeometricMedian() Aggregator { return aggregate.GeometricMedian{} }

// MeanAroundMedian averages the near values closest to the coordinate
// median (Xie et al. 2018); near = 0 selects ⌈n/2⌉.
func MeanAroundMedian(near int) Aggregator { return aggregate.MeanAroundMedian{Near: near} }

// Auror clusters each coordinate with 1-D 2-means and drops the
// minority cluster when centers are farther apart than threshold
// (Shen et al. 2016).
func Auror(threshold float64) Aggregator { return aggregate.Auror{Threshold: threshold} }

// NoAttack is the attack-free control.
func NoAttack() Attack { return attack.Benign{} }

// NoFault is the fault-free control: every worker participates in every
// round.
func NoFault() Fault { return fault.None{} }

// CrashFault permanently stops the listed workers from round atRound on
// (fail-stop). Files whose surviving replicas still meet the vote
// quorum degrade gracefully; files below quorum drop out of
// aggregation.
func CrashFault(atRound int, workers ...int) Fault {
	return fault.Crash{Workers: workers, AtRound: atRound}
}

// StragglerFault delays the listed workers' reports by delay every
// round. Only the TCP transport realizes delays physically (against the
// server's per-round deadline); the in-process engine treats stragglers
// as full participants.
func StragglerFault(delay time.Duration, workers ...int) Fault {
	return fault.Straggler{Workers: workers, Delay: delay}
}

// DelayFault postpones the listed workers' reports by delay in round
// atRound only — a transient hiccup a deadline-tolerant server absorbs.
func DelayFault(atRound int, delay time.Duration, workers ...int) Fault {
	return fault.Delay{Workers: workers, Round: atRound, Delay: delay}
}

// FlakyFault makes the listed workers skip each round independently
// with probability p, deterministically derived from seed so every
// process evaluating the same fault agrees on the schedule.
func FlakyFault(p float64, seed int64, workers ...int) Fault {
	return fault.Flaky{Workers: workers, P: p, Seed: seed}
}

// StackFault composes several fault models into one heterogeneous
// fleet scenario — e.g. StackFault(FlakyFault(0.3, 1, 2),
// StragglerFault(time.Second, 9)) makes worker 2 flaky while worker 9
// straggles. Decisions merge per (round, worker): crashes and skips
// OR, delays take the maximum.
func StackFault(faults ...Fault) Fault { return fault.Stack(faults) }

// ALIE is the "A Little Is Enough" attack (Baruch et al. 2019).
func ALIE() Attack { return attack.ALIE{} }

// NoDetector is the detection-free control (the default): nothing is
// flagged, every reputation stays 1, nobody is blacklisted.
func NoDetector() Detector { return detect.None{} }

// ZScoreDetector flags workers whose window-mean robust z-score (of
// report norm and cosine-to-median, median/MAD standardized across the
// live fleet) exceeds 3.
func ZScoreDetector() Detector { return detect.ZScore{} }

// ClusterDetector partitions workers' history features with a
// deterministic 2-means and flags a clearly separated (center distance
// above 2), anomalous minority cluster.
func ClusterDetector() Detector { return detect.KMeans{} }

// ConstantAttack sends a constant matrix scaled to gradient-sum
// magnitude.
func ConstantAttack(value float64) Attack {
	return attack.Constant{Value: value, ScaleByFileSize: true}
}

// ReversedGradient sends −c·g instead of the true gradient g.
func ReversedGradient(c float64) Attack { return attack.Reversed{C: c} }

// DistortionReport summarizes the omniscient adversary's best attack on
// an assignment.
type DistortionReport struct {
	Q          int
	CMax       int     // maximum distortable files
	Epsilon    float64 // CMax / f
	Gamma      float64 // Claim 1 spectral upper bound
	Byzantines []int   // a maximizing Byzantine worker set
	Exact      bool    // search proved optimality within the budget
}

// AnalyzeDistortion computes the worst-case distortion of q Byzantine
// workers on the assignment: the exact c_max(q) (branch-and-bound within
// budget; greedy lower bound on timeout) and the spectral γ bound.
func AnalyzeDistortion(a *Assignment, q int, budget time.Duration) (DistortionReport, error) {
	if a == nil {
		return DistortionReport{}, fmt.Errorf("byzshield: nil assignment")
	}
	if q < 0 || q > a.K {
		return DistortionReport{}, fmt.Errorf("byzshield: q=%d out of range [0,%d]", q, a.K)
	}
	if budget <= 0 {
		budget = 30 * time.Second
	}
	an := distort.NewAnalyzer(a)
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	res := an.MaxDistorted(ctx, q)
	mu1, err := SpectralGap(a)
	if err != nil {
		return DistortionReport{}, err
	}
	return DistortionReport{
		Q:          q,
		CMax:       res.CMax,
		Epsilon:    res.Epsilon,
		Gamma:      distort.Gamma(q, a.L, a.R, a.K, mu1),
		Byzantines: res.Byzantines,
		Exact:      res.Exact,
	}, nil
}

// SpectralGap returns µ1, the second-largest eigenvalue of the
// normalized co-assignment matrix A·Aᵀ — the expansion quality measure
// of Lemma 1 (1/r for the ByzShield constructions, 1 for FRC).
func SpectralGap(a *Assignment) (float64, error) {
	spec, err := graph.ComputeSpectrum(a.Graph, 1e-6)
	if err != nil {
		return 0, err
	}
	return spec.Mu1(), nil
}

// GammaBound returns the Claim 1 upper bound γ on c_max(q) for the
// assignment, using its actual spectral gap.
func GammaBound(a *Assignment, q int) (float64, error) {
	mu1, err := SpectralGap(a)
	if err != nil {
		return 0, err
	}
	return distort.Gamma(q, a.L, a.R, a.K, mu1), nil
}

// Defaults applied by Open (and therefore Train) to zero-valued
// TrainConfig fields. This block is the single source of truth for the
// config defaults; Open validates everything else explicitly and
// rejects ambiguous partial values rather than silently substituting.
const (
	// DefaultMomentum is applied when Momentum == 0 and NoMomentum is
	// unset.
	DefaultMomentum = 0.9
	// DefaultIterations is the training horizon when Iterations == 0.
	DefaultIterations = 300
	// DefaultEvalEvery is the evaluation cadence when EvalEvery == 0.
	DefaultEvalEvery = 25
	// DefaultSearchBudget bounds the worst-case Byzantine search when
	// SearchBudget == 0.
	DefaultSearchBudget = 10 * time.Second
)

// DefaultSchedule is the learning-rate schedule applied when Schedule
// is entirely zero: the (0.05, 0.96, 25) step decay used by the
// scaled-down reproduction (paper notation (x, y, z)).
func DefaultSchedule() Schedule { return Schedule{Base: 0.05, Decay: 0.96, Every: 25} }

// TrainConfig assembles a training run for Open. Zero-valued optional
// fields take the
// defaults documented in the Default* block above; ambiguous partial
// values (a Schedule with decay but no base rate, Momentum combined
// with NoMomentum, Q combined with Byzantines) are rejected by Open
// rather than silently patched.
type TrainConfig struct {
	Assignment *Assignment // required
	Model      Model       // required
	Train      *Dataset    // required
	Test       *Dataset    // required
	BatchSize  int         // required, ≥ number of files
	// Q selects the worst-case Byzantine set of that size
	// automatically; alternatively set Byzantines for explicit control.
	// Setting both is rejected.
	Q          int
	Byzantines []int
	Attack     Attack     // default NoAttack()
	Aggregator Aggregator // default Median()
	// Schedule defaults to DefaultSchedule() when entirely zero. A
	// partially set schedule (Base == 0 with Decay/Every set) is an
	// error.
	Schedule Schedule
	// Momentum defaults to DefaultMomentum when 0; set NoMomentum for
	// momentum-free SGD. Momentum outside [0, 1) is an error.
	Momentum   float64
	NoMomentum bool
	Seed       int64
	Iterations int // default DefaultIterations
	EvalEvery  int // default DefaultEvalEvery
	// SearchBudget bounds the worst-case Byzantine search (default
	// DefaultSearchBudget).
	SearchBudget time.Duration
	// Parallelism is the width of the engine's persistent worker pool:
	// 0 selects GOMAXPROCS, 1 runs every protocol phase serially on the
	// stepping goroutine. Any width yields bit-identical parameter
	// trajectories for a fixed seed; the knob only trades wall-clock
	// against cores.
	Parallelism int
	// Fault injects worker participation faults — CrashFault,
	// FlakyFault, etc. — into the run (default NoFault()). Rounds with
	// missing workers vote each file over its surviving replicas when
	// they meet Quorum and drop the file otherwise; RoundResult reports
	// the per-round degradation.
	Fault Fault
	// Quorum is the minimum surviving replicas a file needs to be voted
	// in a degraded round; 0 selects the majority of the nominal
	// replication, r/2 + 1. Values outside [1, r] are rejected.
	Quorum int
	// Detector runs PS-side Byzantine detection between collection and
	// aggregation (default NoDetector()): flagged workers lose
	// reputation, persistent offenders are blacklisted and excluded from
	// every later round, and RoundResult reports the per-round
	// reputation state. Detection composes with any Attack/Aggregator.
	// Every detector runs under one fixed policy (internal/detect): an
	// 8-round feature window, reputation decay 0.9, and a blacklist once
	// a worker observed at least 10 times sinks below reputation 0.5.
	Detector Detector
	// Distribution partitions the training set into per-file sample
	// pools for non-IID runs (nil keeps IID batch reshuffling): each
	// round, file v's samples are drawn from pool v, so the per-file
	// gradients realize the configured label heterogeneity. Resolve
	// named distributions through Registry.Distribution.
	Distribution Distributor
}

// normalized validates the config and returns a copy with every
// documented default applied.
func (cfg TrainConfig) normalized() (TrainConfig, error) {
	if cfg.Assignment == nil {
		return cfg, fmt.Errorf("byzshield: Assignment is required")
	}
	if cfg.Model == nil {
		return cfg, fmt.Errorf("byzshield: Model is required")
	}
	if cfg.Train == nil || cfg.Test == nil {
		return cfg, fmt.Errorf("byzshield: Train and Test datasets are required")
	}
	if cfg.BatchSize < cfg.Assignment.F {
		return cfg, fmt.Errorf("byzshield: BatchSize %d < file count %d", cfg.BatchSize, cfg.Assignment.F)
	}
	if cfg.Q < 0 || cfg.Q > cfg.Assignment.K {
		return cfg, fmt.Errorf("byzshield: Q=%d out of range [0,%d]", cfg.Q, cfg.Assignment.K)
	}
	if cfg.Q > 0 && len(cfg.Byzantines) > 0 {
		return cfg, fmt.Errorf("byzshield: set Q (worst-case search) or Byzantines (explicit set), not both")
	}
	if cfg.Schedule == (Schedule{}) {
		cfg.Schedule = DefaultSchedule()
	} else if cfg.Schedule.Base == 0 {
		return cfg, fmt.Errorf("byzshield: Schedule.Base must be set when Decay/Every are (got %v)", cfg.Schedule)
	} else if err := cfg.Schedule.Validate(); err != nil {
		return cfg, fmt.Errorf("byzshield: %w", err)
	}
	switch {
	case cfg.NoMomentum && cfg.Momentum != 0:
		return cfg, fmt.Errorf("byzshield: NoMomentum contradicts Momentum=%v", cfg.Momentum)
	case cfg.Momentum < 0 || cfg.Momentum >= 1:
		return cfg, fmt.Errorf("byzshield: Momentum %v outside [0,1)", cfg.Momentum)
	case cfg.Momentum == 0 && !cfg.NoMomentum:
		cfg.Momentum = DefaultMomentum
	}
	if cfg.Iterations < 0 {
		return cfg, fmt.Errorf("byzshield: Iterations %d < 0", cfg.Iterations)
	}
	if cfg.Iterations == 0 {
		cfg.Iterations = DefaultIterations
	}
	if cfg.EvalEvery < 0 {
		return cfg, fmt.Errorf("byzshield: EvalEvery %d < 0", cfg.EvalEvery)
	}
	if cfg.EvalEvery == 0 {
		cfg.EvalEvery = DefaultEvalEvery
	}
	if cfg.SearchBudget < 0 {
		return cfg, fmt.Errorf("byzshield: SearchBudget %v < 0", cfg.SearchBudget)
	}
	if cfg.SearchBudget == 0 {
		cfg.SearchBudget = DefaultSearchBudget
	}
	if cfg.Parallelism < 0 {
		return cfg, fmt.Errorf("byzshield: Parallelism %d < 0", cfg.Parallelism)
	}
	if cfg.Attack == nil {
		cfg.Attack = NoAttack()
	}
	if cfg.Aggregator == nil {
		cfg.Aggregator = Median()
	}
	if cfg.Detector == nil {
		cfg.Detector = NoDetector()
	}
	return cfg, nil
}

// SyntheticDataset generates the deterministic 10-class synthetic
// classification dataset used throughout the experiments (the CIFAR-10
// stand-in; see DESIGN.md) with the default class separation.
func SyntheticDataset(train, test, dim, classes int, seed int64) (*Dataset, *Dataset, error) {
	return data.Synthetic(data.SyntheticConfig{
		Train: train, Test: test, Dim: dim, Classes: classes, Seed: seed,
	})
}

// DatasetConfig gives full control over the synthetic dataset
// (separation, noise, imbalance); see NewSyntheticDataset.
type DatasetConfig = data.SyntheticConfig

// NewSyntheticDataset generates train/test splits from a full config.
func NewSyntheticDataset(cfg DatasetConfig) (*Dataset, *Dataset, error) {
	return data.Synthetic(cfg)
}

// IIDDistribution is the homogeneous shuffle-and-deal control
// partition.
func IIDDistribution(seed int64) Distributor { return data.IID{Seed: seed} }

// DirichletDistribution draws each class's per-pool proportions from a
// symmetric Dirichlet(alpha) — the standard non-IID federated
// benchmark partition; alpha = 0 selects 0.5, smaller is more skewed.
func DirichletDistribution(alpha float64, seed int64) Distributor {
	return data.Dirichlet{Alpha: alpha, Seed: seed}
}

// LabelSkewDistribution orders samples by label, cuts them into
// pools×shards contiguous shards, and deals shards shards to each pool
// (shards = 0 selects 2): each pool sees at most shards distinct
// labels.
func LabelSkewDistribution(shards int, seed int64) Distributor {
	return data.LabelSkew{Shards: shards, Seed: seed}
}

// NewSoftmaxModel constructs multinomial logistic regression.
func NewSoftmaxModel(dim, classes int) (Model, error) { return model.NewSoftmax(dim, classes) }

// NewMLPModel constructs a ReLU MLP with the given layer widths
// (input, hidden..., classes).
func NewMLPModel(dims ...int) (Model, error) { return model.NewMLP(dims...) }

// NewConvNetModel constructs a small 1-D convolutional classifier
// (kernel-width convolution, numFilters filters, ReLU, dense softmax) —
// the convolutional analogue of the paper's ResNet-18 workload.
func NewConvNetModel(dim, kernel, numFilters, classes int) (Model, error) {
	return model.NewConvNet(dim, kernel, numFilters, classes)
}

// EvaluateAccuracy returns the top-1 accuracy of a model/parameter pair.
// It panics when params or ds does not match the model's shape, as
// Model.Loss and Model.SumGradient do.
func EvaluateAccuracy(m Model, params []float64, ds *Dataset) float64 {
	return model.Accuracy(m, params, ds)
}
