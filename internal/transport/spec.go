package transport

import (
	"byzshield/internal/aggregate"
	"byzshield/internal/assign"
	"byzshield/internal/cluster"
	"byzshield/internal/data"
	"byzshield/internal/detect"
	"byzshield/internal/fault"
	"byzshield/internal/linalg"
	"byzshield/internal/model"
	"byzshield/internal/registry"
	"byzshield/internal/trainer"
)

// FaultSpec names one registry fault model with its parameters, so a
// Spec can compose heterogeneous per-worker faults on the wire (each
// model targets its own workers; see fault.Stack).
type FaultSpec struct {
	Name   string
	Params registry.FaultParams
}

// Spec is the one description of a run: every process of a fleet builds
// identical datasets, models, assignments and batch streams from it, and
// EngineConfigOf lowers it to the in-process engine that the fleet
// reproduces. Component names resolve through internal/registry, so any
// scheme registered there ("mols", "ramanujan1", "ramanujan2", "frc",
// "baseline", "random") is valid on the wire.
type Spec struct {
	// Scheme is the registry name of the assignment scheme.
	Scheme string
	// L and R parameterize the scheme (load and replication; see
	// registry.SchemeParams for the per-scheme field conventions).
	L, R int
	// K is the worker count (derived for mols/ramanujan1/2; explicit for
	// frc/baseline/random).
	K int
	// F is the file count (random scheme only; derived elsewhere).
	F int
	// Aggregator is the registry name of the PS aggregation rule
	// (default "median"); AggParams carries its knobs.
	Aggregator string
	AggParams  registry.AggregatorParams
	// Dataset parameters.
	TrainN, TestN, Dim, Classes int
	DataSeed                    int64
	ClassSep                    float64
	// Distribution names the registry data distribution every process
	// samples batches under ("" or "iid" = the IID reshuffling sampler);
	// DistParam is its knob (dirichlet alpha, label-skew shard count).
	Distribution string
	DistParam    float64
	// Hidden is the MLP hidden width; 0 selects softmax regression.
	Hidden int
	// Training parameters.
	BatchSize int
	Schedule  trainer.Schedule
	Momentum  float64
	Seed      int64
	Rounds    int
	// Quorum is the minimum surviving replicas a file needs to be voted
	// (0 = R/2 + 1, the majority of the nominal replication); see
	// cluster.ConfigOf.Quorum.
	Quorum int
	// Faults names the registry fault models the workers apply to
	// themselves (none = fault-free), each with the workers it targets,
	// so different workers can fail in different ways at once (worker 2
	// flaky AND worker 9 straggling); they stack via fault.Stack. Fault
	// decisions are deterministic in (round, worker), so the worker
	// processes and any observer evaluating the same Spec agree on the
	// injected schedule without coordination.
	Faults []FaultSpec
	// Detector names the registry detector the PS runs between
	// collection and aggregation ("" or "none" = detection off), under
	// the fixed policy of internal/detect. Part of the Spec so every
	// observer of the run agrees on the detection configuration.
	Detector string
}

// components is the shared catalog every Spec resolves names through;
// custom components registered on it (byzshield.Registry is the same
// object) are therefore valid on the wire.
var components = registry.Default

// Built is what every process of a run constructs from the Spec, each
// to the identical result. The aggregation and detection rules are not
// part of it: they are the parameter server's alone (a worker never
// resolves either name).
type Built struct {
	Assignment  *assign.Assignment
	Model       model.Model
	Train, Test *data.Dataset
	// Distribution is nil for the IID reshuffling sampler.
	Distribution data.Distributor
	Fault        fault.Fault
}

// Build constructs the spec's shared components, cheapest first so a
// bad name fails before the datasets are generated. "" and "iid" both
// resolve to no distributor: the registry's iid distributor deals fixed
// per-file pools, a different stream from the reshuffling sampler.
func (s *Spec) Build() (*Built, error) {
	var b Built
	var err error
	if b.Fault, err = s.BuildFault(); err != nil {
		return nil, err
	}
	if s.Distribution != "" && s.Distribution != "iid" {
		if b.Distribution, err = components.Distribution(s.Distribution, registry.DistributionParams{
			Alpha: s.DistParam, Shards: int(s.DistParam), Seed: s.DataSeed,
		}); err != nil {
			return nil, err
		}
	}
	if b.Assignment, err = s.BuildAssignment(); err != nil {
		return nil, err
	}
	if b.Model, err = s.BuildModel(); err != nil {
		return nil, err
	}
	if b.Train, b.Test, err = s.BuildData(); err != nil {
		return nil, err
	}
	return &b, nil
}

// EngineConfigOf lowers the spec to the width-T engine it describes: the
// one place a run's names become a cluster.ConfigOf. The engine it
// configures is the in-process twin of a fleet serving the same Spec,
// the workers' faults included; callers add what a Spec does not say
// (an in-process adversary, an uplink tier, a pool width, a source).
func EngineConfigOf[T linalg.Float](s *Spec) (cluster.ConfigOf[T], error) {
	agg, err := s.BuildAggregator()
	if err != nil {
		return cluster.ConfigOf[T]{}, err
	}
	det, err := s.BuildDetector()
	if err != nil {
		return cluster.ConfigOf[T]{}, err
	}
	b, err := s.Build()
	if err != nil {
		return cluster.ConfigOf[T]{}, err
	}
	return cluster.ConfigOf[T]{
		Assignment: b.Assignment, Model: b.Model, Train: b.Train, Test: b.Test,
		BatchSize: s.BatchSize, Distribution: b.Distribution,
		Aggregator: agg, Schedule: s.Schedule, Momentum: s.Momentum, Seed: s.Seed,
		Quorum: s.Quorum, Detector: det,
		Fault: b.Fault,
	}, nil
}

// BuildAssignment constructs the assignment described by the spec via
// the component registry, guaranteeing that every process (and the
// in-process engine) realizes the identical placement.
func (s *Spec) BuildAssignment() (*assign.Assignment, error) {
	return components.Scheme(s.Scheme, registry.SchemeParams{
		L: s.L, R: s.R, K: s.K, F: s.F, Seed: s.Seed,
	})
}

// BuildAggregator constructs the aggregation rule named by the spec
// (coordinate-wise median when unset).
func (s *Spec) BuildAggregator() (aggregate.Aggregator, error) {
	name := s.Aggregator
	if name == "" {
		name = "median"
	}
	return components.Aggregator(name, s.AggParams)
}

// BuildModel constructs the model described by the spec.
func (s *Spec) BuildModel() (model.Model, error) {
	if s.Hidden > 0 {
		return model.NewMLP(s.Dim, s.Hidden, s.Classes)
	}
	return model.NewSoftmax(s.Dim, s.Classes)
}

// BuildData constructs the train/test datasets described by the spec.
func (s *Spec) BuildData() (train, test *data.Dataset, err error) {
	return data.Synthetic(data.SyntheticConfig{
		Train: s.TrainN, Test: s.TestN, Dim: s.Dim, Classes: s.Classes,
		Seed: s.DataSeed, ClassSep: s.ClassSep,
	})
}

// BuildDetector constructs the detection rule named by the spec
// (detect.None when unset).
func (s *Spec) BuildDetector() (detect.Detector, error) {
	name := s.Detector
	if name == "" {
		name = "none"
	}
	return components.Detector(name)
}

// BuildFault constructs the worker fault model named by the spec:
// fault-free when nothing is named, the model itself when one is, and a
// fault.Stack composing every Faults entry otherwise.
func (s *Spec) BuildFault() (fault.Fault, error) {
	var stack fault.Stack
	for _, fs := range s.Faults {
		f, err := components.Fault(fs.Name, fs.Params)
		if err != nil {
			return nil, err
		}
		stack = append(stack, f)
	}
	switch len(stack) {
	case 0:
		return fault.None{}, nil
	case 1:
		return stack[0], nil
	default:
		return stack, nil
	}
}
