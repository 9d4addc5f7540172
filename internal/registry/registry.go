// Package registry is the named-component catalog of the system: it
// maps string names to constructors for the six pluggable component
// kinds — assignment schemes, aggregation rules, Byzantine attacks,
// worker fault models, PS-side Byzantine detectors, and data
// distributions — so that config files, wire specs
// (internal/transport.Spec), CLI flags, and experiment definitions all
// resolve components through one table instead of hand-rolled switch
// statements.
//
// A Registry is safe for concurrent use. NewBuiltin returns a registry
// pre-populated with every construction implemented in the repository;
// New returns an empty one for callers that want a restricted or
// extended catalog. Names are case-sensitive; each component may be
// registered under aliases (e.g. "reversed" / "reversed-gradient" /
// "revgrad") that resolve to the same constructor, while the listing
// methods report only canonical names.
package registry

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"byzshield/internal/aggregate"
	"byzshield/internal/assign"
	"byzshield/internal/attack"
	"byzshield/internal/data"
	"byzshield/internal/detect"
	"byzshield/internal/fault"
)

// SchemeParams carries the numeric knobs of the assignment scheme
// constructors. Each scheme documents which fields it reads:
//
//	mols        L (prime-power load), R (replication)     → MOLS(L, R)
//	ramanujan1  L (prime s), R (m < s)                    → Ramanujan1(L, R)
//	ramanujan2  R (prime s), L (m ≥ s, s | m)             → Ramanujan2(R, L)
//	frc         K (workers), R (group size)               → FRC(K, R)
//	baseline    K (workers)                               → Baseline(K)
//	random      K, F (files), R, Seed                     → Random(K, F, R, seed)
//
// The ramanujan2 (s, m) = (R, L) convention matches the rest of the
// repository: L is always the per-worker load and R the replication of
// the realized assignment.
type SchemeParams struct {
	L, R, K, F int
	Seed       int64
}

// AggregatorParams carries the knobs of the aggregation rules. Fields
// irrelevant to a rule are ignored:
//
//	trimmed-mean       Trim
//	median-of-means    Groups (default 3)
//	krum               C
//	multikrum          C, M
//	bulyan             C
//	mean-around-median Near
//	auror              Threshold
type AggregatorParams struct {
	C, M      int
	Trim      int
	Groups    int
	Near      int
	Threshold float64
}

// AttackParams carries the knobs of the attack generators. Fields
// irrelevant to an attack are ignored:
//
//	constant         Value (0 → −1), scaled by file size
//	reversed         C (0 → 1); "sign-flip" is its alias: at C = 1
//	                 negating every coordinate is the reversed gradient
//	alie             Z (0 → closed-form z_max)
//	random-gaussian  Scale (0 → 1)
type AttackParams struct {
	Value float64
	C     float64
	Z     float64
	Scale float64
}

// FaultParams carries the knobs of the worker fault models. Fields
// irrelevant to a model are ignored:
//
//	crash      Workers, Round (first dead round)
//	straggler  Workers, Delay (per-round)
//	delay      Workers, Round, Delay (one-shot)
//	flaky      Workers, P (drop probability), Seed
type FaultParams struct {
	Workers []int
	Round   int
	P       float64
	Delay   time.Duration
	Seed    int64
}

// DistributionParams carries the knobs of the data-distribution
// components. Fields irrelevant to a distribution are ignored:
//
//	dirichlet   Alpha (concentration, 0 → 0.5), Seed
//	label-skew  Shards (label-shards per pool, 0 → 2), Seed
//	iid         Seed
type DistributionParams struct {
	Alpha  float64
	Shards int
	Seed   int64
}

// SchemeCtor builds an assignment from params.
type SchemeCtor func(SchemeParams) (*assign.Assignment, error)

// AggregatorCtor builds an aggregation rule from params.
type AggregatorCtor func(AggregatorParams) (aggregate.Aggregator, error)

// AttackCtor builds an attack from params.
type AttackCtor func(AttackParams) (attack.Attack, error)

// FaultCtor builds a fault model from params.
type FaultCtor func(FaultParams) (fault.Fault, error)

// DetectorCtor builds a Byzantine detector. Detectors take no
// parameters: every one runs under the fixed policy of internal/detect.
type DetectorCtor func() (detect.Detector, error)

// DistributionCtor builds a data distribution from params.
type DistributionCtor func(DistributionParams) (data.Distributor, error)

// entry is one registered constructor with its canonical name.
type entry[C any] struct {
	canonical string
	ctor      C
}

// Registry maps component names to constructors.
type Registry struct {
	mu            sync.RWMutex
	schemes       map[string]entry[SchemeCtor]
	aggregators   map[string]entry[AggregatorCtor]
	attacks       map[string]entry[AttackCtor]
	faults        map[string]entry[FaultCtor]
	detectors     map[string]entry[DetectorCtor]
	distributions map[string]entry[DistributionCtor]
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		schemes:       make(map[string]entry[SchemeCtor]),
		aggregators:   make(map[string]entry[AggregatorCtor]),
		attacks:       make(map[string]entry[AttackCtor]),
		faults:        make(map[string]entry[FaultCtor]),
		detectors:     make(map[string]entry[DetectorCtor]),
		distributions: make(map[string]entry[DistributionCtor]),
	}
}

// register adds a constructor under its canonical name plus aliases.
func register[C any](m map[string]entry[C], ctor C, canonical string, aliases ...string) error {
	names := append([]string{canonical}, aliases...)
	for _, n := range names {
		if n == "" {
			return fmt.Errorf("registry: empty component name")
		}
		if _, dup := m[n]; dup {
			return fmt.Errorf("registry: %q already registered", n)
		}
	}
	for _, n := range names {
		m[n] = entry[C]{canonical: canonical, ctor: ctor}
	}
	return nil
}

// lookup resolves a name (canonical or alias).
func lookup[C any](m map[string]entry[C], kind, name string) (C, error) {
	e, ok := m[name]
	if !ok {
		var zero C
		return zero, fmt.Errorf("registry: unknown %s %q (have %s)", kind, name,
			strings.Join(canonicalNames(m), ", "))
	}
	return e.ctor, nil
}

// canonicalNames returns the sorted canonical names of a component map.
func canonicalNames[C any](m map[string]entry[C]) []string {
	seen := make(map[string]bool, len(m))
	var out []string
	for _, e := range m {
		if !seen[e.canonical] {
			seen[e.canonical] = true
			out = append(out, e.canonical)
		}
	}
	sort.Strings(out)
	return out
}

// RegisterScheme adds an assignment-scheme constructor. It fails on
// duplicate names so accidental shadowing of a builtin is loud.
func (r *Registry) RegisterScheme(ctor SchemeCtor, canonical string, aliases ...string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return register(r.schemes, ctor, canonical, aliases...)
}

// RegisterAggregator adds an aggregation-rule constructor.
func (r *Registry) RegisterAggregator(ctor AggregatorCtor, canonical string, aliases ...string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return register(r.aggregators, ctor, canonical, aliases...)
}

// RegisterAttack adds an attack constructor.
func (r *Registry) RegisterAttack(ctor AttackCtor, canonical string, aliases ...string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return register(r.attacks, ctor, canonical, aliases...)
}

// RegisterFault adds a fault-model constructor.
func (r *Registry) RegisterFault(ctor FaultCtor, canonical string, aliases ...string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return register(r.faults, ctor, canonical, aliases...)
}

// RegisterDetector adds a Byzantine-detector constructor.
func (r *Registry) RegisterDetector(ctor DetectorCtor, canonical string, aliases ...string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return register(r.detectors, ctor, canonical, aliases...)
}

// Scheme builds the named assignment scheme. Params may be omitted for
// schemes whose constructor needs none.
func (r *Registry) Scheme(name string, params ...SchemeParams) (*assign.Assignment, error) {
	r.mu.RLock()
	ctor, err := lookup(r.schemes, "scheme", name)
	r.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	return ctor(first(params))
}

// Aggregator builds the named aggregation rule.
func (r *Registry) Aggregator(name string, params ...AggregatorParams) (aggregate.Aggregator, error) {
	r.mu.RLock()
	ctor, err := lookup(r.aggregators, "aggregator", name)
	r.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	return ctor(first(params))
}

// Attack builds the named attack.
func (r *Registry) Attack(name string, params ...AttackParams) (attack.Attack, error) {
	r.mu.RLock()
	ctor, err := lookup(r.attacks, "attack", name)
	r.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	return ctor(first(params))
}

// Fault builds the named fault model.
func (r *Registry) Fault(name string, params ...FaultParams) (fault.Fault, error) {
	r.mu.RLock()
	ctor, err := lookup(r.faults, "fault", name)
	r.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	return ctor(first(params))
}

// RegisterDistribution adds a data-distribution constructor.
func (r *Registry) RegisterDistribution(ctor DistributionCtor, canonical string, aliases ...string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return register(r.distributions, ctor, canonical, aliases...)
}

// Detector builds the named Byzantine detector.
func (r *Registry) Detector(name string) (detect.Detector, error) {
	r.mu.RLock()
	ctor, err := lookup(r.detectors, "detector", name)
	r.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	return ctor()
}

// Distribution builds the named data distribution.
func (r *Registry) Distribution(name string, params ...DistributionParams) (data.Distributor, error) {
	r.mu.RLock()
	ctor, err := lookup(r.distributions, "distribution", name)
	r.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	return ctor(first(params))
}

// Schemes lists the canonical scheme names, sorted.
func (r *Registry) Schemes() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return canonicalNames(r.schemes)
}

// Aggregators lists the canonical aggregator names, sorted.
func (r *Registry) Aggregators() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return canonicalNames(r.aggregators)
}

// Attacks lists the canonical attack names, sorted.
func (r *Registry) Attacks() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return canonicalNames(r.attacks)
}

// Faults lists the canonical fault-model names, sorted.
func (r *Registry) Faults() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return canonicalNames(r.faults)
}

// Detectors lists the canonical detector names, sorted.
func (r *Registry) Detectors() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return canonicalNames(r.detectors)
}

// Distributions lists the canonical data-distribution names, sorted.
func (r *Registry) Distributions() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return canonicalNames(r.distributions)
}

// first returns the only params value, or the zero value when omitted.
func first[P any](ps []P) P {
	if len(ps) > 0 {
		return ps[0]
	}
	var zero P
	return zero
}

// NewBuiltin returns a registry pre-populated with every scheme,
// aggregator, attack, fault model, and detector implemented in the
// repository.
func NewBuiltin() *Registry {
	r := New()
	mustRegisterBuiltins(r)
	return r
}

// Default is the shared process-wide catalog. The public
// byzshield.Registry aliases it, and the transport and experiments
// layers resolve names through it, so components registered on any of
// those handles are visible to all of them (a custom scheme registered
// by an application is valid on the wire Spec).
var Default = NewBuiltin()

// mustRegisterBuiltins installs the full catalog; registration can only
// fail on name collisions, which is a programming error here.
func mustRegisterBuiltins(r *Registry) {
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}

	// Assignment schemes.
	must(r.RegisterScheme(func(p SchemeParams) (*assign.Assignment, error) {
		return assign.MOLS(p.L, p.R)
	}, "mols"))
	must(r.RegisterScheme(func(p SchemeParams) (*assign.Assignment, error) {
		return assign.Ramanujan1(p.L, p.R)
	}, "ramanujan1", "ram1"))
	must(r.RegisterScheme(func(p SchemeParams) (*assign.Assignment, error) {
		return assign.Ramanujan2(p.R, p.L) // (s, m) = (R, L)
	}, "ramanujan2", "ram2"))
	must(r.RegisterScheme(func(p SchemeParams) (*assign.Assignment, error) {
		return assign.FRC(p.K, p.R)
	}, "frc"))
	must(r.RegisterScheme(func(p SchemeParams) (*assign.Assignment, error) {
		return assign.Baseline(p.K)
	}, "baseline"))
	must(r.RegisterScheme(func(p SchemeParams) (*assign.Assignment, error) {
		return assign.Random(p.K, p.F, p.R, rand.New(rand.NewSource(p.Seed)))
	}, "random"))

	// Aggregation rules.
	must(r.RegisterAggregator(func(AggregatorParams) (aggregate.Aggregator, error) {
		return aggregate.Median{}, nil
	}, "median"))
	must(r.RegisterAggregator(func(AggregatorParams) (aggregate.Aggregator, error) {
		return aggregate.Mean{}, nil
	}, "mean"))
	must(r.RegisterAggregator(func(p AggregatorParams) (aggregate.Aggregator, error) {
		return aggregate.TrimmedMean{Trim: p.Trim}, nil
	}, "trimmed-mean"))
	must(r.RegisterAggregator(func(p AggregatorParams) (aggregate.Aggregator, error) {
		g := p.Groups
		if g == 0 {
			g = 3
		}
		return aggregate.MedianOfMeans{Groups: g}, nil
	}, "median-of-means", "mom"))
	must(r.RegisterAggregator(func(p AggregatorParams) (aggregate.Aggregator, error) {
		return aggregate.Krum{C: p.C}, nil
	}, "krum"))
	must(r.RegisterAggregator(func(p AggregatorParams) (aggregate.Aggregator, error) {
		return aggregate.MultiKrum{C: p.C, M: p.M}, nil
	}, "multikrum", "multi-krum"))
	must(r.RegisterAggregator(func(p AggregatorParams) (aggregate.Aggregator, error) {
		return aggregate.Bulyan{C: p.C}, nil
	}, "bulyan"))
	must(r.RegisterAggregator(func(AggregatorParams) (aggregate.Aggregator, error) {
		return aggregate.SignSGD{}, nil
	}, "signsgd"))
	must(r.RegisterAggregator(func(AggregatorParams) (aggregate.Aggregator, error) {
		return aggregate.GeometricMedian{}, nil
	}, "geometric-median"))
	must(r.RegisterAggregator(func(p AggregatorParams) (aggregate.Aggregator, error) {
		return aggregate.MeanAroundMedian{Near: p.Near}, nil
	}, "mean-around-median"))
	must(r.RegisterAggregator(func(p AggregatorParams) (aggregate.Aggregator, error) {
		return aggregate.Auror{Threshold: p.Threshold}, nil
	}, "auror"))

	// Attacks.
	must(r.RegisterAttack(func(AttackParams) (attack.Attack, error) {
		return attack.Benign{}, nil
	}, "benign", "none"))
	must(r.RegisterAttack(func(p AttackParams) (attack.Attack, error) {
		return attack.ALIE{ZOverride: p.Z}, nil
	}, "alie"))
	must(r.RegisterAttack(func(p AttackParams) (attack.Attack, error) {
		return attack.Constant{Value: p.Value, ScaleByFileSize: true}, nil
	}, "constant"))
	must(r.RegisterAttack(func(p AttackParams) (attack.Attack, error) {
		return attack.Reversed{C: p.C}, nil
	}, "reversed", "reversed-gradient", "revgrad", "sign-flip"))
	must(r.RegisterAttack(func(p AttackParams) (attack.Attack, error) {
		return attack.RandomGaussian{Scale: p.Scale}, nil
	}, "random-gaussian"))

	// Fault models.
	must(r.RegisterFault(func(FaultParams) (fault.Fault, error) {
		return fault.None{}, nil
	}, "none", "no-fault"))
	must(r.RegisterFault(func(p FaultParams) (fault.Fault, error) {
		return fault.Crash{Workers: p.Workers, AtRound: p.Round}, nil
	}, "crash"))
	must(r.RegisterFault(func(p FaultParams) (fault.Fault, error) {
		if p.Delay <= 0 {
			return nil, fmt.Errorf("registry: straggler fault needs Delay > 0 (got %v)", p.Delay)
		}
		return fault.Straggler{Workers: p.Workers, Delay: p.Delay}, nil
	}, "straggler"))
	must(r.RegisterFault(func(p FaultParams) (fault.Fault, error) {
		if p.Delay <= 0 {
			return nil, fmt.Errorf("registry: delay fault needs Delay > 0 (got %v)", p.Delay)
		}
		return fault.Delay{Workers: p.Workers, Round: p.Round, Delay: p.Delay}, nil
	}, "delay"))
	must(r.RegisterFault(func(p FaultParams) (fault.Fault, error) {
		if p.P < 0 || p.P > 1 {
			return nil, fmt.Errorf("registry: flaky fault probability %v outside [0,1]", p.P)
		}
		return fault.Flaky{Workers: p.Workers, P: p.P, Seed: p.Seed}, nil
	}, "flaky"))

	// Data distributions.
	must(r.RegisterDistribution(func(p DistributionParams) (data.Distributor, error) {
		return data.IID{Seed: p.Seed}, nil
	}, "iid"))
	must(r.RegisterDistribution(func(p DistributionParams) (data.Distributor, error) {
		if p.Alpha < 0 {
			return nil, fmt.Errorf("registry: dirichlet alpha %v < 0", p.Alpha)
		}
		return data.Dirichlet{Alpha: p.Alpha, Seed: p.Seed}, nil
	}, "dirichlet", "dirichlet-niid"))
	must(r.RegisterDistribution(func(p DistributionParams) (data.Distributor, error) {
		if p.Shards < 0 {
			return nil, fmt.Errorf("registry: label-skew shards %d < 0", p.Shards)
		}
		return data.LabelSkew{Shards: p.Shards, Seed: p.Seed}, nil
	}, "label-skew", "labelskew", "shard"))

	// Byzantine detectors.
	must(r.RegisterDetector(func() (detect.Detector, error) {
		return detect.None{}, nil
	}, "none", "no-detector"))
	must(r.RegisterDetector(func() (detect.Detector, error) {
		return detect.ZScore{}, nil
	}, "zscore", "z-score"))
	must(r.RegisterDetector(func() (detect.Detector, error) {
		return detect.KMeans{}, nil
	}, "cluster", "kmeans"))
}
