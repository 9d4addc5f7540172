package byzshield

import "byzshield/internal/registry"

// ComponentRegistry maps string names to constructors for the six
// pluggable component kinds: assignment schemes, aggregation rules,
// Byzantine attacks, worker fault models, PS-side Byzantine detectors,
// and data distributions. It is safe for concurrent
// use and extensible via the Register* methods; see internal/registry
// for the name catalog and per-scheme parameter conventions.
type ComponentRegistry = registry.Registry

// SchemeParams parameterizes assignment-scheme construction: L (load),
// R (replication), K (workers), F (files, random scheme only), Seed.
type SchemeParams = registry.SchemeParams

// AggregatorParams parameterizes aggregation rules (C/M for the Krum
// family, Trim, Groups, Near, Threshold).
type AggregatorParams = registry.AggregatorParams

// AttackParams parameterizes attacks (Value, C, Z, Scale).
type AttackParams = registry.AttackParams

// FaultParams parameterizes worker fault models (Workers, Round, P,
// Delay, Seed).
type FaultParams = registry.FaultParams

// DistributionParams parameterizes the data-distribution components
// (Alpha for "dirichlet", Shards for "label-skew", Seed).
type DistributionParams = registry.DistributionParams

// Registry is the default component catalog, pre-populated with every
// scheme ("mols", "ramanujan1", "ramanujan2", "frc", "baseline",
// "random"), aggregator ("median", "mean", "trimmed-mean",
// "median-of-means", "krum", "multikrum", "bulyan", "signsgd",
// "geometric-median", "mean-around-median", "auror"), attack
// ("benign", "alie", "constant", "reversed" — alias "sign-flip" —,
// "random-gaussian"), fault model ("none", "crash", "straggler", "delay",
// "flaky"), Byzantine detector ("none", "zscore", "cluster"), and data
// distribution ("iid", "dirichlet", "label-skew") implemented in the
// repository:
//
//	asn, err := byzshield.Registry.Scheme("mols", byzshield.SchemeParams{L: 5, R: 3})
//	agg, err := byzshield.Registry.Aggregator("median")
//	atk, err := byzshield.Registry.Attack("alie")
//	flt, err := byzshield.Registry.Fault("crash", byzshield.FaultParams{Workers: []int{2}, Round: 50})
//	det, err := byzshield.Registry.Detector("zscore")
//
// A detector takes no parameters: every detector runs under the one
// fixed reputation policy of internal/detect.
//
// Registry-built components are identical values to the ones returned
// by the direct constructors (NewMOLS, Median, ALIE, ...), so the two
// paths are interchangeable. Registry is the process-wide shared
// catalog: components registered on it are also visible to the wire
// transport (transport.Spec names) and the experiments layer. Programs
// that want isolation instead should use a private catalog from
// NewRegistry.
var Registry = registry.Default

// NewRegistry returns a fresh registry pre-populated with the builtin
// catalog, independent of the package-level Registry.
func NewRegistry() *ComponentRegistry { return registry.NewBuiltin() }
