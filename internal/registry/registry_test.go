package registry_test

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"byzshield/internal/aggregate"
	"byzshield/internal/assign"
	"byzshield/internal/attack"
	"byzshield/internal/registry"
	"byzshield/internal/transport"
)

// validParams returns per-scheme parameters every builtin scheme can
// construct with.
func validParams() map[string]registry.SchemeParams {
	return map[string]registry.SchemeParams{
		"mols":       {L: 5, R: 3},
		"ramanujan1": {L: 5, R: 3},
		"ramanujan2": {L: 5, R: 5},
		"frc":        {K: 15, R: 3},
		"baseline":   {K: 15},
		"random":     {K: 15, F: 25, R: 3, Seed: 7},
	}
}

// TestEveryRegisteredNameConstructs: the full catalog round-trip — every
// canonical scheme/aggregator/attack name must construct successfully.
func TestEveryRegisteredNameConstructs(t *testing.T) {
	r := registry.NewBuiltin()
	params := validParams()
	if len(r.Schemes()) != len(params) {
		t.Fatalf("schemes = %v, params table covers %d", r.Schemes(), len(params))
	}
	for _, name := range r.Schemes() {
		p, ok := params[name]
		if !ok {
			t.Errorf("no test params for scheme %q", name)
			continue
		}
		a, err := r.Scheme(name, p)
		if err != nil {
			t.Errorf("Scheme(%q): %v", name, err)
			continue
		}
		if err := a.Validate(); err != nil {
			t.Errorf("Scheme(%q): invalid assignment: %v", name, err)
		}
	}
	// Aggregator knobs chosen so Krum-family feasibility holds trivially
	// at construction time (construction never errors; Aggregate may).
	for _, name := range r.Aggregators() {
		agg, err := r.Aggregator(name, registry.AggregatorParams{C: 1, Trim: 1, Groups: 3, Near: 2, Threshold: 1})
		if err != nil {
			t.Errorf("Aggregator(%q): %v", name, err)
			continue
		}
		if agg.Name() == "" {
			t.Errorf("Aggregator(%q): empty Name()", name)
		}
	}
	for _, name := range r.Attacks() {
		atk, err := r.Attack(name, registry.AttackParams{C: 1, Z: 1, Scale: 1, Value: -1})
		if err != nil {
			t.Errorf("Attack(%q): %v", name, err)
			continue
		}
		if atk.Name() == "" {
			t.Errorf("Attack(%q): empty Name()", name)
		}
	}
}

// TestRegistryMatchesDirectConstructors: registry-built components must
// be identical values to the direct-constructor path.
func TestRegistryMatchesDirectConstructors(t *testing.T) {
	r := registry.NewBuiltin()

	direct := map[string]func() (*assign.Assignment, error){
		"mols":       func() (*assign.Assignment, error) { return assign.MOLS(5, 3) },
		"ramanujan1": func() (*assign.Assignment, error) { return assign.Ramanujan1(5, 3) },
		"ramanujan2": func() (*assign.Assignment, error) { return assign.Ramanujan2(5, 5) },
		"frc":        func() (*assign.Assignment, error) { return assign.FRC(15, 3) },
		"baseline":   func() (*assign.Assignment, error) { return assign.Baseline(15) },
		"random": func() (*assign.Assignment, error) {
			return assign.Random(15, 25, 3, rand.New(rand.NewSource(7)))
		},
	}
	params := validParams()
	for name, build := range direct {
		want, err := build()
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.Scheme(name, params[name])
		if err != nil {
			t.Fatalf("Scheme(%q): %v", name, err)
		}
		assertSameAssignment(t, name, got, want)
	}

	if agg, _ := r.Aggregator("median"); agg != (aggregate.Median{}) {
		t.Errorf("median = %#v", agg)
	}
	if agg, _ := r.Aggregator("multikrum", registry.AggregatorParams{C: 3, M: 2}); agg != (aggregate.MultiKrum{C: 3, M: 2}) {
		t.Errorf("multikrum = %#v", agg)
	}
	if atk, _ := r.Attack("alie"); atk != (attack.ALIE{}) {
		t.Errorf("alie = %#v", atk)
	}
	if atk, _ := r.Attack("reversed", registry.AttackParams{C: 10}); atk != (attack.Reversed{C: 10}) {
		t.Errorf("reversed = %#v", atk)
	}
	if atk, _ := r.Attack("constant"); atk != (attack.Constant{ScaleByFileSize: true}) {
		t.Errorf("constant = %#v", atk)
	}
}

// TestSpecReproducesAssignmentBitForBit: a transport.Spec carrying only
// registry names and numeric params must realize the exact worker–file
// placement of the in-process direct constructors — the property that
// lets TCP workers and the PS agree on the assignment without shipping
// the graph over the wire.
func TestSpecReproducesAssignmentBitForBit(t *testing.T) {
	cases := []struct {
		spec   transport.Spec
		direct func() (*assign.Assignment, error)
	}{
		{transport.Spec{Scheme: "mols", L: 5, R: 3},
			func() (*assign.Assignment, error) { return assign.MOLS(5, 3) }},
		{transport.Spec{Scheme: "ramanujan1", L: 5, R: 3},
			func() (*assign.Assignment, error) { return assign.Ramanujan1(5, 3) }},
		{transport.Spec{Scheme: "ramanujan2", L: 5, R: 5},
			func() (*assign.Assignment, error) { return assign.Ramanujan2(5, 5) }},
		{transport.Spec{Scheme: "frc", K: 15, R: 3},
			func() (*assign.Assignment, error) { return assign.FRC(15, 3) }},
		{transport.Spec{Scheme: "baseline", K: 25},
			func() (*assign.Assignment, error) { return assign.Baseline(25) }},
		{transport.Spec{Scheme: "random", K: 15, F: 25, R: 3, Seed: 7},
			func() (*assign.Assignment, error) { return assign.Random(15, 25, 3, rand.New(rand.NewSource(7))) }},
	}
	for _, c := range cases {
		want, err := c.direct()
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.spec.BuildAssignment()
		if err != nil {
			t.Fatalf("%s: %v", c.spec.Scheme, err)
		}
		assertSameAssignment(t, c.spec.Scheme, got, want)
	}
}

// assertSameAssignment compares two assignments structurally: scalar
// parameters plus the complete worker→file adjacency.
func assertSameAssignment(t *testing.T, name string, got, want *assign.Assignment) {
	t.Helper()
	if got.Scheme != want.Scheme || got.K != want.K || got.F != want.F ||
		got.L != want.L || got.R != want.R {
		t.Errorf("%s: params (%v %d %d %d %d) != (%v %d %d %d %d)", name,
			got.Scheme, got.K, got.F, got.L, got.R,
			want.Scheme, want.K, want.F, want.L, want.R)
		return
	}
	for u := 0; u < want.K; u++ {
		if !reflect.DeepEqual(got.WorkerFiles(u), want.WorkerFiles(u)) {
			t.Errorf("%s: worker %d files %v != %v", name, u, got.WorkerFiles(u), want.WorkerFiles(u))
		}
	}
	for v := 0; v < want.F; v++ {
		if !reflect.DeepEqual(got.FileWorkers(v), want.FileWorkers(v)) {
			t.Errorf("%s: file %d workers %v != %v", name, v, got.FileWorkers(v), want.FileWorkers(v))
		}
	}
}

// TestAliasesResolve: alias names resolve to the same constructor as
// their canonical name.
func TestAliasesResolve(t *testing.T) {
	r := registry.NewBuiltin()
	a1, err := r.Scheme("ram2", registry.SchemeParams{L: 5, R: 5})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := r.Scheme("ramanujan2", registry.SchemeParams{L: 5, R: 5})
	if err != nil {
		t.Fatal(err)
	}
	assertSameAssignment(t, "ram2", a1, a2)
	if agg, err := r.Aggregator("mom"); err != nil || agg != (aggregate.MedianOfMeans{Groups: 3}) {
		t.Errorf("mom alias: %v %#v", err, agg)
	}
	if atk, err := r.Attack("revgrad"); err != nil || atk != (attack.Reversed{}) {
		t.Errorf("revgrad alias: %v %#v", err, atk)
	}
	if atk, err := r.Attack("sign-flip"); err != nil || atk != (attack.Reversed{}) {
		t.Errorf("sign-flip alias: %v %#v", err, atk)
	}
	if slices.Contains(r.Attacks(), "sign-flip") {
		t.Error("sign-flip listed as a canonical attack; it is an alias of reversed")
	}
	if atk, err := r.Attack("none"); err != nil || atk != (attack.Benign{}) {
		t.Errorf("none alias: %v %#v", err, atk)
	}
}

// TestUnknownAndDuplicateNames: lookups fail loudly with the catalog in
// the message; duplicate registration is rejected.
func TestUnknownAndDuplicateNames(t *testing.T) {
	r := registry.NewBuiltin()
	if _, err := r.Scheme("nope"); err == nil {
		t.Error("unknown scheme accepted")
	}
	if _, err := r.Aggregator("nope"); err == nil {
		t.Error("unknown aggregator accepted")
	}
	if _, err := r.Attack("nope"); err == nil {
		t.Error("unknown attack accepted")
	}
	err := r.RegisterScheme(func(registry.SchemeParams) (*assign.Assignment, error) {
		return assign.Baseline(3)
	}, "mols")
	if err == nil {
		t.Error("duplicate scheme registration accepted")
	}
	// A fresh name extends the catalog.
	if err := r.RegisterScheme(func(p registry.SchemeParams) (*assign.Assignment, error) {
		return assign.Baseline(p.K)
	}, "custom-baseline"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Scheme("custom-baseline", registry.SchemeParams{K: 5}); err != nil {
		t.Error(err)
	}
}

// TestDefaultCatalogVisibleOnTheWire: a scheme registered on the shared
// Default catalog resolves through transport.Spec, the property the
// Spec documentation promises.
func TestDefaultCatalogVisibleOnTheWire(t *testing.T) {
	err := registry.Default.RegisterScheme(func(p registry.SchemeParams) (*assign.Assignment, error) {
		return assign.Baseline(p.K)
	}, "test-wire-scheme")
	if err != nil {
		t.Fatal(err)
	}
	spec := transport.Spec{Scheme: "test-wire-scheme", K: 7}
	a, err := spec.BuildAssignment()
	if err != nil {
		t.Fatal(err)
	}
	if a.K != 7 {
		t.Errorf("K = %d", a.K)
	}
}

// TestFaultCatalog: every registered fault model constructs by name,
// unknown names fail, and parameter validation is enforced.
func TestFaultCatalog(t *testing.T) {
	r := registry.NewBuiltin()
	want := []string{"crash", "delay", "flaky", "none", "straggler"}
	if got := r.Faults(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Faults() = %v, want %v", got, want)
	}
	params := registry.FaultParams{Workers: []int{1, 2}, Round: 5, P: 0.3, Delay: time.Second, Seed: 9}
	for _, name := range want {
		f, err := r.Fault(name, params)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		// Decisions must be deterministic.
		if d1, d2 := f.Plan(3, 1), f.Plan(3, 1); d1 != d2 {
			t.Errorf("%s: nondeterministic Plan", name)
		}
	}
	if _, err := r.Fault("nope"); err == nil {
		t.Error("unknown fault accepted")
	}
	if _, err := r.Fault("straggler"); err == nil {
		t.Error("straggler without Delay accepted")
	}
	if _, err := r.Fault("flaky", registry.FaultParams{P: 1.5}); err == nil {
		t.Error("flaky with P > 1 accepted")
	}
	if _, err := r.Fault("none", registry.FaultParams{}); err != nil {
		t.Errorf("none: %v", err)
	}
	// The alias resolves to the same model.
	if _, err := r.Fault("no-fault"); err != nil {
		t.Errorf("no-fault alias: %v", err)
	}
}
