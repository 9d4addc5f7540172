package cluster

import (
	"context"
	"errors"
	"math"
	"testing"

	"byzshield/internal/aggregate"
	"byzshield/internal/assign"
	"byzshield/internal/data"
	"byzshield/internal/linalg"
	"byzshield/internal/model"
	"byzshield/internal/trainer"
	"byzshield/internal/wire"
)

// equalBits32 is the protocol's one bit-equality at float32.
var equalBits32 = linalg.EqualBits[float32]

// testSetup32 builds the f32 counterpart of testSetup: MOLS(5,3),
// softmax on the same separable synthetic dataset.
func testSetup32(t testing.TB) Config32 {
	t.Helper()
	a, err := assign.MOLS(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	train, test, err := data.Synthetic(data.SyntheticConfig{
		Train: 600, Test: 200, Dim: 12, Classes: 10, Seed: 17, ClassSep: 2.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.NewSoftmax(12, 10)
	if err != nil {
		t.Fatal(err)
	}
	return Config32{
		Assignment: a,
		Model:      m,
		Train:      train,
		Test:       test,
		BatchSize:  100,
		Aggregator: aggregate.Median{},
		Schedule:   trainer.Schedule{Base: 0.05, Decay: 0.96, Every: 25},
		Momentum:   0.9,
		Seed:       5,
	}
}

// run32 steps an engine for rounds and returns the final parameters.
func run32(t *testing.T, cfg Config32, rounds int) []float32 {
	t.Helper()
	e, err := New32(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i := 0; i < rounds; i++ {
		if _, err := e.StepOnce(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	return e.Params()
}

// TestEngine32SerialPooledIdentical pins the bit-identity discipline at
// float32: every pool width — the pooled engine cuts the aggregate into
// one chunk per pool goroutine — produces the serial engine's parameter
// bits.
func TestEngine32SerialPooledIdentical(t *testing.T) {
	base := testSetup32(t)
	base.Parallelism = 1
	serial := run32(t, base, 8)

	for _, par := range []int{2, 4} {
		cfg := testSetup32(t)
		cfg.Parallelism = par
		if got := run32(t, cfg, 8); !equalBits32(serial, got) {
			t.Errorf("parallelism %d: diverged from serial at f32", par)
		}
	}
}

// TestEngine32LossyTierMatchesWireQuant checks a lossy f32 run differs
// from the lossless run (the quantization is real) while remaining
// bit-deterministic across pool widths.
func TestEngine32LossyTierMatchesWireQuant(t *testing.T) {
	for _, tier := range []wire.UplinkTier{wire.TierSign, wire.TierInt8} {
		base := testSetup32(t)
		base.UplinkTier = tier
		base.Parallelism = 1
		serial := run32(t, base, 5)

		pooled := testSetup32(t)
		pooled.UplinkTier = tier
		pooled.Parallelism = 4
		if got := run32(t, pooled, 5); !equalBits32(serial, got) {
			t.Errorf("tier %s: pooled lossy run diverged from serial", tier)
		}

		lossless := testSetup32(t)
		lossless.Parallelism = 1
		if got := run32(t, lossless, 5); equalBits32(serial, got) {
			t.Errorf("tier %s: lossy run identical to lossless (quantization not applied)", tier)
		}
	}
}

// TestEngine32TracksF64 checks the two precision tiers of the same
// experiment stay numerically close over a short run and both train.
func TestEngine32TracksF64(t *testing.T) {
	cfg32 := testSetup32(t)
	cfg32.Parallelism = 2
	e32, err := New32(cfg32)
	if err != nil {
		t.Fatal(err)
	}
	defer e32.Close()

	cfg64 := testSetup(t, nil, nil, aggregate.Median{})
	cfg64.Parallelism = 2
	e64, err := New(cfg64)
	if err != nil {
		t.Fatal(err)
	}
	defer e64.Close()

	for i := 0; i < 10; i++ {
		if _, err := e32.StepOnce(context.Background()); err != nil {
			t.Fatal(err)
		}
		if _, err := e64.StepOnce(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	p32, p64 := e32.Params(), e64.Params()
	var scale float64
	for _, v := range p64 {
		if a := math.Abs(v); a > scale {
			scale = a
		}
	}
	for i := range p64 {
		if diff := math.Abs(p64[i] - float64(p32[i])); diff > 1e-3*(math.Abs(p64[i])+scale) {
			t.Fatalf("param %d: f64=%v f32=%v", i, p64[i], p32[i])
		}
	}
	if acc := e32.Evaluate(); acc < 0.5 {
		t.Errorf("f32 accuracy %v after 10 rounds on separable data", acc)
	}
}

// TestEngine32NonIID checks the Dirichlet distribution knob drives the
// f32 tier and stays deterministic.
func TestEngine32NonIID(t *testing.T) {
	cfg := testSetup32(t)
	cfg.Distribution = &data.Dirichlet{Alpha: 0.2, Seed: 9}
	a := run32(t, cfg, 4)
	cfg2 := testSetup32(t)
	cfg2.Distribution = &data.Dirichlet{Alpha: 0.2, Seed: 9}
	cfg2.Parallelism = 4
	if b := run32(t, cfg2, 4); !equalBits32(a, b) {
		t.Fatal("non-IID f32 run not deterministic across widths")
	}
	cfg3 := testSetup32(t)
	if c := run32(t, cfg3, 4); equalBits32(a, c) {
		t.Fatal("Dirichlet split did not change the sample stream")
	}
}

// TestEngine32Validation exercises the constructor's rejections.
func TestEngine32Validation(t *testing.T) {
	bad := testSetup32(t)
	bad.Aggregator = nil
	if _, err := New32(bad); err == nil {
		t.Error("nil aggregator accepted")
	}
	bad = testSetup32(t)
	bad.BatchSize = 10
	if _, err := New32(bad); err == nil {
		t.Error("batch < files accepted")
	}
	bad = testSetup32(t)
	bad.Quorum = 99
	if _, err := New32(bad); err == nil {
		t.Error("quorum > R accepted")
	}
	bad = testSetup32(t)
	bad.UplinkTier = wire.TierSign
	bad.Source = localSource[float32]{}
	if _, err := New32(bad); err == nil {
		t.Error("lossy tier with external source accepted")
	}
	// The one refusal the width makes: components with float64 methods
	// only, each by the same typed error.
	mlp, err := model.NewMLP(12, 8, 10)
	if err != nil {
		t.Fatal(err)
	}
	bad = testSetup32(t)
	bad.Model = mlp
	if _, err := New32(bad); !errors.Is(err, linalg.ErrNoFloat32Kernels) {
		t.Errorf("MLP at f32: %v, want ErrNoFloat32Kernels", err)
	}
	bad = testSetup32(t)
	bad.Aggregator = aggregate.Krum{C: 1}
	if _, err := New32(bad); !errors.Is(err, linalg.ErrNoFloat32Kernels) {
		t.Errorf("Krum at f32: %v, want ErrNoFloat32Kernels", err)
	}
}

// TestEngine32RunHistory drives Run end to end.
func TestEngine32RunHistory(t *testing.T) {
	cfg := testSetup32(t)
	e, err := New32(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	h, err := e.Run(context.Background(), 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Points) != 2 {
		t.Fatalf("want 2 eval points, got %d", len(h.Points))
	}
	if e.Iteration() != 6 {
		t.Fatalf("iteration %d after 6 rounds", e.Iteration())
	}
}
