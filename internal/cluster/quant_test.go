package cluster

import (
	"context"
	"math"
	"testing"

	"byzshield/internal/aggregate"
	"byzshield/internal/attack"
	"byzshield/internal/distort"
	"byzshield/internal/registry"
	"byzshield/internal/wire"
)

// runParams runs cfg for the given number of rounds and returns a copy
// of the final parameters.
func runParams(t *testing.T, cfg Config, rounds int) []float64 {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i := 0; i < rounds; i++ {
		if _, err := e.RunRound(); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
	}
	out := make([]float64, len(e.Params()))
	copy(out, e.Params())
	return out
}

func paramsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestUplinkTierValidation pins the config seam: an undefined tier is
// rejected.
func TestUplinkTierValidation(t *testing.T) {
	cfg := testSetup(t, nil, attack.Benign{}, aggregate.Median{})
	cfg.UplinkTier = wire.UplinkTier(9)
	if _, err := New(cfg); err == nil {
		t.Error("undefined uplink tier accepted")
	}
}

// TestLossyUplinkDeterministicAndLossy: a lossy-tier run is exactly
// reproducible (two identical runs land on the same bits — the
// quantizer has no entropy source), and the lossy tiers actually move
// the trajectory off the raw tier's lossless bits.
func TestLossyUplinkDeterministicAndLossy(t *testing.T) {
	const rounds = 8
	cfg := testSetup(t, nil, attack.Benign{}, aggregate.Median{})
	base := runParams(t, cfg, rounds)

	for _, tier := range []wire.UplinkTier{wire.TierSign, wire.TierInt8} {
		c := cfg
		c.UplinkTier = tier
		p1 := runParams(t, c, rounds)
		p2 := runParams(t, c, rounds)
		if !paramsEqual(p1, p2) {
			t.Errorf("tier %s: two identical runs diverged", tier)
		}
		if paramsEqual(p1, base) {
			t.Errorf("tier %s landed on the lossless bits — quantization never ran", tier)
		}
	}
}

// TestLossyUplinkConvergenceParity runs the attack × aggregator matrix
// on both lossy tiers and requires convergence parity with the
// lossless baseline: the quantized run's final accuracy must stay
// within a fixed tolerance of the raw-tier run under the same attack
// and defense. This is the acceptance gate for shipping the lossy
// tiers — they trade gradient precision for uplink bytes, not
// robustness.
func TestLossyUplinkConvergenceParity(t *testing.T) {
	const (
		rounds = 50
		tol    = 0.10
	)
	an := distort.NewAnalyzer(mustMOLS(t))
	byz := an.WorstCaseByzantines(context.Background(), 3)
	attacks := []struct {
		name string
		byz  []int
		atk  attack.Attack
	}{
		{"benign", nil, attack.Benign{}},
		{"reversed", byz, attack.Reversed{C: 10}},
		{"alie", byz, attack.ALIE{}},
	}
	aggs := []struct {
		name string
		agg  aggregate.Aggregator
	}{
		{"median", aggregate.Median{}},
		{"multikrum", aggregate.MultiKrum{C: 8}},
	}
	run := func(atk attack.Attack, byz []int, agg aggregate.Aggregator, tier wire.UplinkTier) float64 {
		cfg := testSetup(t, byz, atk, agg)
		cfg.UplinkTier = tier
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		h, err := e.Run(context.Background(), rounds, rounds)
		if err != nil {
			t.Fatal(err)
		}
		return h.FinalAccuracy()
	}
	for _, av := range attacks {
		for _, gv := range aggs {
			base := run(av.atk, av.byz, gv.agg, wire.TierRaw)
			for _, tier := range []wire.UplinkTier{wire.TierSign, wire.TierInt8} {
				acc := run(av.atk, av.byz, gv.agg, tier)
				t.Logf("%s/%s: %s acc %.3f vs lossless %.3f", av.name, gv.name, tier, acc, base)
				if acc < base-tol {
					t.Errorf("%s/%s: tier %s accuracy %.3f vs lossless %.3f — outside parity tolerance %.2f",
						av.name, gv.name, tier, acc, base, tol)
				}
			}
		}
	}
}

// TestDistortedFilesBoundedAtEveryTier is the in-process half of the
// paper's bound (Eq. 3): under every registry attack, on every uplink
// tier and at either width, a full-participation round's vote loses
// exactly the c_max files the static analysis says the worst-case q = 3
// coalition controls — never more — and none under a benign coalition.
func TestDistortedFilesBoundedAtEveryTier(t *testing.T) {
	const rounds = 3
	an := distort.NewAnalyzer(mustMOLS(t))
	byz := an.WorstCaseByzantines(context.Background(), 3)
	cmax := len(an.DistortedFiles(byz))
	// "sign-flip" is an alias of reversed, not a canonical name; old
	// command lines still name it, so it keeps its own cells.
	for _, name := range append(registry.Default.Attacks(), "sign-flip") {
		atk, err := registry.Default.Attack(name)
		if err != nil {
			t.Fatal(err)
		}
		want := cmax
		if name == "benign" {
			want = 0
		}
		for _, tier := range []wire.UplinkTier{wire.TierRaw, wire.TierSign, wire.TierInt8} {
			t.Run(name+"/"+tier.String()+"/f64", func(t *testing.T) {
				cfg := testSetup(t, byz, atk, aggregate.Median{})
				cfg.UplinkTier = tier
				expectDistorted(t, cfg, rounds, want)
			})
			t.Run(name+"/"+tier.String()+"/f32", func(t *testing.T) {
				cfg := testSetupOf[float32](t, byz, atk, aggregate.Median{})
				cfg.UplinkTier = tier
				expectDistorted(t, cfg, rounds, want)
			})
		}
	}
}
