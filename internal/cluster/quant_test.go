package cluster

import (
	"context"
	"math"
	"testing"

	"byzshield/internal/aggregate"
	"byzshield/internal/attack"
	"byzshield/internal/distort"
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

// TestUplinkTierValidation pins the config seams: an undefined tier is
// rejected, and the lossy tiers are mutually exclusive with the
// signSGD pipeline (sign compression of already-quantized values would
// silently discard the tier's scale information).
func TestUplinkTierValidation(t *testing.T) {
	cfg := testSetup(t, nil, attack.Benign{}, aggregate.Median{})
	bad := cfg
	bad.UplinkTier = wire.UplinkTier(9)
	if _, err := New(bad); err == nil {
		t.Error("undefined uplink tier accepted")
	}
	bad = cfg
	bad.UplinkTier = wire.TierInt8
	bad.SignMessages = true
	if _, err := New(bad); err == nil {
		t.Error("lossy uplink tier + SignMessages accepted")
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

// TestLossyUplinkMeasureCommBitIdentical: the measured-communication
// path physically round-trips every report through the wire codec, so
// for a lossy tier it must reproduce the in-place quantization of the
// unmeasured engine bit for bit.
func TestLossyUplinkMeasureCommBitIdentical(t *testing.T) {
	const rounds = 6
	byz := []int{2, 7}
	for _, tier := range []wire.UplinkTier{wire.TierSign, wire.TierInt8} {
		cfg := testSetup(t, byz, attack.ALIE{}, aggregate.Median{})
		cfg.UplinkTier = tier
		plain := runParams(t, cfg, rounds)
		cfg.MeasureComm = true
		measured := runParams(t, cfg, rounds)
		if !paramsEqual(plain, measured) {
			t.Errorf("tier %s: measured-communication trajectory diverged from the in-place quantization", tier)
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
