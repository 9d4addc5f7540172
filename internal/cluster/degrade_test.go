package cluster

import (
	"math"
	"testing"

	"byzshield/internal/aggregate"
	"byzshield/internal/assign"
	"byzshield/internal/data"
	"byzshield/internal/fault"
	"byzshield/internal/model"
	"byzshield/internal/trainer"
)

// degradeConfig builds a baseline (r = 1) run where a mass crash pushes
// the live operand count below Krum's n ≥ 2c+3 floor mid-run.
func degradeConfig(t *testing.T, agg aggregate.Aggregator, flt fault.Fault) Config {
	t.Helper()
	a, err := assign.Baseline(9)
	if err != nil {
		t.Fatal(err)
	}
	train, test, err := data.Synthetic(data.SyntheticConfig{
		Train: 300, Test: 100, Dim: 6, Classes: 3, Seed: 5, ClassSep: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.NewSoftmax(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Assignment: a, Model: m, Train: train, Test: test,
		BatchSize:  90,
		Aggregator: agg,
		Schedule:   trainer.Schedule{Base: 0.05, Decay: 0.96, Every: 20},
		Momentum:   0.9, Seed: 11,
		Fault: flt,
	}
}

// TestAggregatorDegradesToMedianUnderShrinkage: Krum with c = 1 needs
// n ≥ 5 operands; crashing 5 of 9 baseline workers leaves 4 live files,
// so from the crash round on every round must fall back to
// coordinate-wise median (flagged in RoundStats) instead of erroring.
func TestAggregatorDegradesToMedianUnderShrinkage(t *testing.T) {
	flt := fault.Crash{Workers: []int{0, 1, 2, 3, 4}, AtRound: 2}
	e, err := New(degradeConfig(t, aggregate.Krum{C: 1}, flt))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for round := 0; round < 6; round++ {
		stats, err := e.RunRound()
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		wantDegraded := round >= 2
		if stats.AggregatorDegraded != wantDegraded {
			t.Errorf("round %d: AggregatorDegraded = %v, want %v", round, stats.AggregatorDegraded, wantDegraded)
		}
		if wantDegraded && stats.DroppedFiles != 5 {
			t.Errorf("round %d: dropped %d files, want 5", round, stats.DroppedFiles)
		}
	}
}

// TestDegradedRoundMatchesMedian: a feasibility-degraded round must
// produce exactly the update a median engine produces — the fallback is
// the real median rule on the same survivors, not an approximation.
func TestDegradedRoundMatchesMedian(t *testing.T) {
	flt := fault.Crash{Workers: []int{0, 1, 2, 3, 4}, AtRound: 0}
	krumEng, err := New(degradeConfig(t, aggregate.Krum{C: 1}, flt))
	if err != nil {
		t.Fatal(err)
	}
	defer krumEng.Close()
	medEng, err := New(degradeConfig(t, aggregate.Median{}, flt))
	if err != nil {
		t.Fatal(err)
	}
	defer medEng.Close()
	for round := 0; round < 4; round++ {
		ks, err := krumEng.RunRound()
		if err != nil {
			t.Fatalf("krum round %d: %v", round, err)
		}
		if !ks.AggregatorDegraded {
			t.Fatalf("round %d: krum run not degraded", round)
		}
		if _, err := medEng.RunRound(); err != nil {
			t.Fatalf("median round %d: %v", round, err)
		}
	}
	kp, mp := krumEng.Params(), medEng.Params()
	for i := range kp {
		if math.Float64bits(kp[i]) != math.Float64bits(mp[i]) {
			t.Fatalf("param %d: degraded-krum %x, median %x", i, math.Float64bits(kp[i]), math.Float64bits(mp[i]))
		}
	}
}

// TestInfeasibleConfigStillErrors: the mid-run fallback must not paper
// over a configuration that was never feasible — Krum demanding more
// operands than the assignment has files errors on round 1 as before.
func TestInfeasibleConfigStillErrors(t *testing.T) {
	e, err := New(degradeConfig(t, aggregate.Krum{C: 4}, nil)) // needs n ≥ 11 > 9
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.RunRound(); err == nil {
		t.Fatal("never-feasible Krum config trained without error")
	}
}
