package cluster

import (
	"math"
	"testing"

	"byzshield/internal/attack"
	"byzshield/internal/fault"
	"byzshield/internal/registry"
)

// TestShardedEngineBitIdentical pins the sharded aggregation plane's
// core contract: for every registry aggregator, engines running with
// 2, 7 and 64 shards produce parameter trajectories bit-identical to
// the unsharded engine, under an active attack (distinct replicas per
// file, exercising the mask fast path) and a flaky fault model
// (degraded votes, exercising the serial fallback).
func TestShardedEngineBitIdentical(t *testing.T) {
	reg := registry.Default
	for _, name := range reg.Aggregators() {
		t.Run(name, func(t *testing.T) {
			run := func(shards int) []float64 {
				agg, err := reg.Aggregator(name, aggParams[name])
				if err != nil {
					t.Fatal(err)
				}
				cfg := testSetup(t, []int{2, 7, 11}, attack.ALIE{}, agg)
				cfg.Fault = fault.Flaky{Workers: []int{0, 5}, P: 0.4, Seed: 23}
				cfg.Shards = shards
				e, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				for i := 0; i < 15; i++ {
					if _, err := e.RunRound(); err != nil {
						t.Fatalf("round %d (shards %d): %v", i, shards, err)
					}
				}
				return e.Params()
			}
			serial := run(0)
			for _, shards := range []int{2, 7, 64} {
				sharded := run(shards)
				for i := range serial {
					if math.Float64bits(serial[i]) != math.Float64bits(sharded[i]) {
						t.Fatalf("shards %d: param %d diverged: serial %v, sharded %v",
							shards, i, serial[i], sharded[i])
					}
				}
			}
		})
	}
}

// TestShardConfigValidation covers the plane's configuration rules.
func TestShardConfigValidation(t *testing.T) {
	cfg := testSetup(t, nil, attack.Benign{}, mustAggregator(t, "median"))
	cfg.Shards = -1
	if _, err := New(cfg); err == nil {
		t.Fatal("negative shard count accepted")
	}
	// A shard count exceeding the model dimension clamps rather than
	// failing: every shard must own at least one coordinate.
	cfg = testSetup(t, nil, attack.Benign{}, mustAggregator(t, "median"))
	cfg.Shards = 1 << 20
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if got, want := e.plane.n, cfg.Model.NumParams(); got != want {
		t.Fatalf("shard count %d, want clamp to dim %d", got, want)
	}
	if _, err := e.RunRound(); err != nil {
		t.Fatal(err)
	}
}
