package cluster

import (
	"math"
	"testing"

	"byzshield/internal/aggregate"
	"byzshield/internal/attack"
	"byzshield/internal/registry"
)

// aggParams gives every registry aggregator knobs that are valid for the
// 25 post-vote operands of MOLS(5,3).
var aggParams = map[string]registry.AggregatorParams{
	"krum":         {C: 2},
	"multikrum":    {C: 2},
	"bulyan":       {C: 2},
	"trimmed-mean": {Trim: 2},
}

// TestSerialParallelBitIdentical is the determinism regression test of
// the engine redesign: for every registry aggregator, a serial engine
// (Parallelism = 1) and pooled engines (explicit widths plus the
// GOMAXPROCS default) must produce bit-identical parameter vectors after
// 20 rounds of the same seeded run with r = 3 replication and an active
// attack. Explicit widths 3 and 8 force the pool even on single-core
// machines, where the GOMAXPROCS default degenerates to serial.
func TestSerialParallelBitIdentical(t *testing.T) {
	reg := registry.Default
	for _, name := range reg.Aggregators() {
		t.Run(name, func(t *testing.T) {
			run := func(parallelism int) []float64 {
				agg, err := reg.Aggregator(name, aggParams[name])
				if err != nil {
					t.Fatal(err)
				}
				cfg := testSetup(t, []int{2, 7, 11}, attack.ALIE{}, agg)
				cfg.Parallelism = parallelism
				e, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				for i := 0; i < 20; i++ {
					if _, err := e.RunRound(); err != nil {
						t.Fatalf("round %d (parallelism %d): %v", i, parallelism, err)
					}
				}
				return e.Params()
			}
			serial := run(1)
			for _, width := range []int{3, 8, 0} {
				parallel := run(width)
				if len(serial) != len(parallel) {
					t.Fatalf("param lengths differ: %d vs %d", len(serial), len(parallel))
				}
				for i := range serial {
					if math.Float64bits(serial[i]) != math.Float64bits(parallel[i]) {
						t.Fatalf("width %d: param %d diverged: serial %v (bits %x), parallel %v (bits %x)",
							width, i, serial[i], math.Float64bits(serial[i]),
							parallel[i], math.Float64bits(parallel[i]))
					}
				}
			}
		})
	}
}

func mustAggregator(t *testing.T, name string) aggregate.Aggregator {
	t.Helper()
	agg, err := registry.Default.Aggregator(name, aggParams[name])
	if err != nil {
		t.Fatal(err)
	}
	return agg
}
