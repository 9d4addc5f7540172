package cluster

import (
	"slices"
	"testing"

	"byzshield/internal/aggregate"
	"byzshield/internal/attack"
	"byzshield/internal/detect"
	"byzshield/internal/fault"
	"byzshield/internal/linalg"
	"byzshield/internal/wire"
)

// TestOneBufferPerFile: in process, every honest replica of a file reads
// the file's one arena buffer, and after every round that buffer holds
// the file's true gradient — a fresh gradient sum of the file at the
// round's parameters, passed once through the tier's quantizer on a
// lossy tier — under faults, a blacklisting detector, a coalition that
// owns a whole file, and the lossy tiers, at both widths.
func TestOneBufferPerFile(t *testing.T) {
	t.Run("f64", oneBufferPerFile[float64])
	t.Run("f32", oneBufferPerFile[float32])
}

func oneBufferPerFile[T linalg.Float](t *testing.T) {
	// The coalition holds every replica of file 0, so file 0's true
	// gradient is read by no honest worker at all.
	owners := mustMOLS(t).FileWorkers(0)
	cells := []struct {
		name  string
		setup func(*ConfigOf[T])
		// blacklists requires the cell to blacklist at least one worker.
		blacklists bool
	}{
		{name: "fault-free", setup: func(*ConfigOf[T]) {}},
		{name: "crash", setup: func(cfg *ConfigOf[T]) {
			cfg.Fault = fault.Crash{Workers: []int{4}, AtRound: 2}
		}},
		{name: "flaky", setup: func(cfg *ConfigOf[T]) {
			cfg.Fault = fault.Flaky{Workers: []int{0, 7}, P: 0.5, Seed: 11}
		}},
		{name: "detect", blacklists: true, setup: func(cfg *ConfigOf[T]) {
			cfg.Byzantines, cfg.Attack = owners, attack.Constant{Value: 50}
			cfg.Detector = detect.ZScore{}
		}},
		{name: "alie-all-byzantine-file", setup: func(cfg *ConfigOf[T]) {
			cfg.Byzantines, cfg.Attack = owners, attack.ALIE{}
		}},
		{name: "int8", setup: func(cfg *ConfigOf[T]) {
			cfg.Byzantines, cfg.Attack = owners, attack.ALIE{}
			cfg.UplinkTier = wire.TierInt8
		}},
		{name: "sign", setup: func(cfg *ConfigOf[T]) {
			cfg.Byzantines, cfg.Attack = owners, attack.ALIE{}
			cfg.UplinkTier = wire.TierSign
		}},
	}
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			cfg := testSetupOf[T](t, nil, attack.Benign{}, aggregate.Median{})
			c.setup(&cfg)
			e, err := NewOf(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			ar := e.arena
			if len(ar.trueGrads) != cfg.Assignment.F {
				t.Fatalf("%d file buffers, want f = %d", len(ar.trueGrads), cfg.Assignment.F)
			}
			fresh := make([]T, ar.dim)
			blacklisted := 0
			// 12 rounds: the detect cell's owners need the fixed
			// policy's 10 observations before a blacklist.
			for round := 0; round < 12; round++ {
				params := e.Params()
				stats, err := e.RunRound()
				if err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				blacklisted += len(stats.BlacklistedWorkers)
				for u, slots := range ar.cur {
					if slices.Contains(cfg.Byzantines, u) || slices.Contains(stats.MissingWorkers, u) {
						continue
					}
					for j, g := range slots {
						v := ar.workerFiles[u][j]
						if &g[0] != &ar.trueGrads[v][0] {
							t.Fatalf("round %d: worker %d slot %d does not read file %d's buffer", round, u, j, v)
						}
					}
				}
				for v, g := range ar.trueGrads {
					clear(fresh)
					e.train.SumGradient(params, e.files[v], fresh)
					switch cfg.UplinkTier {
					case wire.TierInt8:
						wire.Int8QuantizeInPlaceOf(fresh)
					case wire.TierSign:
						wire.SignQuantizeInPlaceOf(fresh)
					}
					if !linalg.EqualBits(g, fresh) {
						t.Fatalf("round %d: file %d's buffer is not its true gradient", round, v)
					}
				}
			}
			if c.blacklists && blacklisted == 0 {
				t.Error("the detector blacklisted no worker: the cell checks nothing it names")
			}
		})
	}
}
