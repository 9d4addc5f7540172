package experiments

import (
	"context"
	"strings"
	"testing"
	"time"

	"byzshield/internal/wire"
)

// TestFleetScalingSmoke drives the scaling sweep end to end at the
// smallest fleet, at both precisions: both planes over one worker
// count, serial first, asserting every mode reproduces its in-process
// engine reference bit-for-bit (the serial mode the lossless
// trajectory, the quantized mode its own tier-pinned one — which must
// land off the lossless bits, so the sweep is known to train).
func TestFleetScalingSmoke(t *testing.T) {
	t.Run("f64", func(t *testing.T) { fleetScalingSmoke(t, wire.PrecisionF64, "") })
	t.Run("f32", func(t *testing.T) { fleetScalingSmoke(t, wire.PrecisionF32, "-f32") })
}

func fleetScalingSmoke(t *testing.T, prec wire.Precision, suffix string) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	points, err := FleetScaling(ctx, FleetConfig{
		WorkerCounts: []int{15},
		Rounds:       3,
		Warmup:       1,
		Reps:         1,
		InputDim:     8,
		Classes:      4,
		Precision:    prec,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	modes := FleetModes()
	if len(modes) != 2 || modes[0].Name != "serial" {
		t.Fatalf("FleetModes = %+v, want two planes with serial first", modes)
	}
	if len(points) != len(modes) {
		t.Fatalf("got %d points, want %d", len(points), len(modes))
	}
	for i, pt := range points {
		if pt.Mode != modes[i].Name+suffix {
			t.Errorf("point %d mode %q, want %q", i, pt.Mode, modes[i].Name+suffix)
		}
		if !pt.BitIdentical {
			t.Errorf("mode %s K=%d: final parameters differ from the engine", pt.Mode, pt.Workers)
		}
		if pt.RoundsPerSec <= 0 {
			t.Errorf("mode %s K=%d: rounds/sec %v not positive", pt.Mode, pt.Workers, pt.RoundsPerSec)
		}
		if modes[i].Uplink.Lossy() {
			// A lossy tier must actually be lossy: landing on the
			// lossless bits would mean the quantization never ran.
			if pt.ParamsHash == points[0].ParamsHash {
				t.Errorf("mode %s K=%d: params hash matches the lossless trajectory", pt.Mode, pt.Workers)
			}
		} else if pt.ParamsHash != points[0].ParamsHash {
			t.Errorf("mode %s K=%d: params hash %x != serial %x",
				pt.Mode, pt.Workers, pt.ParamsHash, points[0].ParamsHash)
		}
	}
}

// TestFleetScalingRejectsBadWorkerCount pins the FRC precondition: a
// worker count that is not a positive multiple of 3 is a config error,
// not a panic deep in assignment construction.
func TestFleetScalingRejectsBadWorkerCount(t *testing.T) {
	_, err := FleetScaling(context.Background(), FleetConfig{WorkerCounts: []int{16}})
	if err == nil {
		t.Fatal("worker count 16 accepted, want error")
	}
}

// TestFleetScalingModeFilter pins the Modes filter at f32: a plane is
// selected by its FleetMode name or by the "-f32" name its point is
// reported under, and a filter that selects nothing is an error rather
// than an empty sweep.
func TestFleetScalingModeFilter(t *testing.T) {
	cfg := FleetConfig{
		WorkerCounts: []int{15}, Rounds: 2, Warmup: 1, Reps: 1,
		InputDim: 8, Classes: 4, Precision: wire.PrecisionF32,
	}
	for _, filter := range []string{"quantized", "quantized-f32"} {
		cfg.Modes = []string{filter}
		points, err := FleetScaling(context.Background(), cfg)
		if err != nil {
			t.Fatalf("filter %q: %v", filter, err)
		}
		if len(points) != 1 || points[0].Mode != "quantized-f32" || !points[0].BitIdentical {
			t.Errorf("filter %q selected %+v, want one bit-identical quantized-f32 point", filter, points)
		}
	}
	cfg.Modes = []string{"quantized-f64"}
	if _, err := FleetScaling(context.Background(), cfg); err == nil {
		t.Error("a filter naming no plane returned an empty sweep, want error")
	}
}

// TestSweepReferenceMustTrain pins the check behind the sweeps'
// bit-identity columns: a Spec whose data seed equals its model seed
// starts from a matched filter of its own class means (see
// FleetConfig.fleetSpec) and never moves a parameter, and the reference
// run refuses it instead of comparing vectors that never left their
// initial bits.
func TestSweepReferenceMustTrain(t *testing.T) {
	spec := FleetConfig{InputDim: 256, Classes: 8, Rounds: 6, Warmup: 2, Seed: 0}.fleetSpec(15)
	if _, err := engineFinalParams[float32](spec, wire.TierRaw); err != nil {
		t.Fatalf("the sweep's own spec: %v", err)
	}
	spec.DataSeed = spec.Seed
	_, err := engineFinalParams[float32](spec, wire.TierRaw)
	if err == nil || !strings.Contains(err.Error(), "does not train") {
		t.Fatalf("aliased seeds: err = %v, want the does-not-train refusal", err)
	}
}
