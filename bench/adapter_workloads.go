package main

import (
	"byzshield/internal/trainer"
	"byzshield/internal/transport"
	"byzshield/internal/wire"
)

// workload is one named set of inputs. The seed feeds the dataset, the
// parameter initialisation and the batch stream, and nothing else
// about a workload varies between runs.
type workload struct {
	name  string
	why   string // one line: what this workload is for
	batch int    // samples per round
	// setup deploys the workload. A non-nil twin asks for the traced
	// twin of that (finished) untraced instance: same seed, tracing on.
	setup func(seed int64, twin instance) (instance, error)
}

// paperClassSep puts sim-paper-k25's final accuracy around 0.9, where a
// successful attack or a broken aggregator shows.
const paperClassSep = 0.40

var fleetSchedule = trainer.Schedule{Base: 0.05, Decay: 0.98, Every: 50}

func specWorkload(name, why string, pl plane, spec func(seed int64) transport.Spec) workload {
	return workload{
		name: name, why: why, batch: spec(0).BatchSize,
		setup: func(seed int64, twin instance) (instance, error) {
			if pl.fleet {
				return setupFleet(spec(seed), pl, twin != nil)
			}
			return setupSim(spec(seed), pl, twin != nil)
		},
	}
}

// wideSpec is the aggregation-bound configuration both sim-wide
// workloads share: 100 008 parameters, 25 files voted 3 ways and
// reduced by a per-coordinate median.
func wideSpec(seed int64) transport.Spec {
	return transport.Spec{
		Scheme: "mols", L: 5, R: 3, Aggregator: "median",
		TrainN: 400, TestN: 400, Dim: 12500, Classes: 8,
		DataSeed: seed, ClassSep: 0.03,
		BatchSize: 50, Schedule: trainer.Schedule{Base: 0.002, Decay: 0.98, Every: 50},
		Momentum: 0.9, Seed: seed,
	}
}

var workloads = []workload{
	{
		name:  "sim-paper-k25",
		why:   "paper's K=25 Ramanujan cluster, MLP, ALIE on the q=5 worst-case set, median, public API only: compute-bound; the one workload that runs the distortion search and whose accuracy an attack moves",
		batch: paperBatch, setup: setupPaper,
	},
	specWorkload("sim-wide-f64",
		"in-process engine, MOLS(5,3), softmax with 100008 parameters, median: aggregation-bound, where the vote and per-column select kernels must show",
		plane{}, wideSpec),
	specWorkload("sim-wide-f32",
		"same Spec through the float32 engine: the generic kernels at half width, so a change that helps one width and costs the other shows",
		plane{f32: true}, wideSpec),
	specWorkload("fleet-k240-raw",
		"loopback TCP, 240 workers, 2056 parameters, mean, raw uplink, full broadcast every round: transport-bound, where syscall, framing and reader-pump changes must show",
		plane{fleet: true, uplink: wire.TierRaw, fullEvery: 1},
		func(seed int64) transport.Spec {
			return transport.Spec{
				Scheme: "frc", R: 3, K: 240, Aggregator: "mean",
				TrainN: 960, TestN: 1000, Dim: 256, Classes: 8,
				DataSeed: seed, ClassSep: 0.23,
				BatchSize: 80, Schedule: fleetSchedule, Momentum: 0.9, Seed: seed,
			}
		}),
	specWorkload("fleet-k60-int8",
		"loopback TCP, 60 workers, 16008 parameters, median, int8 uplink, 2 shards, pipelined prep, delta broadcast: the quantised, sharded, pipelined wire path; codec-bound",
		plane{fleet: true, uplink: wire.TierInt8, shards: 2, pipeline: true},
		func(seed int64) transport.Spec {
			return transport.Spec{
				Scheme: "frc", R: 3, K: 60, Aggregator: "median",
				TrainN: 400, TestN: 500, Dim: 2000, Classes: 8,
				DataSeed: seed, ClassSep: 0.075,
				BatchSize: 40, Schedule: fleetSchedule, Momentum: 0.9, Seed: seed,
			}
		}),
	specWorkload("fleet-k15-f32",
		"loopback TCP, 15 float32 workers, MOLS(5,3), 16008 parameters, median, raw uplink: the float32 wire stack end to end with few large frames; byte-volume-bound",
		plane{fleet: true, f32: true, uplink: wire.TierRaw},
		func(seed int64) transport.Spec {
			return transport.Spec{
				Scheme: "mols", L: 5, R: 3, Aggregator: "median",
				TrainN: 250, TestN: 250, Dim: 2000, Classes: 8,
				DataSeed: seed, ClassSep: 0.075,
				BatchSize: 50, Schedule: fleetSchedule, Momentum: 0.9, Seed: seed,
			}
		}),
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
