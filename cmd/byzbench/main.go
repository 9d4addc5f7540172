// Command byzbench regenerates Figure 12 of the paper: the per-iteration
// wall-clock split into computation, communication and aggregation of
// baseline median, ByzShield and DETOX-MoM under the ALIE attack (q = 3,
// K = 25), each taken on a loopback TCP fleet whose Byzantine workers
// run the attack themselves. Computation is the median worker's mean
// gradient span (byzworker_compute_seconds); communication is the PS's
// broadcast-plus-collection span less the slowest worker's mean compute
// span, so a Byzantine worker replaying every file stays out of it. The
// upB/upRawB columns report the worker→PS volume the sockets carried vs
// its raw-frame equivalent (the realized uplink compression ratio), and
// downB the PS→worker broadcast. The rep/blk columns show the detection
// layer's view (mean reputation, blacklist size) when a -detector runs.
// -uplink selects the report codec tier the PS names: raw (the bit-exact
// default) or the lossy sign/int8 quantized tiers, whose upRatio shows
// the realized lossy saving.
//
// Usage:
//
//	byzbench                 # default 20 rounds per scheme
//	byzbench -rounds 100 -dim 128
//	byzbench -uplink int8    # time the lossy 8-bit quantized uplink
//
// -precision f32 switches byzbench from the Figure 12 split to the
// f64-vs-f32 precision-scaling curve: the identical fault-free round
// timed through both precision engines across a parameter-dimension
// sweep (-dims lists the softmax input dims; the defaults span param
// dim ~330 to 100k+). -json emits the points as a JSON array:
//
//	byzbench -precision f32 -json
//	byzbench -precision f32 -dims 41,12500 -sweep-rounds 12
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"byzshield/internal/experiments"
	"byzshield/internal/wire"
)

func main() {
	var (
		rounds    = flag.Int("rounds", 20, "protocol rounds to time per scheme")
		trainN    = flag.Int("train", 3000, "training-set size")
		dim       = flag.Int("dim", 64, "feature dimension")
		batch     = flag.Int("batch", 500, "batch size")
		seed      = flag.Int64("seed", 42, "experiment seed")
		budget    = flag.Duration("budget", 10*time.Second, "Byzantine-set search budget")
		detector  = flag.String("detector", "", "PS-side Byzantine detector the fleets run (none, zscore, cluster)")
		uplink    = flag.String("uplink", "raw", "report codec tier the fleets use: raw, sign, int8")
		precision = flag.String("precision", "f64",
			"f64 = the Figure 12 timing split; f32 = the f64-vs-f32 precision-scaling dim sweep")
		dims = flag.String("dims", "",
			"comma-separated softmax input dims for the -precision f32 sweep (empty = 41,256,2000,12500 → param dims 336..100008)")
		sweepRounds = flag.Int("sweep-rounds", 8, "timed rounds per sweep point (-precision f32)")
		sweepReps   = flag.Int("sweep-reps", 3, "repetitions per sweep point, best kept (-precision f32)")
		jsonOut     = flag.Bool("json", false, "emit -precision f32 sweep points as JSON on stdout")
	)
	flag.Parse()

	tier, err := wire.ParseUplinkTier(*uplink)
	if err != nil {
		fmt.Fprintln(os.Stderr, "byzbench:", err)
		os.Exit(2)
	}
	prec, err := wire.ParsePrecision(*precision)
	if err != nil {
		fmt.Fprintln(os.Stderr, "byzbench:", err)
		os.Exit(2)
	}
	if prec == wire.PrecisionF32 {
		runPrecisionSweep(*dims, *sweepRounds, *sweepReps, *seed, *jsonOut)
		return
	}

	opts := experiments.DefaultTrainOpts()
	opts.Spec.TrainN = *trainN
	opts.Spec.TestN = 200
	opts.Spec.Dim = *dim
	opts.Spec.BatchSize = *batch
	opts.Spec.Seed, opts.Spec.DataSeed = *seed, *seed
	opts.SearchBudget = *budget
	opts.Spec.Detector = *detector
	opts.Uplink = tier

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	rows, err := experiments.Figure12(ctx, opts, *rounds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "byzbench:", err)
		os.Exit(1)
	}
	fmt.Printf("Per-iteration time split, ALIE attack, q=3, K=25, %d rounds (Figure 12)\n\n", *rounds)
	experiments.RenderTiming(os.Stdout, rows)
}

// runPrecisionSweep drives the f64-vs-f32 scaling curve (byzbench
// -precision f32) and prints a table or JSON.
func runPrecisionSweep(dimList string, rounds, reps int, seed int64, jsonOut bool) {
	var inputDims []int
	if dimList != "" {
		for _, s := range strings.Split(dimList, ",") {
			d, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				fmt.Fprintln(os.Stderr, "byzbench: bad -dims:", err)
				os.Exit(2)
			}
			inputDims = append(inputDims, d)
		}
	}
	logf := func(f string, a ...any) { fmt.Printf(f+"\n", a...) }
	if jsonOut {
		logf = func(f string, a ...any) { fmt.Fprintf(os.Stderr, f+"\n", a...) }
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	points, err := experiments.PrecisionScaling(ctx, experiments.PrecisionConfig{
		InputDims: inputDims,
		Rounds:    rounds,
		Reps:      reps,
		Seed:      seed,
		Logf:      logf,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "byzbench:", err)
		os.Exit(1)
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(points); err != nil {
			fmt.Fprintln(os.Stderr, "byzbench:", err)
			os.Exit(1)
		}
	}
}
