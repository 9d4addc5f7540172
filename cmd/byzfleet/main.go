// Command byzfleet runs the fleet-scaling sweep of the aggregation
// plane: for each worker count it drives a loopback fleet through the
// serial, sharded, and quantized (sharded plane on the lossy int8
// uplink tier) planes over the identical spec, checks
// every mode's final parameters bit-for-bit against the in-process
// engine — the quantized mode against an engine pinned to the same tier
// and shard count — and reports rounds/sec per plane. It is a
// correctness sweep and a profiling harness; the repository's recorded
// numbers come from bench/ (bash bench/run.sh). -json emits the points
// as a JSON array; -modes isolates one plane for profiling with
// -cpuprofile (e.g. -modes quantized).
//
// -memprofile writes a heap profile after the sweep finishes (a forced
// GC first, so it shows retained memory, not transient garbage). For a
// live server prefer scraping byzps's /debug/pprof/heap instead — it
// snapshots the steady state without ending the run. -trace-out
// streams every round of every sweep point as JSONL RoundTrace lines,
// labeled "mode/K=<count>" per point.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"byzshield/internal/experiments"
	"byzshield/internal/obs"
	"byzshield/internal/wire"
)

// traceRingRounds bounds the tracer ring; the JSONL sink sees every
// round regardless, the ring only serves in-process inspection.
const traceRingRounds = 256

func main() {
	var (
		workers   = flag.String("workers", "15,60,240", "comma-separated fleet sizes")
		rounds    = flag.Int("rounds", 20, "measured rounds per point")
		warmup    = flag.Int("warmup", 2, "warmup rounds excluded from timing")
		reps      = flag.Int("reps", 3, "repetitions per point (best kept)")
		dim       = flag.Int("input-dim", 256, "input feature dimension")
		classes   = flag.Int("classes", 8, "classes")
		shards    = flag.Int("shards", 2, "shard count")
		modes     = flag.String("modes", "", "comma-separated mode filter (default all)")
		precision = flag.String("precision", "f64",
			"numeric precision tier the whole sweep runs at: f64 or f32 (the same three planes; f32 rows are reported with an -f32 suffix)")
		jsonOut  = flag.Bool("json", false, "emit the points as JSON on stdout")
		prof     = flag.String("cpuprofile", "", "write cpu profile")
		memProf  = flag.String("memprofile", "", "write heap profile at sweep end (live servers: prefer byzps /debug/pprof/heap)")
		traceOut = flag.String("trace-out", "", "append per-round JSONL traces for every sweep point to this file")
	)
	flag.Parse()
	prec, err := wire.ParsePrecision(*precision)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var counts []int
	for _, s := range strings.Split(*workers, ",") {
		k, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		counts = append(counts, k)
	}
	var modeList []string
	if *modes != "" {
		for _, m := range strings.Split(*modes, ",") {
			modeList = append(modeList, strings.TrimSpace(m))
		}
	}
	if *prof != "" {
		f, err := os.Create(*prof)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		pprof.StartCPUProfile(f)
		defer pprof.StopCPUProfile()
	}
	var tracer *obs.Tracer
	var traceFlush func() error
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		bw := bufio.NewWriter(f)
		tracer = obs.NewTracer(traceRingRounds)
		tracer.SetSink(bw)
		traceFlush = func() error {
			if err := bw.Flush(); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		}
	}
	logf := func(f string, a ...any) { fmt.Printf(f+"\n", a...) }
	if *jsonOut {
		logf = func(f string, a ...any) { fmt.Fprintf(os.Stderr, f+"\n", a...) }
	}
	points, err := experiments.FleetScaling(context.Background(), experiments.FleetConfig{
		WorkerCounts: counts,
		Rounds:       *rounds,
		Warmup:       *warmup,
		Reps:         *reps,
		InputDim:     *dim,
		Classes:      *classes,
		Shards:       *shards,
		Modes:        modeList,
		Precision:    prec,
		Tracer:       tracer,
		Logf:         logf,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if traceFlush != nil {
		if err := traceFlush(); err != nil {
			fmt.Fprintln(os.Stderr, "byzfleet: trace-out:", err)
			os.Exit(1)
		}
	}
	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		runtime.GC() // settle the heap so the profile shows retained memory
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		f.Close()
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(points); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}
