// Command byzbench runs the f64-vs-f32 precision-scaling curve: the
// identical fault-free round timed through both precision engines across
// a parameter-dimension sweep (-dims lists the softmax input dims; the
// defaults span param dim ~330 to 100k+), printed as it runs or, with
// -json, as a JSON array. The paper's tables and figures are byzsim's.
//
//	byzbench -dims 41,12500 -sweep-rounds 12 -json
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

	"byzshield/internal/experiments"
)

func main() {
	var (
		seed = flag.Int64("seed", 42, "experiment seed")
		dims = flag.String("dims", "",
			"comma-separated softmax input dims (empty = 41,256,2000,12500 → param dims 336..100008)")
		rounds  = flag.Int("sweep-rounds", 8, "timed rounds per sweep point")
		reps    = flag.Int("sweep-reps", 3, "repetitions per sweep point, best kept")
		jsonOut = flag.Bool("json", false, "emit the sweep points as JSON on stdout")
	)
	flag.Parse()
	fail := func(code int, err error) {
		fmt.Fprintln(os.Stderr, "byzbench:", err)
		os.Exit(code)
	}

	var inputDims []int
	if *dims != "" {
		for _, s := range strings.Split(*dims, ",") {
			d, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				fail(2, fmt.Errorf("bad -dims: %w", err))
			}
			inputDims = append(inputDims, d)
		}
	}
	logf := func(f string, a ...any) { fmt.Printf(f+"\n", a...) }
	if *jsonOut {
		logf = func(f string, a ...any) { fmt.Fprintf(os.Stderr, f+"\n", a...) }
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	points, err := experiments.PrecisionScaling(ctx,
		experiments.PrecisionConfig{InputDims: inputDims, Rounds: *rounds, Reps: *reps, Seed: *seed, Logf: logf})
	if err != nil {
		fail(1, err)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(points); err != nil {
			fail(1, err)
		}
	}
}
