// Command byztrain runs the deep-learning robustness experiments of
// Sec. 6, regenerating Figures 2–11 of the paper on the synthetic
// CIFAR-10 stand-in (see DESIGN.md for the substitution rationale).
//
// Usage:
//
//	byztrain -figure 2                     # one paper figure
//	byztrain -figure all                   # the whole evaluation suite
//	byztrain -figure 6 -iters 1000 -series # full-length run with curves
//	byztrain -figure 2 -csv > fig2.csv
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"byzshield/internal/experiments"
)

func main() {
	var (
		figure = flag.String("figure", "", "figure id: 2..11 or 'all'")
		iters  = flag.Int("iters", 300, "training iterations per curve")
		eval   = flag.Int("eval", 25, "evaluate accuracy every N iterations")
		trainN = flag.Int("train", 3000, "training-set size")
		testN  = flag.Int("test", 1000, "test-set size")
		dim    = flag.Int("dim", 24, "feature dimension")
		hidden = flag.Int("hidden", 24, "MLP hidden width (0 = softmax regression)")
		sep    = flag.Float64("sep", 0.5, "class separation of the synthetic task")
		batch  = flag.Int("batch", 500, "batch size")
		seed   = flag.Int64("seed", 42, "experiment seed")
		budget = flag.Duration("budget", 10*time.Second, "Byzantine-set search budget")
		csv    = flag.Bool("csv", false, "emit accuracy series as CSV")
		series = flag.Bool("series", false, "print the full accuracy trajectories")
		plot   = flag.Bool("plot", false, "draw ASCII line charts of the accuracy curves")
	)
	flag.Parse()
	if *figure == "" {
		fmt.Fprintln(os.Stderr, "byztrain: specify -figure N (2..11) or -figure all")
		os.Exit(2)
	}

	opts := experiments.DefaultTrainOpts()
	opts.Spec.Rounds = *iters
	opts.EvalEvery = *eval
	opts.Spec.TrainN = *trainN
	opts.Spec.TestN = *testN
	opts.Spec.Dim = *dim
	opts.Spec.Hidden = *hidden
	opts.Spec.ClassSep = *sep
	opts.Spec.BatchSize = *batch
	opts.Spec.Seed, opts.Spec.DataSeed = *seed, *seed
	opts.SearchBudget = *budget

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ids := []string{*figure}
	if *figure == "all" {
		ids = []string{"2", "3", "4", "5", "6", "7", "8", "9", "10", "11"}
	}
	for _, id := range ids {
		fig, err := experiments.FigureByID(ctx, id, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "byztrain:", err)
			os.Exit(1)
		}
		switch {
		case *csv:
			experiments.RenderFigureCSV(os.Stdout, fig)
		case *plot:
			experiments.RenderFigurePlot(os.Stdout, fig, 72, 20)
		case *series:
			experiments.RenderFigure(os.Stdout, fig)
			experiments.RenderFigureSeries(os.Stdout, fig)
		default:
			experiments.RenderFigure(os.Stdout, fig)
		}
		fmt.Println()
	}
}
