// Command byzsim runs the paper's evaluation from one entry point: the
// distortion tables of Sec. 5.3 (Tables 3–6, or any registry scheme),
// the training curves of Sec. 6 (Figures 2–11), the timing split of
// Figure 12 on loopback fleets, the scheme ablation, and the fault and
// detection sweeps. Exactly one mode flag is accepted. Every mode builds
// one experiments.TrainOpts, so a flag sets the same Spec field in each;
// -iters, -seed, -budget, -dim and -test default per mode when unset
// (see -help), and a flag that is set always wins. On an error or an
// interrupt a mode prints what it finished, then exits 1.
//
//	byzsim -table 3 -csv                     # reproduce a paper table
//	byzsim -scheme random -k 15 -f 25 -r 3   # any registry scheme
//	byzsim -ablation -qmin 2 -qmax 4         # MOLS vs Ramanujan vs FRC vs random
//	byzsim -figure all                       # Figures 2–11
//	byzsim -figure 6 -iters 1000 -series     # one figure with its curves
//	byzsim -figure 12 -uplink int8           # timing split, 8-bit uplink
//	byzsim -faults -dist dirichlet -distparam 0.3
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"byzshield"
	"byzshield/internal/experiments"
	"byzshield/internal/latin"
	"byzshield/internal/wire"
)

// options is one resolved command line. train.SearchBudget is every
// mode's search budget, per run or per table row.
type options struct {
	mode, arg         string // the one mode flag set, and its value for -table, -scheme and -figure
	train             experiments.TrainOpts
	params            byzshield.SchemeParams
	qmin, qmax        int
	csv, series, plot bool
}

// parseOptions resolves args into options: the one mode, then every
// training knob the user left unset at that mode's default.
func parseOptions(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("byzsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := options{train: experiments.DefaultTrainOpts()}
	s := &o.train.Spec
	fs.String("table", "", "paper table to reproduce: 3, 4, 5 or 6")
	fs.String("scheme", "", "custom scheme: "+strings.Join(byzshield.Registry.Schemes(), ", "))
	fs.Bool("ablation", false, "run the assignment-scheme ablation (MOLS vs Ramanujan vs FRC vs random)")
	fs.Bool("faults", false, "run the fault-tolerance sweep (scheme × crash/flaky worker faults)")
	fs.Bool("detect", false, "run the detection arms-race sweep (attack × PS-side detector)")
	fs.Bool("show", false, "print the MOLS family and file allocation for -l/-r (paper Tables 1 & 2)")
	fs.String("figure", "", "paper figure to reproduce: 2..12, or 'all' for 2..11")
	fs.Func("uplink", "report codec tier of the Figure 12 fleets: raw (default), sign, int8", func(v string) (err error) {
		o.train.Uplink, err = wire.ParseUplinkTier(v)
		return err
	})
	fs.IntVar(&s.Rounds, "iters", s.Rounds, "training rounds per curve or cell (-faults/-detect: 100, -figure 12: 20)")
	fs.Int64Var(&s.Seed, "seed", s.Seed, "experiment seed; for -scheme random the placement seed (tables: 7)")
	fs.DurationVar(&o.train.SearchBudget, "budget", o.train.SearchBudget, "Byzantine-set search budget per run or q (tables: 1m)")
	fs.IntVar(&o.train.EvalEvery, "eval", o.train.EvalEvery, "evaluate accuracy every N iterations")
	fs.IntVar(&s.TrainN, "train", s.TrainN, "training-set size")
	fs.IntVar(&s.TestN, "test", s.TestN, "test-set size (-figure 12: 200)")
	fs.IntVar(&s.Dim, "dim", s.Dim, "feature dimension (-figure 12: 64)")
	fs.IntVar(&s.Hidden, "hidden", s.Hidden, "MLP hidden width (0 = softmax regression)")
	fs.Float64Var(&s.ClassSep, "sep", s.ClassSep, "class separation of the synthetic task")
	fs.IntVar(&s.BatchSize, "batch", s.BatchSize, "batch size")
	fs.StringVar(&s.Distribution, "dist", "", "data distribution: "+strings.Join(byzshield.Registry.Distributions(), ", ")+" (default iid)")
	fs.Float64Var(&s.DistParam, "distparam", 0, "distribution knob (dirichlet alpha / label-skew shards; 0 = component default)")
	fs.StringVar(&s.Detector, "detector", "", "PS-side Byzantine detector: none, zscore, cluster (-detect sweeps all)")
	fs.IntVar(&o.params.L, "l", 5, "computational load (MOLS degree / Ramanujan parameter)")
	fs.IntVar(&o.params.R, "r", 3, "replication factor")
	fs.IntVar(&o.params.K, "k", 15, "cluster size (frc/baseline/random)")
	fs.IntVar(&o.params.F, "f", 0, "file count (random scheme)")
	fs.IntVar(&o.qmin, "qmin", 1, "minimum number of Byzantines")
	fs.IntVar(&o.qmax, "qmax", 5, "maximum number of Byzantines")
	fs.BoolVar(&o.csv, "csv", false, "emit CSV instead of aligned text")
	fs.BoolVar(&o.series, "series", false, "print the full accuracy trajectories (-figure)")
	fs.BoolVar(&o.plot, "plot", false, "draw ASCII line charts of the accuracy curves (-figure)")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	var chosen []string
	for _, name := range []string{"table", "scheme", "ablation", "faults", "detect", "show", "figure"} {
		if v := fs.Lookup(name).Value.(flag.Getter).Get(); v != "" && v != false {
			o.mode, o.arg = name, fmt.Sprint(v)
			chosen = append(chosen, "-"+name)
		}
	}
	if len(chosen) != 1 {
		return options{}, fmt.Errorf("give exactly one mode flag (-table, -scheme, -ablation, -faults, -detect, -show, -figure), not %d: %q",
			len(chosen), chosen)
	}

	// Each mode's own defaults for what the user left unset.
	set := make(map[string]bool)
	fs.Visit(func(fl *flag.Flag) { set[fl.Name] = true })
	unset := func(name string, apply func()) {
		if !set[name] {
			apply()
		}
	}
	o.params.Seed = s.Seed
	switch {
	case o.mode == "faults" || o.mode == "detect":
		unset("iters", func() { s.Rounds = 100 })
	case o.mode == "figure" && o.arg == "12":
		unset("iters", func() { s.Rounds = 20 })
		unset("dim", func() { s.Dim = 64 })
		unset("test", func() { s.TestN = 200 })
	case o.mode == "table" || o.mode == "scheme" || o.mode == "ablation":
		unset("budget", func() { o.train.SearchBudget = time.Minute })
		unset("seed", func() { o.params.Seed = 7 })
	}
	s.DataSeed = s.Seed
	return o, nil
}

func main() {
	o, err := parseOptions(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "byzsim:", err)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "byzsim:", err)
		os.Exit(1)
	}
}

// run executes the resolved mode, writing its output to w.
func run(ctx context.Context, o options, w io.Writer) error {
	switch o.mode {
	case "figure":
		return runFigures(ctx, o, w)
	case "faults":
		rows, err := experiments.FaultSweep(ctx, o.train)
		experiments.RenderFaultSweep(w, rows)
		return err
	case "detect":
		rows, err := experiments.DetectSweep(ctx, o.train)
		experiments.RenderDetectSweep(w, rows)
		return err
	case "show":
		return showConstruction(w, o.params.L, o.params.R)
	}
	specs, err := tableSpecs(o)
	if err != nil {
		return err
	}
	for i, spec := range specs {
		if i > 0 {
			fmt.Fprintln(w)
		}
		rows, err := experiments.RunTable(ctx, spec, o.train.SearchBudget)
		if o.csv {
			experiments.RenderTableCSV(w, rows)
		} else {
			experiments.RenderTable(w, spec, rows)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// tableSpecs is the distortion tables -table, -scheme or -ablation runs.
func tableSpecs(o options) ([]experiments.TableSpec, error) {
	switch o.mode {
	case "table":
		spec, err := experiments.TableByID(o.arg)
		return []experiments.TableSpec{spec}, err
	case "scheme":
		spec, err := experiments.SchemeTable(o.arg, o.params, o.qmin, o.qmax)
		return []experiments.TableSpec{spec}, err
	}
	return experiments.AblationTables(o.qmin, o.qmax)
}

// runFigures runs -figure: Figure 12's timing split, or the training
// curves of Figures 2–11 followed by a blank line each.
func runFigures(ctx context.Context, o options, w io.Writer) error {
	if o.arg == "12" {
		fmt.Fprintf(w, "Per-iteration time split, ALIE attack, q=3, K=25, %d rounds (Figure 12)\n\n", o.train.Spec.Rounds)
		rows, err := experiments.Figure12(ctx, o.train, o.train.Spec.Rounds)
		experiments.RenderTiming(w, rows)
		return err
	}
	ids := []string{o.arg}
	if o.arg == "all" {
		ids = []string{"2", "3", "4", "5", "6", "7", "8", "9", "10", "11"}
	}
	for _, id := range ids {
		fig, err := experiments.FigureByID(ctx, id, o.train)
		if err != nil {
			return err
		}
		switch {
		case o.csv:
			experiments.RenderFigureCSV(w, fig)
		case o.plot:
			experiments.RenderFigurePlot(w, fig, 72, 20)
		case o.series:
			experiments.RenderFigure(w, fig)
			experiments.RenderFigureSeries(w, fig)
		default:
			experiments.RenderFigure(w, fig)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// showConstruction prints the MOLS family (paper Table 1) and the
// resulting worker–file allocation (paper Table 2) for degree l and
// replication r.
func showConstruction(w io.Writer, l, r int) error {
	squares, err := latin.MOLS(l, r)
	if err != nil {
		return err
	}
	for i, sq := range squares {
		fmt.Fprintf(w, "L%d:\n%s\n", i+1, sq)
	}
	a, err := byzshield.Registry.Scheme("mols", byzshield.SchemeParams{L: l, R: r})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "File allocation for %v:\n", a)
	for u := 0; u < a.K; u++ {
		fmt.Fprintf(w, "  U%-3d stores %v\n", u, a.WorkerFiles(u))
	}
	return nil
}
