// Command byzsim runs the worst-case distortion-fraction simulations of
// Sec. 5.3 of the paper, regenerating Tables 3–6 (or analyzing a custom
// scheme resolved by name through the component registry).
//
// Usage:
//
//	byzsim -table 3                              # reproduce a paper table
//	byzsim -table 5 -budget 10m                  # longer exhaustive search
//	byzsim -scheme mols -l 7 -r 3 -qmin 2 -qmax 8
//	byzsim -scheme random -k 15 -f 25 -r 3       # any registry scheme works
//	byzsim -table 4 -csv                         # machine-readable output
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"byzshield"
	"byzshield/internal/assign"
	"byzshield/internal/experiments"
	"byzshield/internal/latin"
)

func main() {
	var (
		table    = flag.String("table", "", "paper table to reproduce: 3, 4, 5 or 6")
		scheme   = flag.String("scheme", "", "custom scheme: "+strings.Join(byzshield.Registry.Schemes(), ", "))
		ablation = flag.Bool("ablation", false, "run the assignment-scheme ablation (MOLS vs Ramanujan vs FRC vs random)")
		faults   = flag.Bool("faults", false, "run the fault-tolerance sweep (scheme × crash/flaky worker faults)")
		detect   = flag.Bool("detect", false, "run the detection arms-race sweep (attack × PS-side detector)")
		iters    = flag.Int("iters", 100, "training rounds per cell for -faults / -detect")
		dist     = flag.String("dist", "", "data distribution for -faults / -detect: "+strings.Join(byzshield.Registry.Distributions(), ", ")+" (default iid)")
		distP    = flag.Float64("distparam", 0, "distribution knob (dirichlet alpha / label-skew shards; 0 = component default)")
		show     = flag.Bool("show", false, "print the MOLS family and file allocation for -l/-r (paper Tables 1 & 2)")
		l        = flag.Int("l", 5, "computational load (MOLS degree / Ramanujan parameter)")
		r        = flag.Int("r", 3, "replication factor")
		k        = flag.Int("k", 15, "cluster size (frc/baseline/random)")
		f        = flag.Int("f", 0, "file count (random scheme)")
		seed     = flag.Int64("seed", 7, "placement seed (random scheme)")
		qmin     = flag.Int("qmin", 1, "minimum number of Byzantines")
		qmax     = flag.Int("qmax", 5, "maximum number of Byzantines")
		budget   = flag.Duration("budget", 60*time.Second, "exhaustive-search budget per q")
		csv      = flag.Bool("csv", false, "emit CSV instead of the aligned table")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *ablation {
		rows, err := experiments.AblationSchemes(ctx, *qmin, *qmax, *budget)
		if err != nil {
			fatal(err)
		}
		experiments.RenderAblation(os.Stdout, rows)
		return
	}
	if *faults {
		opts := experiments.DefaultTrainOpts()
		opts.Spec.Rounds = *iters
		opts.Spec.Distribution, opts.Spec.DistParam = *dist, *distP
		rows, err := experiments.FaultSweep(ctx, opts)
		if err != nil {
			fatal(err)
		}
		experiments.RenderFaultSweep(os.Stdout, rows)
		return
	}
	if *detect {
		opts := experiments.DefaultTrainOpts()
		opts.Spec.Rounds = *iters
		opts.Spec.Distribution, opts.Spec.DistParam = *dist, *distP
		rows, err := experiments.DetectSweep(ctx, opts)
		if err != nil {
			fatal(err)
		}
		experiments.RenderDetectSweep(os.Stdout, rows)
		return
	}
	if *show {
		if err := showConstruction(*l, *r); err != nil {
			fatal(err)
		}
		return
	}

	var spec experiments.TableSpec
	switch {
	case *table != "":
		s, err := experiments.TableByID(*table)
		if err != nil {
			fatal(err)
		}
		spec = s
	case *scheme != "":
		s, err := customSpec(*scheme, byzshield.SchemeParams{
			L: *l, R: *r, K: *k, F: *f, Seed: *seed,
		}, *qmin, *qmax)
		if err != nil {
			fatal(err)
		}
		spec = s
	default:
		fmt.Fprintln(os.Stderr, "byzsim: specify -table N or -scheme NAME (see -help)")
		os.Exit(2)
	}

	rows, err := experiments.RunTable(ctx, spec, *budget)
	if err != nil {
		fatal(err)
	}
	if *csv {
		experiments.RenderTableCSV(os.Stdout, rows)
	} else {
		experiments.RenderTable(os.Stdout, spec, rows)
	}
}

// customSpec builds a TableSpec for any registry scheme. The
// construction is probed once so parameter errors surface early; the γ
// column uses the scheme's actual spectral gap (1/r for the ByzShield
// constructions, 1 for FRC, measured for random placements).
func customSpec(scheme string, params byzshield.SchemeParams, qmin, qmax int) (experiments.TableSpec, error) {
	build := func() (*assign.Assignment, error) {
		return byzshield.Registry.Scheme(scheme, params)
	}
	a, err := build()
	if err != nil {
		return experiments.TableSpec{}, err
	}
	mu1, err := byzshield.SpectralGap(a)
	if err != nil {
		return experiments.TableSpec{}, err
	}
	return experiments.TableSpec{
		ID:      "custom",
		Title:   fmt.Sprintf("Distortion fraction, %s (K=%d, f=%d, l=%d, r=%d)", scheme, a.K, a.F, a.L, a.R),
		Scheme:  build,
		QMin:    qmin,
		QMax:    qmax,
		BaseK:   a.K,
		BaseR:   a.R,
		GammaMu: mu1,
	}, nil
}

// showConstruction prints the MOLS family (paper Table 1) and the
// resulting worker–file allocation (paper Table 2) for degree l and
// replication r.
func showConstruction(l, r int) error {
	squares, err := latin.MOLS(l, r)
	if err != nil {
		return err
	}
	for i, sq := range squares {
		fmt.Printf("L%d:\n%s\n", i+1, sq)
	}
	a, err := byzshield.Registry.Scheme("mols", byzshield.SchemeParams{L: l, R: r})
	if err != nil {
		return err
	}
	fmt.Printf("File allocation for %v:\n", a)
	for u := 0; u < a.K; u++ {
		fmt.Printf("  U%-3d stores %v\n", u, a.WorkerFiles(u))
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "byzsim:", err)
	os.Exit(1)
}
