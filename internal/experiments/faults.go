package experiments

import (
	"context"
	"fmt"
	"io"

	"byzshield/internal/cluster"
	"byzshield/internal/registry"
	"byzshield/internal/transport"
)

// FaultRow is one cell of the fault-tolerance sweep: an assignment
// scheme trained under an injected worker-fault scenario, with the
// realized degradation totals and the final accuracy.
type FaultRow struct {
	Scheme string
	Fault  string
	// Final is the final test accuracy (0 when Err is set).
	Final float64
	// MissingRounds counts rounds with at least one missing worker.
	MissingRounds int
	// DegradedVotes and DroppedFiles total the degraded file votes and
	// quorum-dropped files across the run.
	DegradedVotes int
	DroppedFiles  int
	// Err is non-empty when the configuration failed (e.g. a
	// redundancy-free scheme losing every replica of a file).
	Err string
}

// faultScenario names one injected fault pattern of the sweep.
type faultScenario struct {
	label  string
	faults []transport.FaultSpec
}

// faultSweepScenarios returns the scenario column of the sweep, scaled
// to the cluster size k: fault-free control, a two-worker mid-run
// crash, and three flaky workers dropping 30% of their rounds.
func faultSweepScenarios(rounds, k int) []faultScenario {
	return []faultScenario{
		{label: "none"},
		{"crash-2", []transport.FaultSpec{{Name: "crash",
			Params: registry.FaultParams{Workers: []int{0, k / 2}, Round: rounds / 3}}}},
		{"flaky-3", []transport.FaultSpec{{Name: "flaky",
			Params: registry.FaultParams{Workers: []int{1, k / 3, k - 1}, P: 0.3, Seed: 77}}}},
	}
}

// FaultSweep trains the scheme × fault matrix in process — ByzShield's
// MOLS expander, DETOX's FRC grouping, and the redundancy-free baseline
// under crash and flaky faults — and reports how each scheme's
// replication absorbs lost workers: degraded votes for the replicated
// schemes, dropped files (and eventually failure) for the baseline.
// Every cell is deterministic given opts.
func FaultSweep(ctx context.Context, opts TrainOpts) ([]FaultRow, error) {
	schemes := []struct {
		label string
		cell  transport.Spec
	}{
		{"mols(5,3)", transport.Spec{Scheme: "mols", L: 5, R: 3, K: 15}},
		{"frc(15,3)", transport.Spec{Scheme: "frc", K: 15, R: 3}},
		{"baseline(15)", transport.Spec{Scheme: "baseline", K: 15}},
	}
	var rows []FaultRow
	for _, sc := range schemes {
		for _, fs := range faultSweepScenarios(opts.Spec.Rounds, sc.cell.K) {
			if err := ctx.Err(); err != nil {
				return rows, err
			}
			s := cellSpec(opts.Spec, sc.cell)
			s.Faults = fs.faults
			cfg, err := transport.EngineConfigOf[float64](&s)
			if err != nil {
				return rows, err
			}
			rows = append(rows, runFaultCell(ctx, sc.label, fs.label, cfg, s.Rounds))
		}
	}
	return rows, nil
}

// runFaultCell executes one (scheme, fault) cell for the given horizon,
// accumulating the per-round participation stats.
func runFaultCell(ctx context.Context, scheme, fltLabel string, cfg cluster.Config, rounds int) FaultRow {
	row := FaultRow{Scheme: scheme, Fault: fltLabel}
	eng, err := cluster.New(cfg)
	if err != nil {
		row.Err = err.Error()
		return row
	}
	defer eng.Close()
	for t := 0; t < rounds; t++ {
		stats, err := eng.StepOnce(ctx)
		if err != nil {
			row.Err = err.Error()
			return row
		}
		if len(stats.MissingWorkers) > 0 {
			row.MissingRounds++
		}
		row.DegradedVotes += stats.DegradedFiles
		row.DroppedFiles += stats.DroppedFiles
	}
	row.Final = eng.Evaluate()
	return row
}

// RenderFaultSweep writes the sweep as an aligned text table.
func RenderFaultSweep(w io.Writer, rows []FaultRow) {
	fmt.Fprintf(w, "%-14s %-10s %8s %8s %9s %8s  %s\n",
		"scheme", "fault", "final", "missing", "degraded", "dropped", "error")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %-10s %8.4f %8d %9d %8d  %s\n",
			r.Scheme, r.Fault, r.Final, r.MissingRounds, r.DegradedVotes, r.DroppedFiles, r.Err)
	}
}
