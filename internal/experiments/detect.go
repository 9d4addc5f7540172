package experiments

import (
	"context"
	"fmt"
	"io"

	"byzshield/internal/cluster"
	"byzshield/internal/transport"
)

// DetectRow is one cell of the attack × detector arms-race sweep: a
// MOLS-assigned cluster trained under a named attack with a named
// PS-side detector, reporting the final accuracy, the fleet's mean
// reputation, and how the blacklist split between Byzantine and honest
// workers — the false-positive column is the one that must stay zero.
type DetectRow struct {
	Attack   string
	Detector string
	// Final is the final test accuracy (0 when Err is set).
	Final float64
	// MeanReputation is the fleet-wide mean reputation after the last
	// round (1 with detection off).
	MeanReputation float64
	// ByzBlacklisted / HonestBlacklisted split the final blacklist by
	// the run's ground-truth Byzantine set.
	ByzBlacklisted    int
	HonestBlacklisted int
	// FlaggedRounds counts rounds where the detector flagged anyone.
	FlaggedRounds int
	// Err is non-empty when the configuration failed.
	Err string
}

// DetectSweep trains the attack × detector matrix in process on the
// MOLS(5,3) cluster with the worst-case q = 3 Byzantine placement: the
// benign control, the reversed gradient and ALIE against every
// detector, including the detection-free control column. Every cell is
// deterministic given opts.
func DetectSweep(ctx context.Context, opts TrainOpts) ([]DetectRow, error) {
	attacks := []string{"benign", "reversed", "alie"}
	detectors := []string{"none", "zscore", "cluster"}
	var rows []DetectRow
	for _, atk := range attacks {
		for _, det := range detectors {
			if err := ctx.Err(); err != nil {
				return rows, err
			}
			rows = append(rows, runDetectCell(ctx, atk, det, opts))
		}
	}
	return rows, nil
}

// runDetectCell executes one (attack, detector) cell.
func runDetectCell(ctx context.Context, atkName, detName string, opts TrainOpts) DetectRow {
	row := DetectRow{Attack: atkName, Detector: detName, MeanReputation: 1}
	atk, err := components.Attack(atkName)
	if err != nil {
		row.Err = err.Error()
		return row
	}
	s := cellSpec(opts.Spec, transport.Spec{Scheme: "mols", L: 5, R: 3})
	s.Detector = detName
	cfg, err := transport.EngineConfigOf[float64](&s)
	if err != nil {
		row.Err = err.Error()
		return row
	}
	byz, _ := selectByzantines(ctx, cfg.Assignment, 3, opts.SearchBudget)
	byzSet := make(map[int]bool, len(byz))
	for _, u := range byz {
		byzSet[u] = true
	}
	cfg.Attack, cfg.Byzantines = atk, byz
	eng, err := cluster.New(cfg)
	if err != nil {
		row.Err = err.Error()
		return row
	}
	defer eng.Close()
	for t := 0; t < s.Rounds; t++ {
		stats, err := eng.StepOnce(ctx)
		if err != nil {
			row.Err = err.Error()
			return row
		}
		row.MeanReputation = stats.MeanReputation
		if stats.FlaggedWorkers > 0 {
			row.FlaggedRounds++
		}
		for _, u := range stats.BlacklistedWorkers {
			if byzSet[u] {
				row.ByzBlacklisted++
			} else {
				row.HonestBlacklisted++
			}
		}
	}
	row.Final = eng.Evaluate()
	return row
}

// RenderDetectSweep writes the sweep as an aligned text table.
func RenderDetectSweep(w io.Writer, rows []DetectRow) {
	fmt.Fprintf(w, "%-10s %-8s %8s %9s %8s %8s %8s  %s\n",
		"attack", "detector", "final", "mean-rep", "byz-bl", "hon-bl", "flagged", "error")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %-8s %8.4f %9.3f %8d %8d %8d  %s\n",
			r.Attack, r.Detector, r.Final, r.MeanReputation,
			r.ByzBlacklisted, r.HonestBlacklisted, r.FlaggedRounds, r.Err)
	}
}
