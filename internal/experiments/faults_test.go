package experiments

import (
	"context"
	"strings"
	"testing"
)

// faultSweepOpts shrinks the sweep to seconds.
func faultSweepOpts() TrainOpts {
	opts := DefaultTrainOpts()
	opts.Spec.Rounds = 30
	opts.Spec.TrainN = 400
	opts.Spec.TestN = 150
	opts.Spec.Dim = 12
	opts.Spec.ClassSep = 2.5 // separable enough for a 30-round smoke horizon
	opts.Spec.Hidden = 0
	opts.Spec.BatchSize = 100
	return opts
}

func TestFaultSweepMatrix(t *testing.T) {
	rows, err := FaultSweep(context.Background(), faultSweepOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 { // 3 schemes × 3 faults
		t.Fatalf("%d rows, want 9", len(rows))
	}
	byCell := map[string]FaultRow{}
	for _, r := range rows {
		byCell[r.Scheme+"/"+r.Fault] = r
	}

	// Fault-free cells: full participation, no degradation, training
	// reaches a sane accuracy.
	for _, scheme := range []string{"mols(5,3)", "frc(15,3)", "baseline(15)"} {
		r := byCell[scheme+"/none"]
		if r.Err != "" {
			t.Errorf("%s/none: %s", scheme, r.Err)
		}
		if r.MissingRounds != 0 || r.DegradedVotes != 0 || r.DroppedFiles != 0 {
			t.Errorf("%s/none: unexpected degradation %+v", scheme, r)
		}
		if r.Final < 0.5 {
			t.Errorf("%s/none: accuracy %.3f < 0.5", scheme, r.Final)
		}
	}

	// Replicated schemes absorb the crash with degraded votes and keep
	// training; the redundancy-free baseline must drop the crashed
	// workers' files outright (r = 1 → below any quorum).
	for _, scheme := range []string{"mols(5,3)", "frc(15,3)"} {
		r := byCell[scheme+"/crash-2"]
		if r.Err != "" {
			t.Errorf("%s/crash-2: %s", scheme, r.Err)
		}
		if r.MissingRounds == 0 || r.DegradedVotes == 0 {
			t.Errorf("%s/crash-2: no degradation recorded: %+v", scheme, r)
		}
		if r.Final < 0.5 {
			t.Errorf("%s/crash-2: accuracy %.3f < 0.5", scheme, r.Final)
		}
	}
	base := byCell["baseline(15)/crash-2"]
	if base.Err == "" && base.DroppedFiles == 0 {
		t.Errorf("baseline/crash-2: crash left no trace: %+v", base)
	}

	// Flaky cells: skips happen and training survives on replicated
	// schemes.
	flaky := byCell["mols(5,3)/flaky-3"]
	if flaky.Err != "" || flaky.MissingRounds == 0 {
		t.Errorf("mols/flaky-3: %+v", flaky)
	}
}

func TestRenderFaultSweep(t *testing.T) {
	rows := []FaultRow{{Scheme: "mols(5,3)", Fault: "crash-2", Final: 0.71, MissingRounds: 20, DegradedVotes: 100}}
	var sb strings.Builder
	RenderFaultSweep(&sb, rows)
	out := sb.String()
	for _, want := range []string{"scheme", "crash-2", "0.7100", "100"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}
