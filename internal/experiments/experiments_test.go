package experiments

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"
	"time"

	"byzshield/internal/attack"
	"byzshield/internal/transport"
)

// quickOpts returns heavily scaled-down options so the full figure suite
// stays fast in unit tests; the shape assertions below still hold.
func quickOpts() TrainOpts {
	o := DefaultTrainOpts()
	o.Spec.Rounds = 60
	o.EvalEvery = 20
	o.Spec.TrainN = 800
	o.Spec.TestN = 300
	o.Spec.Dim = 16
	o.Spec.BatchSize = 200
	o.SearchBudget = 5 * time.Second
	return o
}

func finalAcc(c Curve) float64 {
	if len(c.Points) == 0 {
		return 0
	}
	return c.Points[len(c.Points)-1].Accuracy
}

func curveByLabel(t *testing.T, fig Figure, label string) Curve {
	t.Helper()
	for _, c := range fig.Curves {
		if c.Label == label {
			return c
		}
	}
	t.Fatalf("figure %s has no curve %q (have %v)", fig.ID, label, labels(fig))
	return Curve{}
}

func labels(fig Figure) []string {
	var out []string
	for _, c := range fig.Curves {
		out = append(out, c.Label)
	}
	return out
}

// TestTableRunsMatchPaper re-validates the Table 3 values through the
// experiments-layer plumbing.
func TestTableRunsMatchPaper(t *testing.T) {
	rows, err := RunTable(context.Background(), Table3Spec(), 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	wantC := map[int]int{2: 1, 3: 3, 4: 5, 5: 8, 6: 12, 7: 14}
	for _, r := range rows {
		if !r.Exact {
			t.Errorf("q=%d not exact", r.Q)
		}
		if r.CMax != wantC[r.Q] {
			t.Errorf("q=%d c_max=%d want %d", r.Q, r.CMax, wantC[r.Q])
		}
	}
	// Spot-check comparison columns for q=2 (paper row: 0.04/0.13/0.2/2.11).
	r0 := rows[0]
	if math.Abs(r0.EpsByz-0.04) > 1e-9 {
		t.Errorf("eps_byz = %v", r0.EpsByz)
	}
	if math.Abs(r0.EpsBaseline-2.0/15) > 1e-9 {
		t.Errorf("eps_baseline = %v", r0.EpsBaseline)
	}
	if math.Abs(r0.EpsFRC-0.2) > 1e-9 {
		t.Errorf("eps_frc = %v", r0.EpsFRC)
	}
	if math.Abs(r0.Gamma-2.11) > 0.01 {
		t.Errorf("gamma = %v", r0.Gamma)
	}
}

func TestTableByID(t *testing.T) {
	for _, id := range []string{"3", "4", "5", "6", "table3", "table6"} {
		if _, err := TableByID(id); err != nil {
			t.Errorf("TableByID(%q): %v", id, err)
		}
	}
	if _, err := TableByID("7"); err == nil {
		t.Error("unknown table accepted")
	}
}

// TestFigure2Shape verifies the paper's central claim on the ALIE/median
// figure: ByzShield's ε̂ is far below DETOX's and baseline's, and its
// final accuracy is at least as good.
func TestFigure2Shape(t *testing.T) {
	fig := Figure2(context.Background(), quickOpts())
	byz3 := curveByLabel(t, fig, "ByzShield, q = 3")
	det3 := curveByLabel(t, fig, "DETOX-MoM, q = 3")
	med3 := curveByLabel(t, fig, "Median, q = 3")
	if byz3.Err != "" || det3.Err != "" || med3.Err != "" {
		t.Fatalf("unexpected errors: %q %q %q", byz3.Err, det3.Err, med3.Err)
	}
	// ε̂: ByzShield 0.04 vs DETOX 0.2 vs baseline 0.12 (Table 4 / Sec 6.2).
	if math.Abs(byz3.Epsilon-0.04) > 1e-9 {
		t.Errorf("ByzShield ε̂ = %v, want 0.04", byz3.Epsilon)
	}
	if math.Abs(det3.Epsilon-0.2) > 1e-9 {
		t.Errorf("DETOX ε̂ = %v, want 0.2", det3.Epsilon)
	}
	if math.Abs(med3.Epsilon-0.12) > 1e-9 {
		t.Errorf("baseline ε̂ = %v, want 0.12", med3.Epsilon)
	}
	if finalAcc(byz3) < finalAcc(det3)-0.02 {
		t.Errorf("ByzShield (%.3f) should not trail DETOX (%.3f) under ALIE",
			finalAcc(byz3), finalAcc(det3))
	}
}

// TestFigure7InfeasibleBulyan: Bulyan at q = 9 requires 4·c+3 operands
// it does not have — the run must be reported infeasible, as in the
// paper, while ByzShield q = 9 still trains.
func TestFigure7Infeasible(t *testing.T) {
	fig := Figure7(context.Background(), quickOpts())
	bul9 := curveByLabel(t, fig, "Bulyan, q = 9")
	if bul9.Err == "" || !strings.Contains(bul9.Err, "infeasible") {
		t.Errorf("Bulyan q=9 should be infeasible, got %q", bul9.Err)
	}
	byz9 := curveByLabel(t, fig, "ByzShield, q = 9")
	if byz9.Err != "" {
		t.Fatalf("ByzShield q=9 failed: %s", byz9.Err)
	}
	if math.Abs(byz9.Epsilon-0.36) > 1e-9 {
		t.Errorf("ByzShield q=9 ε̂ = %v, want 0.36 (Table 4)", byz9.Epsilon)
	}
	if finalAcc(byz9) < 0.3 {
		t.Errorf("ByzShield q=9 accuracy %.3f too low", finalAcc(byz9))
	}
}

// TestFigure8DETOXMultiKrumInfeasibleAtQ9 mirrors "DETOX cannot be
// paired with Multi-Krum in this case as it needs at least 2c+3 = 7
// groups".
func TestFigure8DETOXMultiKrumInfeasibleAtQ9(t *testing.T) {
	fig := Figure8(context.Background(), quickOpts())
	dmk9 := curveByLabel(t, fig, "DETOX-Multi-Krum, q = 9")
	if dmk9.Err == "" || !strings.Contains(dmk9.Err, "infeasible") {
		t.Errorf("DETOX-Multi-Krum q=9 should be infeasible, got %q", dmk9.Err)
	}
	dmk3 := curveByLabel(t, fig, "DETOX-Multi-Krum, q = 3")
	if dmk3.Err != "" {
		t.Errorf("DETOX-Multi-Krum q=3 should run: %s", dmk3.Err)
	}
}

// TestFigure6DETOXBreaksAtQ9: with ε̂ = 0.6 the majority of DETOX's vote
// winners are reversed, so its accuracy must collapse toward chance
// while ByzShield (ε̂ = 0.36) still converges — the paper's headline
// fragility result.
func TestFigure6DETOXBreaksAtQ9(t *testing.T) {
	fig := Figure6(context.Background(), quickOpts())
	det9 := curveByLabel(t, fig, "DETOX-MoM, q = 9")
	byz9 := curveByLabel(t, fig, "ByzShield, q = 9")
	if det9.Err != "" || byz9.Err != "" {
		t.Fatalf("unexpected errors: %q %q", det9.Err, byz9.Err)
	}
	if math.Abs(det9.Epsilon-0.6) > 1e-9 {
		t.Errorf("DETOX q=9 ε̂ = %v, want 0.6", det9.Epsilon)
	}
	if finalAcc(byz9) < finalAcc(det9)+0.2 {
		t.Errorf("ByzShield q=9 (%.3f) should clearly beat broken DETOX (%.3f)",
			finalAcc(byz9), finalAcc(det9))
	}
	if finalAcc(det9) > 0.35 {
		t.Errorf("DETOX q=9 should collapse toward chance, got %.3f", finalAcc(det9))
	}
}

func TestFigureByID(t *testing.T) {
	opts := quickOpts()
	opts.Spec.Rounds = 5
	opts.EvalEvery = 5
	for _, id := range []string{"9", "10", "11"} {
		fig, err := FigureByID(context.Background(), id, opts)
		if err != nil {
			t.Fatalf("FigureByID(%q): %v", id, err)
		}
		if len(fig.Curves) == 0 {
			t.Errorf("figure %s has no curves", id)
		}
	}
	if _, err := FigureByID(context.Background(), "99", opts); err == nil {
		t.Error("unknown figure accepted")
	}
}

// TestFigure12Timing runs Figure 12 on its three loopback fleets and
// checks the split's shape: every phase measured, the detect column zero
// without a detector, the uplink volume off real sockets (raw tier:
// moved == raw-equivalent), ByzShield's l = 5 reports per worker against
// the baseline's one, and a broadcast column; then a zscore run through
// the same entry point fills the detect column.
func TestFigure12Timing(t *testing.T) {
	opts := quickOpts()
	rows, err := Figure12(context.Background(), opts, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	byName := map[string]TimingRow{}
	for _, r := range rows {
		byName[r.Scheme] = r
		if r.Compute <= 0 || r.Communication <= 0 || r.Aggregation <= 0 {
			t.Errorf("%s: missing phase time %+v", r.Scheme, r)
		}
		if r.Detect != 0 {
			t.Errorf("%s: detect time %v without a detector", r.Scheme, r.Detect)
		}
		if r.ReportBytes <= 0 || r.ReportBytes != r.ReportRawBytes {
			t.Errorf("%s: raw uplink moved %d bytes, raw-equivalent %d", r.Scheme, r.ReportBytes, r.ReportRawBytes)
		}
		if r.BroadcastBytes <= 0 {
			t.Errorf("%s: no broadcast bytes", r.Scheme)
		}
	}
	// ByzShield transmits l = 5 gradients per worker vs 1 for the
	// baseline, over the same K and model.
	bs, base := byName["ByzShield"], byName["Median"]
	if ratio := float64(bs.ReportRawBytes) / float64(base.ReportRawBytes); ratio < 4 || ratio > 6 {
		t.Errorf("ByzShield raw report bytes %d / baseline %d = %.2f, want ≈5", bs.ReportRawBytes, base.ReportRawBytes, ratio)
	}
	var buf bytes.Buffer
	RenderTiming(&buf, rows)
	out := buf.String()
	for _, want := range []string{
		"compute/iter", "comm/iter", "agg/iter", "detect/iter", "upB/iter", "upRawB/iter", "downB/iter",
		"\nMedian ", "\nByzShield ", "\nDETOX-MoM ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("timing rendering missing %q:\n%s", want, out)
		}
	}
	// With a detector the detect column is populated — carried apart
	// from Aggregation, so detection cannot inflate the aggregation bar.
	opts.Spec.Detector = "zscore"
	drows, err := Figure12(context.Background(), opts, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range drows {
		if r.Detect <= 0 {
			t.Errorf("%s: detector enabled but detect time is %v", r.Scheme, r.Detect)
		}
	}
}

func TestRenderers(t *testing.T) {
	rows, err := RunTable(context.Background(), Table3Spec(), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	RenderTable(&buf, Table3Spec(), rows)
	out := buf.String()
	if !strings.Contains(out, "c_max") || !strings.Contains(out, "gamma") {
		t.Errorf("table rendering missing headers:\n%s", out)
	}
	// A budget-exhausted row carries the * lower-bound marker and the
	// footnote explaining it.
	buf.Reset()
	RenderTable(&buf, Table3Spec(), []TableRow{{Q: 2, CMax: 5, Exact: false, EpsByz: 0.2}})
	if out := buf.String(); !strings.Contains(out, "5*") || !strings.Contains(out, "greedy lower bound") {
		t.Errorf("inexact marker missing:\n%s", out)
	}
	buf.Reset()
	RenderTableCSV(&buf, rows)
	if !strings.HasPrefix(buf.String(), "q,c_max,exact") {
		t.Error("CSV header wrong")
	}
	lines := strings.Count(buf.String(), "\n")
	if lines != len(rows)+1 {
		t.Errorf("CSV has %d lines, want %d", lines, len(rows)+1)
	}

	opts := quickOpts()
	opts.Spec.Rounds = 5
	opts.EvalEvery = 5
	fig := Figure10(context.Background(), opts)
	buf.Reset()
	RenderFigure(&buf, fig)
	if !strings.Contains(buf.String(), "ByzShield") {
		t.Error("figure rendering missing curves")
	}
	buf.Reset()
	RenderFigureCSV(&buf, fig)
	if !strings.Contains(buf.String(), "curve,epsilon") {
		t.Error("figure CSV header wrong")
	}
	buf.Reset()
	RenderFigureSeries(&buf, fig)
	if !strings.Contains(buf.String(), "iteration") {
		t.Error("series rendering missing header")
	}
}

func TestRunOneBenignDefault(t *testing.T) {
	opts := quickOpts()
	opts.Spec.Rounds = 30
	opts.EvalEvery = 30
	c := RunOne(context.Background(), RunSpec{
		Label: "attack-free", Spec: transport.Spec{Scheme: "baseline", K: 10},
	}, opts)
	if c.Err != "" {
		t.Fatalf("benign run failed: %s", c.Err)
	}
	if c.Epsilon != 0 {
		t.Errorf("ε̂ = %v, want 0", c.Epsilon)
	}
	if finalAcc(c) < 0.5 {
		t.Errorf("attack-free accuracy %.3f", finalAcc(c))
	}
}

// TestRunOneZeroIterations: invalid iteration counts surface as a
// curve error, not a panic on the empty history.
func TestRunOneZeroIterations(t *testing.T) {
	opts := quickOpts()
	opts.Spec.Rounds = 0
	c := RunOne(context.Background(), RunSpec{
		Label: "zero-iters", Spec: transport.Spec{Scheme: "baseline", K: 10},
	}, opts)
	if c.Err == "" {
		t.Error("zero iterations accepted")
	}
	if len(c.Points) != 0 {
		t.Errorf("points = %v", c.Points)
	}
}

func TestRunOneReportsBuildErrors(t *testing.T) {
	c := RunOne(context.Background(), RunSpec{Label: "bad"}, quickOpts())
	if c.Err == "" {
		t.Error("missing scheme accepted")
	}
	c = RunOne(context.Background(), RunSpec{Label: "bad-frc", Spec: transport.Spec{Scheme: "frc", K: 10, R: 3}}, quickOpts())
	if c.Err == "" {
		t.Error("invalid FRC parameters accepted")
	}
}

// TestFigure5SignSGDCurvesPinned pins Figure 5's four signSGD curves
// (baseline and DETOX, q = 3 and 5) bit for bit: each curve's loss and
// accuracy series hashes to a fixed FNV-1a value. signSGD is a property
// of the aggregation rule — the engine votes raw replicas, the rule
// counts their signs, and the update is lr × the voted sign — so any
// change to that path shows here.
func TestFigure5SignSGDCurvesPinned(t *testing.T) {
	opts := DefaultTrainOpts()
	opts.Spec.Rounds = 40
	opts.EvalEvery = 5
	opts.Spec.TrainN = 1500
	opts.Spec.TestN = 300
	atk := attack.Constant{ScaleByFileSize: true}
	cases := []struct {
		spec RunSpec
		want string
	}{
		{signSGDSpec(25, 3, atk), "9607d04c3eade5a6"},
		{signSGDSpec(25, 5, atk), "d9f40a0064e7067a"},
		{detoxSignSGDSpec(25, 5, 3, atk), "5e044c95cd1b6289"},
		{detoxSignSGDSpec(25, 5, 5, atk), "5e044c95cd1b6289"},
	}
	for _, tc := range cases {
		c := RunOne(context.Background(), tc.spec, opts)
		if c.Err != "" {
			t.Fatalf("%s: %s", tc.spec.Label, c.Err)
		}
		h := fnv.New64a()
		for _, p := range c.Points {
			fmt.Fprintf(h, "%x %x ", math.Float64bits(p.Loss), math.Float64bits(p.Accuracy))
		}
		if got := fmt.Sprintf("%016x", h.Sum64()); got != tc.want {
			t.Errorf("%s: curve hash %s, want %s", tc.spec.Label, got, tc.want)
		}
	}
}
