package experiments

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"testing"
)

// pinOpts is the quick scale every trajectory pin below runs at.
func pinOpts() TrainOpts {
	o := quickOpts()
	o.Spec.Rounds = 40
	o.EvalEvery = 5
	return o
}

// curveHash fingerprints a curve bit for bit: its realized ε̂, its error
// and every loss/accuracy point.
func curveHash(c Curve) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%x %q ", math.Float64bits(c.Epsilon), c.Err)
	for _, p := range c.Points {
		fmt.Fprintf(h, "%x %x ", math.Float64bits(p.Loss), math.Float64bits(p.Accuracy))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestFigureCurvesPinned pins one cell per figure family — the expander
// and DETOX medians of Figure 2, DETOX-Multi-Krum with its c_max-derived
// rule (Figure 4) and the infeasible Bulyan cell of Figure 7 — so the
// way a cell names its scheme and rule cannot move a trajectory.
func TestFigureCurvesPinned(t *testing.T) {
	cases := []struct {
		fig, label string
		run        func(context.Context, TrainOpts) Figure
		want       string
	}{
		{"2", "ByzShield, q = 3", Figure2, "6e237f59d7104ae6"},
		{"2", "DETOX-MoM, q = 3", Figure2, "d5abdaa54f531231"},
		{"4", "DETOX-Multi-Krum, q = 3", Figure4, "01f1aa7ce31b9455"},
		{"7", "Bulyan, q = 9", Figure7, "0e86a04bae8060a2"},
	}
	figs := map[string]Figure{}
	for _, tc := range cases {
		fig, ok := figs[tc.fig]
		if !ok {
			fig = tc.run(context.Background(), pinOpts())
			figs[tc.fig] = fig
		}
		c := curveByLabel(t, fig, tc.label)
		if got := curveHash(c); got != tc.want {
			t.Errorf("fig %s %s: curve hash %s, want %s (err %q, ε̂ %v, %d points)",
				tc.fig, tc.label, got, tc.want, c.Err, c.Epsilon, len(c.Points))
		}
	}
}

// rowHash fingerprints any sweep row's printed fields bit for bit.
func rowHash(row any) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%#v", row)
	return fmt.Sprintf("%016x", h.Sum64())
}

// detectOpts is byzsim -detect's scale: the default options at 100
// rounds.
func detectOpts(dist string, alpha float64) TrainOpts {
	o := DefaultTrainOpts()
	o.Spec.Rounds = 100
	o.Spec.Distribution, o.Spec.DistParam = dist, alpha
	return o
}

// TestSweepRowsPinned pins fault-sweep cells under IID and Dirichlet
// data and detection cells of both detectors, among them the clean
// Dirichlet α = 0.1 runs where each detector blacklists 2 honest
// workers.
func TestSweepRowsPinned(t *testing.T) {
	ctx := context.Background()
	rows, err := FaultSweep(ctx, faultSweepOpts())
	if err != nil {
		t.Fatal(err)
	}
	dopts := faultSweepOpts()
	dopts.Spec.Distribution, dopts.Spec.DistParam = "dirichlet", 0.3
	drows, err := FaultSweep(ctx, dopts)
	if err != nil {
		t.Fatal(err)
	}
	find := func(rows []FaultRow, scheme, flt string) FaultRow {
		for _, r := range rows {
			if r.Scheme == scheme && r.Fault == flt {
				return r
			}
		}
		t.Fatalf("no row %s/%s", scheme, flt)
		return FaultRow{}
	}
	cases := []struct {
		name string
		row  any
		want string
	}{
		{"iid mols/crash-2", find(rows, "mols(5,3)", "crash-2"), "566e0a04e2e419c1"},
		{"iid mols/flaky-3", find(rows, "mols(5,3)", "flaky-3"), "a4a11717b5647ae1"},
		{"dirichlet mols/crash-2", find(drows, "mols(5,3)", "crash-2"), "10e70be59f5d9b44"},
		{"alie/zscore", runDetectCell(ctx, "alie", "zscore", faultSweepOpts()), "7eba16b525f1b59e"},
		{"reversed/cluster", runDetectCell(ctx, "reversed", "cluster", faultSweepOpts()), "9d94527add832a4d"},
		{"dirichlet-0.1 benign/zscore", runDetectCell(ctx, "benign", "zscore", detectOpts("dirichlet", 0.1)), "7424fedd2288b0c4"},
		{"dirichlet-0.1 benign/cluster", runDetectCell(ctx, "benign", "cluster", detectOpts("dirichlet", 0.1)), "d5c2dcb23436925a"},
	}
	for _, tc := range cases {
		if got := rowHash(tc.row); got != tc.want {
			t.Errorf("%s: row hash %s, want %s (%+v)", tc.name, got, tc.want, tc.row)
		}
	}
}
