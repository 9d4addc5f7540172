package experiments

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"byzshield/internal/trainer"
)

func TestAblationSchemes(t *testing.T) {
	specs, err := AblationTables(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 4 {
		t.Fatalf("%d tables, want 4", len(specs))
	}
	bySchemeSpec := make(map[string]TableSpec)
	byScheme := make(map[string][]TableRow)
	for _, spec := range specs {
		rows, err := RunTable(context.Background(), spec, 20*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		// 3 q values per scheme.
		if len(rows) != 3 {
			t.Fatalf("%s: %d rows, want 3", spec.ID, len(rows))
		}
		if !strings.Contains(spec.Title, fmt.Sprintf("mu1=%.4f", spec.GammaMu)) {
			t.Errorf("%s: title %q does not report mu1", spec.ID, spec.Title)
		}
		bySchemeSpec[spec.ID], byScheme[spec.ID] = spec, rows
	}
	mols, frc := byScheme["mols"], byScheme["frc"]
	if len(mols) != 3 || len(frc) != 3 {
		t.Fatalf("schemes missing: %v", byScheme)
	}
	// Spectral gaps: MOLS 1/3, FRC 1 (no expansion).
	if mu := bySchemeSpec["mols"].GammaMu; mu > 0.34 || mu < 0.33 {
		t.Errorf("MOLS µ1 = %v", mu)
	}
	if mu := bySchemeSpec["frc"].GammaMu; mu < 0.99 {
		t.Errorf("FRC µ1 = %v, want ≈1", mu)
	}
	// Distortion: MOLS never worse than FRC at any q here, and strictly
	// better at q = 2 (Table 3 vs ε̂_FRC).
	for i := range mols {
		if mols[i].EpsByz > frc[i].EpsByz+1e-9 {
			t.Errorf("q=%d: MOLS ε̂ %v worse than FRC %v", mols[i].Q, mols[i].EpsByz, frc[i].EpsByz)
		}
	}
	if !(mols[0].EpsByz < frc[0].EpsByz) {
		t.Errorf("q=2: expected strict MOLS advantage (%v vs %v)", mols[0].EpsByz, frc[0].EpsByz)
	}
	// Ramanujan Case 1 must match MOLS c_max exactly (the paper's
	// "simulations ... were identical across the two" observation).
	ram := byScheme["ramanujan1"]
	for i := range mols {
		if ram[i].CMax != mols[i].CMax {
			t.Errorf("q=%d: Ramanujan1 c_max %d != MOLS %d", mols[i].Q, ram[i].CMax, mols[i].CMax)
		}
	}
}

func TestRenderFigurePlot(t *testing.T) {
	fig := Figure{
		ID:    "figX",
		Title: "test plot",
		Curves: []Curve{
			{Label: "a", Epsilon: 0.1, Points: []trainer.Point{
				{Iteration: 10, Accuracy: 0.2}, {Iteration: 20, Accuracy: 0.5}, {Iteration: 30, Accuracy: 0.8},
			}},
			{Label: "broken", Epsilon: 0.6, Err: "infeasible: whatever"},
		},
	}
	var buf bytes.Buffer
	RenderFigurePlot(&buf, fig, 40, 10)
	out := buf.String()
	if !strings.Contains(out, "[1] a") {
		t.Errorf("legend missing:\n%s", out)
	}
	if !strings.Contains(out, "[-] broken") {
		t.Errorf("infeasible curve missing:\n%s", out)
	}
	if !strings.Contains(out, "1") {
		t.Error("no curve marks plotted")
	}
	// Degenerate sizes fall back to defaults without panicking.
	buf.Reset()
	RenderFigurePlot(&buf, fig, 1, 1)
	if buf.Len() == 0 {
		t.Error("fallback rendering empty")
	}
	// Empty figure.
	buf.Reset()
	RenderFigurePlot(&buf, Figure{ID: "e", Title: "empty"}, 40, 10)
	if !strings.Contains(buf.String(), "no feasible curves") {
		t.Error("empty figure not reported")
	}
}
