package experiments

import (
	"context"
	"fmt"
	"time"

	"byzshield/internal/assign"
	"byzshield/internal/distort"
	"byzshield/internal/graph"
	"byzshield/internal/registry"
)

// TableRow is one row of a distortion-fraction table (the format shared
// by Tables 3–6 of the paper).
type TableRow struct {
	Q           int
	CMax        int
	Exact       bool // false when the search hit its budget (lower bound)
	EpsByz      float64
	EpsBaseline float64
	EpsFRC      float64
	Gamma       float64
}

// TableSpec describes one distortion table.
type TableSpec struct {
	ID      string
	Title   string
	Scheme  func() (*assign.Assignment, error)
	QMin    int
	QMax    int
	BaseK   int // cluster size used for the baseline/FRC columns
	BaseR   int // replication used for the FRC column
	GammaMu float64
}

// Table3Spec: MOLS (K, f, l, r) = (15, 25, 5, 3), q = 2..7.
func Table3Spec() TableSpec {
	return TableSpec{
		ID:    "table3",
		Title: "Distortion fraction, MOLS (K,f,l,r)=(15,25,5,3)",
		Scheme: func() (*assign.Assignment, error) {
			return components.Scheme("mols", registry.SchemeParams{L: 5, R: 3})
		},
		QMin: 2, QMax: 7, BaseK: 15, BaseR: 3, GammaMu: 1.0 / 3,
	}
}

// Table4Spec: Ramanujan Case 2 (m, s) = (5, 5), (K,f,l,r) = (25,25,5,5),
// q = 3..12.
func Table4Spec() TableSpec {
	return TableSpec{
		ID:    "table4",
		Title: "Distortion fraction, Ramanujan Case 2 (K,f,l,r)=(25,25,5,5)",
		Scheme: func() (*assign.Assignment, error) {
			return components.Scheme("ramanujan2", registry.SchemeParams{L: 5, R: 5})
		},
		QMin: 3, QMax: 12, BaseK: 25, BaseR: 5, GammaMu: 1.0 / 5,
	}
}

// Table5Spec: MOLS (K,f,l,r) = (35,49,7,5), q = 3..13.
func Table5Spec() TableSpec {
	return TableSpec{
		ID:    "table5",
		Title: "Distortion fraction, MOLS (K,f,l,r)=(35,49,7,5)",
		Scheme: func() (*assign.Assignment, error) {
			return components.Scheme("mols", registry.SchemeParams{L: 7, R: 5})
		},
		QMin: 3, QMax: 13, BaseK: 35, BaseR: 5, GammaMu: 1.0 / 5,
	}
}

// Table6Spec: MOLS (K,f,l,r) = (21,49,7,3), q = 2..10.
func Table6Spec() TableSpec {
	return TableSpec{
		ID:    "table6",
		Title: "Distortion fraction, MOLS (K,f,l,r)=(21,49,7,3)",
		Scheme: func() (*assign.Assignment, error) {
			return components.Scheme("mols", registry.SchemeParams{L: 7, R: 3})
		},
		QMin: 2, QMax: 10, BaseK: 21, BaseR: 3, GammaMu: 1.0 / 3,
	}
}

// TableByID dispatches a table id ("3".."6" or "table3".."table6").
func TableByID(id string) (TableSpec, error) {
	switch id {
	case "3", "table3":
		return Table3Spec(), nil
	case "4", "table4":
		return Table4Spec(), nil
	case "5", "table5":
		return Table5Spec(), nil
	case "6", "table6":
		return Table6Spec(), nil
	default:
		return TableSpec{}, fmt.Errorf("experiments: unknown table %q", id)
	}
}

// SchemeTable describes the distortion table of any registry scheme
// over q in [qmin, qmax]. The construction is probed once so parameter
// errors surface early, and the γ column uses the scheme's measured
// spectral gap μ1 (1/r for the ByzShield constructions, 1 for FRC),
// which the title also reports.
func SchemeTable(name string, params registry.SchemeParams, qmin, qmax int) (TableSpec, error) {
	build := func() (*assign.Assignment, error) { return components.Scheme(name, params) }
	a, err := build()
	if err != nil {
		return TableSpec{}, err
	}
	spec, err := graph.ComputeSpectrum(a.Graph, 1e-6)
	if err != nil {
		return TableSpec{}, err
	}
	mu1 := spec.Mu1()
	return TableSpec{
		ID:      name,
		Title:   fmt.Sprintf("Distortion fraction, %s (K=%d, f=%d, l=%d, r=%d), mu1=%.4f", name, a.K, a.F, a.L, a.R, mu1),
		Scheme:  build,
		QMin:    qmin,
		QMax:    qmax,
		BaseK:   a.K,
		BaseR:   a.R,
		GammaMu: mu1,
	}, nil
}

// AblationTables is the assignment-scheme ablation at K = 15, r = 3 —
// MOLS vs Ramanujan Case 1 vs FRC vs a seeded random placement — one
// SchemeTable each over q in [qmin, qmax]: why expander placements beat
// grouped and random ones (DESIGN.md §5).
func AblationTables(qmin, qmax int) ([]TableSpec, error) {
	schemes := []struct {
		name   string
		params registry.SchemeParams
	}{
		{"mols", registry.SchemeParams{L: 5, R: 3}},
		{"ramanujan1", registry.SchemeParams{L: 5, R: 3}},
		{"frc", registry.SchemeParams{K: 15, R: 3}},
		{"random", registry.SchemeParams{K: 15, F: 25, R: 3, Seed: 7}},
	}
	specs := make([]TableSpec, len(schemes))
	for i, s := range schemes {
		spec, err := SchemeTable(s.name, s.params, qmin, qmax)
		if err != nil {
			return nil, fmt.Errorf("experiments: ablation %s: %w", s.name, err)
		}
		specs[i] = spec
	}
	return specs, nil
}

// RunTable computes the table rows: exact c_max by branch-and-bound
// within budget per q (falling back to the greedy lower bound on
// timeout), plus the closed-form comparison columns. Canceling ctx
// stops the remaining searches early (finished rows degrade to the
// greedy bound).
func RunTable(ctx context.Context, spec TableSpec, budget time.Duration) ([]TableRow, error) {
	a, err := spec.Scheme()
	if err != nil {
		return nil, err
	}
	an := distort.NewAnalyzer(a)
	var rows []TableRow
	for q := spec.QMin; q <= spec.QMax; q++ {
		if err := ctx.Err(); err != nil {
			return rows, err
		}
		qctx, cancel := context.WithTimeout(ctx, budget)
		res := an.MaxDistorted(qctx, q)
		cancel()
		rows = append(rows, TableRow{
			Q:           q,
			CMax:        res.CMax,
			Exact:       res.Exact,
			EpsByz:      res.Epsilon,
			EpsBaseline: distort.EpsilonBaseline(q, spec.BaseK),
			EpsFRC:      distort.EpsilonFRC(q, spec.BaseR, spec.BaseK),
			Gamma:       distort.Gamma(q, a.L, a.R, a.K, spec.GammaMu),
		})
	}
	return rows, nil
}
