package experiments

import (
	"context"
	"fmt"

	"byzshield/internal/attack"
	"byzshield/internal/registry"
	"byzshield/internal/transport"
)

// The paper's K = 25 cluster uses the Ramanujan Case 2 construction with
// r = l = 5 (f = 25 files); the K = 15 cluster uses MOLS with l = 5,
// r = 3 (f = 25 files). DETOX runs FRC with the same K and r.

// alieAttack returns the ALIE configuration used by the figures:
// z = 1.0, matching the grid-searched z ≈ 1.035 that Baruch et al. use
// in their experiments (the closed-form z_max is far more conservative
// and under-reports the attack's strength on small clusters).
func alieAttack() attack.Attack { return attack.ALIE{ZOverride: 1.0} }

// byzShieldSpec builds the standard ByzShield curve at cluster size k.
func byzShieldSpec(k, q int, atk attack.Attack) RunSpec {
	cell := transport.Spec{Scheme: "ramanujan2", L: 5, R: 5, Aggregator: "median"}
	if k == 15 {
		cell.Scheme, cell.R = "mols", 3
	}
	return RunSpec{Label: fmt.Sprintf("ByzShield, q = %d", q), Spec: cell, Q: q, Attack: atk}
}

// baselineSpec is the un-replicated cluster of size k under rule.
func baselineSpec(label string, k, q int, atk attack.Attack, rule string, params registry.AggregatorParams) RunSpec {
	return RunSpec{
		Label:  fmt.Sprintf("%s, q = %d", label, q),
		Spec:   transport.Spec{Scheme: "baseline", K: k, Aggregator: rule, AggParams: params},
		Q:      q,
		Attack: atk,
	}
}

// detoxSpec is DETOX (FRC grouping, r = 5 at K = 25; r = 3 at K = 15)
// under rule on the K/r vote winners.
func detoxSpec(label string, k, r, q int, atk attack.Attack, rule string) RunSpec {
	return RunSpec{
		Label:  fmt.Sprintf("DETOX-%s, q = %d", label, q),
		Spec:   transport.Spec{Scheme: "frc", K: k, R: r, Aggregator: rule},
		Q:      q,
		Attack: atk,
	}
}

// baselineMedianSpec is the un-replicated coordinate-wise median.
func baselineMedianSpec(k, q int, atk attack.Attack) RunSpec {
	return baselineSpec("Median", k, q, atk, "median", registry.AggregatorParams{})
}

// detoxMoMSpec is DETOX with median-of-means on the vote winners: the
// registry's three groups, so that group means are true means — one
// corrupted winner pollutes its whole group, the weakness ALIE exploits.
func detoxMoMSpec(k, r, q int, atk attack.Attack) RunSpec {
	return detoxSpec("MoM", k, r, q, atk, "median-of-means")
}

// bulyanSpec is the baseline Bulyan defense with c = q.
func bulyanSpec(k, q int, atk attack.Attack) RunSpec {
	return baselineSpec("Bulyan", k, q, atk, "bulyan", registry.AggregatorParams{C: q})
}

// multiKrumSpec is the baseline Multi-Krum defense with c = q.
func multiKrumSpec(k, q int, atk attack.Attack) RunSpec {
	return baselineSpec("Multi-Krum", k, q, atk, "multikrum", registry.AggregatorParams{C: q})
}

// detoxMultiKrumSpec pairs DETOX's vote with Multi-Krum over the K/r
// winners; the corruption parameter is the number of stolen groups
// (c_max), and feasibility (winners ≥ 2c+3) mirrors the paper's limits.
func detoxMultiKrumSpec(k, r, q int, atk attack.Attack) RunSpec {
	spec := detoxSpec("Multi-Krum", k, r, q, atk, "multikrum")
	spec.CMaxC = true
	return spec
}

// signSGDSpec is the baseline signSGD majority-vote defense.
func signSGDSpec(k, q int, atk attack.Attack) RunSpec {
	spec := baselineSpec("signSGD", k, q, atk, "signsgd", registry.AggregatorParams{})
	spec.Spec.Schedule = signSGDSchedule
	return spec
}

// detoxSignSGDSpec pairs DETOX's vote with coordinate-sign majority.
func detoxSignSGDSpec(k, r, q int, atk attack.Attack) RunSpec {
	spec := detoxSpec("signSGD", k, r, q, atk, "signsgd")
	spec.Spec.Schedule = signSGDSchedule
	return spec
}

// Figure2 — ALIE attack, median-based defenses, K = 25 (paper Fig. 2):
// baseline median, ByzShield, DETOX-MoM at q = 3 and 5.
func Figure2(ctx context.Context, opts TrainOpts) Figure {
	atk := alieAttack()
	return RunFigure(ctx, "fig2", "ALIE attack and median-based defenses (K=25)", []RunSpec{
		baselineMedianSpec(25, 3, atk),
		baselineMedianSpec(25, 5, atk),
		byzShieldSpec(25, 3, atk),
		byzShieldSpec(25, 5, atk),
		detoxMoMSpec(25, 5, 3, atk),
		detoxMoMSpec(25, 5, 5, atk),
	}, opts)
}

// Figure3 — ALIE attack, Bulyan defenses, K = 25 (paper Fig. 3).
func Figure3(ctx context.Context, opts TrainOpts) Figure {
	atk := alieAttack()
	return RunFigure(ctx, "fig3", "ALIE attack and Bulyan-based defenses (K=25)", []RunSpec{
		bulyanSpec(25, 3, atk),
		bulyanSpec(25, 5, atk),
		byzShieldSpec(25, 3, atk),
		byzShieldSpec(25, 5, atk),
	}, opts)
}

// Figure4 — ALIE attack, Multi-Krum defenses, K = 25 (paper Fig. 4).
func Figure4(ctx context.Context, opts TrainOpts) Figure {
	atk := alieAttack()
	return RunFigure(ctx, "fig4", "ALIE attack and Multi-Krum-based defenses (K=25)", []RunSpec{
		multiKrumSpec(25, 3, atk),
		multiKrumSpec(25, 5, atk),
		byzShieldSpec(25, 3, atk),
		byzShieldSpec(25, 5, atk),
		detoxMultiKrumSpec(25, 5, 3, atk),
		detoxMultiKrumSpec(25, 5, 5, atk),
	}, opts)
}

// Figure5 — Constant attack, signSGD defenses, K = 25 (paper Fig. 5).
// ByzShield keeps its median pipeline, as in the paper.
func Figure5(ctx context.Context, opts TrainOpts) Figure {
	atk := attack.Constant{ScaleByFileSize: true}
	return RunFigure(ctx, "fig5", "Constant attack and signSGD-based defenses (K=25)", []RunSpec{
		signSGDSpec(25, 3, atk),
		signSGDSpec(25, 5, atk),
		byzShieldSpec(25, 3, atk),
		byzShieldSpec(25, 5, atk),
		detoxSignSGDSpec(25, 5, 3, atk),
		detoxSignSGDSpec(25, 5, 5, atk),
	}, opts)
}

// Figure6 — Reversed-gradient attack, median defenses, K = 25
// (paper Fig. 6): includes the q = 9 regime where DETOX's ε̂ = 0.6
// breaks the defense.
func Figure6(ctx context.Context, opts TrainOpts) Figure {
	atk := attack.Reversed{C: 1}
	return RunFigure(ctx, "fig6", "Reversed gradient attack and median-based defenses (K=25)", []RunSpec{
		baselineMedianSpec(25, 3, atk),
		baselineMedianSpec(25, 9, atk),
		byzShieldSpec(25, 3, atk),
		byzShieldSpec(25, 9, atk),
		detoxMoMSpec(25, 5, 3, atk),
		detoxMoMSpec(25, 5, 9, atk),
	}, opts)
}

// Figure7 — Reversed-gradient attack, Bulyan defenses, K = 25
// (paper Fig. 7): Bulyan is infeasible at q = 9 while ByzShield still
// converges (ε̂ = 0.36).
func Figure7(ctx context.Context, opts TrainOpts) Figure {
	atk := attack.Reversed{C: 1}
	return RunFigure(ctx, "fig7", "Reversed gradient attack and Bulyan-based defenses (K=25)", []RunSpec{
		bulyanSpec(25, 3, atk),
		bulyanSpec(25, 5, atk),
		byzShieldSpec(25, 3, atk),
		byzShieldSpec(25, 5, atk),
		byzShieldSpec(25, 9, atk),
		bulyanSpec(25, 9, atk), // expected infeasible: 25 < 4·9+3
	}, opts)
}

// Figure8 — Reversed-gradient attack, Multi-Krum defenses, K = 25
// (paper Fig. 8): DETOX-Multi-Krum is infeasible at q = 9 (needs
// 2c+3 = 9 > 5 groups).
func Figure8(ctx context.Context, opts TrainOpts) Figure {
	atk := attack.Reversed{C: 1}
	return RunFigure(ctx, "fig8", "Reversed gradient attack and Multi-Krum-based defenses (K=25)", []RunSpec{
		multiKrumSpec(25, 3, atk),
		multiKrumSpec(25, 5, atk),
		multiKrumSpec(25, 9, atk),
		byzShieldSpec(25, 3, atk),
		byzShieldSpec(25, 5, atk),
		byzShieldSpec(25, 9, atk),
		detoxMultiKrumSpec(25, 5, 3, atk),
		detoxMultiKrumSpec(25, 5, 5, atk),
		detoxMultiKrumSpec(25, 5, 9, atk), // expected infeasible
	}, opts)
}

// Figure9 — ALIE attack, median defenses, K = 15 (paper Fig. 9).
func Figure9(ctx context.Context, opts TrainOpts) Figure {
	atk := alieAttack()
	return RunFigure(ctx, "fig9", "ALIE attack and median-based defenses (K=15)", []RunSpec{
		baselineMedianSpec(15, 2, atk),
		byzShieldSpec(15, 2, atk),
		detoxMoMSpec(15, 3, 2, atk),
	}, opts)
}

// Figure10 — ALIE attack, Bulyan defenses, K = 15 (paper Fig. 10).
func Figure10(ctx context.Context, opts TrainOpts) Figure {
	atk := alieAttack()
	return RunFigure(ctx, "fig10", "ALIE attack and Bulyan-based defenses (K=15)", []RunSpec{
		bulyanSpec(15, 2, atk),
		byzShieldSpec(15, 2, atk),
	}, opts)
}

// Figure11 — ALIE attack, Multi-Krum defenses, K = 15 (paper Fig. 11).
func Figure11(ctx context.Context, opts TrainOpts) Figure {
	atk := alieAttack()
	return RunFigure(ctx, "fig11", "ALIE attack and Multi-Krum-based defenses (K=15)", []RunSpec{
		multiKrumSpec(15, 2, atk),
		byzShieldSpec(15, 2, atk),
		detoxMultiKrumSpec(15, 3, 2, atk),
	}, opts)
}

// FigureByID dispatches a figure id ("2".."11" or "fig2".."fig11").
func FigureByID(ctx context.Context, id string, opts TrainOpts) (Figure, error) {
	switch id {
	case "2", "fig2":
		return Figure2(ctx, opts), nil
	case "3", "fig3":
		return Figure3(ctx, opts), nil
	case "4", "fig4":
		return Figure4(ctx, opts), nil
	case "5", "fig5":
		return Figure5(ctx, opts), nil
	case "6", "fig6":
		return Figure6(ctx, opts), nil
	case "7", "fig7":
		return Figure7(ctx, opts), nil
	case "8", "fig8":
		return Figure8(ctx, opts), nil
	case "9", "fig9":
		return Figure9(ctx, opts), nil
	case "10", "fig10":
		return Figure10(ctx, opts), nil
	case "11", "fig11":
		return Figure11(ctx, opts), nil
	default:
		return Figure{}, fmt.Errorf("experiments: unknown figure %q", id)
	}
}
