package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// RenderTable writes a distortion table in the paper's column layout.
func RenderTable(w io.Writer, spec TableSpec, rows []TableRow) {
	fmt.Fprintf(w, "%s\n", spec.Title)
	fmt.Fprintf(w, "%3s %6s %10s %12s %8s %8s\n",
		"q", "c_max", "eps_ByzSh", "eps_Baseline", "eps_FRC", "gamma")
	for _, r := range rows {
		exactMark := ""
		if !r.Exact {
			exactMark = "*" // lower bound: search budget exhausted
		}
		fmt.Fprintf(w, "%3d %5d%1s %10.2f %12.2f %8.2f %8.2f\n",
			r.Q, r.CMax, exactMark, r.EpsByz, r.EpsBaseline, r.EpsFRC, r.Gamma)
	}
	if anyInexact(rows) {
		fmt.Fprintln(w, "(* = greedy lower bound; exhaustive search budget exhausted)")
	}
}

func anyInexact(rows []TableRow) bool {
	for _, r := range rows {
		if !r.Exact {
			return true
		}
	}
	return false
}

// RenderTableCSV writes the table rows as CSV.
func RenderTableCSV(w io.Writer, rows []TableRow) {
	fmt.Fprintln(w, "q,c_max,exact,eps_byzshield,eps_baseline,eps_frc,gamma")
	for _, r := range rows {
		fmt.Fprintf(w, "%d,%d,%v,%.6f,%.6f,%.6f,%.6f\n",
			r.Q, r.CMax, r.Exact, r.EpsByz, r.EpsBaseline, r.EpsFRC, r.Gamma)
	}
}

// RenderFigure writes a figure's accuracy series as aligned text: one
// block per curve with (iteration, accuracy) pairs, plus a final
// summary line per curve.
func RenderFigure(w io.Writer, fig Figure) {
	fmt.Fprintf(w, "%s: %s\n", fig.ID, fig.Title)
	for _, c := range fig.Curves {
		if c.Err != "" {
			fmt.Fprintf(w, "  %-28s ε̂=%.2f  %s\n", c.Label, c.Epsilon, c.Err)
			continue
		}
		final := 0.0
		if n := len(c.Points); n > 0 {
			final = c.Points[n-1].Accuracy
		}
		fmt.Fprintf(w, "  %-28s ε̂=%.2f  final acc=%.3f  lr=%s\n",
			c.Label, c.Epsilon, final, c.Schedule)
	}
}

// RenderFigureSeries writes the full accuracy trajectories as text
// columns (iteration then one column per curve), the data behind the
// paper's line plots.
func RenderFigureSeries(w io.Writer, fig Figure) {
	var live []Curve
	for _, c := range fig.Curves {
		if c.Err == "" && len(c.Points) > 0 {
			live = append(live, c)
		}
	}
	if len(live) == 0 {
		fmt.Fprintln(w, "(no feasible curves)")
		return
	}
	fmt.Fprintf(w, "%10s", "iteration")
	for _, c := range live {
		fmt.Fprintf(w, " %24s", c.Label)
	}
	fmt.Fprintln(w)
	for i := range live[0].Points {
		fmt.Fprintf(w, "%10d", live[0].Points[i].Iteration)
		for _, c := range live {
			if i < len(c.Points) {
				fmt.Fprintf(w, " %24.4f", c.Points[i].Accuracy)
			} else {
				fmt.Fprintf(w, " %24s", "-")
			}
		}
		fmt.Fprintln(w)
	}
}

// RenderFigureCSV writes the accuracy series as CSV.
func RenderFigureCSV(w io.Writer, fig Figure) {
	fmt.Fprintln(w, "curve,epsilon,iteration,loss,accuracy")
	for _, c := range fig.Curves {
		if c.Err != "" {
			fmt.Fprintf(w, "%q,%.6f,,,%s\n", c.Label, c.Epsilon, strings.ReplaceAll(c.Err, ",", ";"))
			continue
		}
		for _, p := range c.Points {
			fmt.Fprintf(w, "%q,%.6f,%d,%.6f,%.6f\n", c.Label, c.Epsilon, p.Iteration, p.Loss, p.Accuracy)
		}
	}
}

// RenderTiming writes the Figure 12 per-iteration phase split, plus the
// per-iteration message volume: the worker→PS reports as moved by the
// uplink codec and raw-equivalent, and the PS→worker broadcast.
func RenderTiming(w io.Writer, rows []TimingRow) {
	fmt.Fprintf(w, "%-12s %14s %14s %14s %14s %12s %12s %8s %12s %6s %4s\n",
		"scheme", "compute/iter", "comm/iter", "agg/iter", "detect/iter", "upB/iter", "upRawB/iter", "upRatio", "downB/iter", "rep", "blk")
	for _, r := range rows {
		ratio := 1.0
		if r.ReportRawBytes > 0 {
			ratio = float64(r.ReportBytes) / float64(r.ReportRawBytes)
		}
		fmt.Fprintf(w, "%-12s %14s %14s %14s %14s %12d %12d %8.2f %12d %6.3f %4d\n",
			r.Scheme, round(r.Compute), round(r.Communication), round(r.Aggregation), round(r.Detect),
			r.ReportBytes, r.ReportRawBytes, ratio, r.BroadcastBytes, r.MeanReputation, r.Blacklisted)
	}
}

// round truncates durations to microseconds for stable rendering.
func round(d time.Duration) time.Duration { return d.Round(time.Microsecond) }
