package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"text/tabwriter"
)

// childRun is one child process's result as results.json records it.
type childRun struct {
	Workload string  `json:"workload"`
	Trace    int     `json:"trace"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	outcome
}

// runChild runs one workload in a fresh process of this binary, so no
// workload inherits another's heap, goroutines or sockets. A child that
// outlives its own watchdog is killed.
func runChild(self string, wl *workload, o options, trace int) (childRun, error) {
	run := childRun{Workload: wl.name, Trace: trace, Seed: o.seed, Seconds: o.seconds}
	ctx, cancel := context.WithTimeout(context.Background(), runLimit+runLimit/10)
	defer cancel()
	cmd := exec.CommandContext(ctx, self,
		"-workload", wl.name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
		"-trace", fmt.Sprint(trace))
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return run, fmt.Errorf("%s (trace %d): %w", wl.name, trace, err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &run.outcome); err != nil {
		return run, fmt.Errorf("%s (trace %d): result line: %w", wl.name, trace, err)
	}
	if !run.Correct {
		return run, fmt.Errorf("%s (trace %d): correctness check failed, %d of %d rounds counted failed",
			wl.name, trace, run.Failed, run.Attempted)
	}
	return run, nil
}

func environment() map[string]string {
	env := map[string]string{
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"commit":     "unknown",
		"kernel":     "unknown",
	}
	if b, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		env["commit"] = strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env["kernel"] = strings.TrimSpace(string(b))
	}
	return env
}

// printRun prints one run's metrics; the round count is the sample
// count behind every per-round figure.
func printRun(tw *tabwriter.Writer, wl *workload, run childRun, defs []metricDef) {
	fmt.Fprintf(tw, "%s\ttrace=%d\trounds=%d\tfailed=%d\t\n", run.Workload, run.Trace, run.Attempted, run.Failed)
	for _, d := range defs {
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\t\n", d.name, run.Metrics[d.name].Value, d.unit)
	}
	if v, ok := run.Metrics["rounds_per_s"]; ok {
		fmt.Fprintf(tw, "  samples_per_s (not gated)\t%.6g\tsamples/s\t\n", v.Value*float64(wl.batch))
	}
}

// runAll runs every workload in child processes and returns the exit
// code: 0 only when every run finished and passed its checks.
func runAll(o options, aa bool) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	env := environment()
	fmt.Printf("environment: %v\n", env)
	var runs []childRun
	var failures []string
	record := func(wl *workload, trace int) childRun {
		run, err := runChild(self, wl, o, trace)
		if err != nil {
			failures = append(failures, err.Error())
			fmt.Fprintln(os.Stderr, "bench: FAILED:", err)
		}
		runs = append(runs, run)
		return run
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	if aa {
		fmt.Fprintln(tw, "workload\tmetric\tA\tB\tworse by\tbound\t")
		for i := range workloads {
			a, b := record(&workloads[i], 0), record(&workloads[i], 0)
			if a.Metrics == nil || b.Metrics == nil {
				continue
			}
			for _, d := range endToEnd {
				va, vb := a.Metrics[d.name].Value, b.Metrics[d.name].Value
				worse := (vb - va) / va
				if d.better == "higher" {
					worse = -worse
				}
				flag := ""
				if worse > d.bound || -worse > d.bound {
					flag = "EXCEEDS"
				}
				fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.2f%%\t%.0f%%\t%s\n",
					workloads[i].name, d.name, va, vb, 100*worse, 100*d.bound, flag)
			}
		}
	} else {
		for i := range workloads {
			printRun(tw, &workloads[i], record(&workloads[i], 0), endToEnd)
		}
		for i := range workloads {
			printRun(tw, &workloads[i], record(&workloads[i], 1), perLayer)
		}
	}
	tw.Flush()
	if err := writeResults(filepath.Join(o.outDir, "results.json"), env, runs); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if len(failures) > 0 {
		fmt.Fprintf(os.Stderr, "bench: %d run(s) failed:\n  %s\n", len(failures), strings.Join(failures, "\n  "))
		return 1
	}
	return 0
}

func writeResults(path string, env map[string]string, runs []childRun) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(map[string]any{"environment": env, "runs": runs}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
