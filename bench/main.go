// Command bench is the repository's benchmark: six named workloads,
// nine end-to-end metrics each, a correctness check on every run, and a
// traced run that attributes the round to the program's layers. See
// README.md in this directory and BENCHMARK.json at the repository root.
//
// With -workload it runs that one workload in this process and prints
// the result as one JSON object on the last line of standard output.
// Without it, it runs every workload (untraced, then traced), each in a
// fresh child process of this binary, prints a table and writes
// out/results.json. With -aa it runs the untraced set twice and prints
// each metric's difference against its bound.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// outDir receives results.json and trace-<workload>.jsonl, relative to
// the checkout root the benchmark is run from.
const outDir = "bench/out"

// runLimit is how long a single workload run may take before the
// watchdog gives up on it: a mis-sized fleet waits in Serve forever.
const runLimit = 150 * time.Second

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload in-process (default: all, each in a child process)")
		seed    = flag.Int64("seed", 7, "seed for the dataset, the initial parameters and the batch stream")
		seconds = flag.Float64("seconds", 12, "length of the timed window")
		trace   = flag.Int("trace", 0, "1: the traced run (per-layer metrics); 0: the untraced run (end-to-end metrics)")
		aa      = flag.Bool("aa", false, "run the untraced set twice and compare each metric with its bound")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: bench [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-aa]")
		os.Exit(2)
	}
	o := options{seed: *seed, seconds: *seconds, outDir: outDir}
	if *name == "" {
		os.Exit(runAll(o, *aa))
	}
	wl := findWorkload(*name)
	if wl == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "bench: %s: no result after %v, giving up\n", wl.name, runLimit)
		os.Exit(3)
	})
	run := runUntraced
	if *trace == 1 {
		run = runTraced
	}
	out, err := run(wl, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", wl.name, err)
		os.Exit(1)
	}
	if !out.Correct {
		fmt.Fprintf(os.Stderr, "bench: %s: INCORRECT: %s\n", wl.name, out.why)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", wl.name, err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
