// Command byzworker is the worker-process counterpart of byzps: it
// connects to the parameter server, computes file gradient sums for its
// assigned files every round, and optionally behaves Byzantine.
// SIGINT/SIGTERM cancel the run cleanly.
//
// If the connection to the PS breaks mid-run the worker reconnects
// automatically with its session token (bounded by -reconnects) and is
// re-admitted at the next round boundary with a full parameter
// broadcast. A worker process that was restarted from scratch can
// re-enter the run it was evicted from by passing the session token its
// first join logged:
//
//	byzworker -connect 127.0.0.1:7077 -id 0
//	byzworker -connect 127.0.0.1:7077 -id 3 -resume-token 0x1f3a...
//
// A Byzantine worker runs any attack of the component registry, the same
// object the in-process engine runs: it replays the round locally (the
// batch stream from the Spec, every file's gradient against the round's
// parameters) and reports what the attack crafts for its files. Workers
// started with the same -attack and -coalition are one colluding
// adversary, with no channel between them:
//
//	byzworker -connect 127.0.0.1:7077 -id 3 -attack alie -coalition 3,7
//	byzworker -connect 127.0.0.1:7077 -id 7 -attack alie -coalition 3,7
//	byzworker -connect 127.0.0.1:7077 -id 9 -attack reversed -attack-param 2
//
// The uplink codec tier is the PS's to name (byzps -uplink); a worker
// speaks every tier.
//
// -metrics-addr serves the worker-side mirror of the PS diagnostics:
// byzworker_* counters (rounds, report bytes, skips, reconnects), the
// current-round gauge, and /debug/pprof — so a fleet operator can tell
// a computing worker from a wedged one without asking the PS.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"byzshield"
	"byzshield/internal/obs"
	"byzshield/internal/transport"
	"byzshield/internal/wire"
)

func main() {
	var (
		connect     = flag.String("connect", "127.0.0.1:7077", "parameter server address")
		id          = flag.Int("id", -1, "worker id (0..K-1)")
		attackName  = flag.String("attack", "", "behave Byzantine with this attack (empty = honest): "+strings.Join(byzshield.Registry.Attacks(), ", "))
		attackParam = flag.Float64("attack-param", 0,
			"the attack's knob — constant's value, reversed's magnitude, alie's z, random-gaussian's scale (0 = its default)")
		coalition  = flag.String("coalition", "", "comma-separated ids of the workers running -attack together, this one included (empty = alone)")
		reconnects = flag.Int("reconnects", transport.DefaultReconnectAttempts,
			"automatic rejoin attempts after a lost connection (negative disables)")
		resumeToken = flag.String("resume-token", "",
			"session token (hex, from the first join's log line) to rejoin a run after a process restart")
		precision = flag.String("precision", "f64",
			"numeric precision tier: f64 or f32 — must match the byzps -precision it connects to")
		quiet       = flag.Bool("quiet", false, "suppress progress logging")
		metricsAddr = flag.String("metrics-addr", "",
			"diagnostics listen address serving /metrics, /healthz and /debug/pprof (empty = disabled)")
	)
	flag.Parse()
	if *id < 0 {
		fmt.Fprintln(os.Stderr, "byzworker: -id is required")
		os.Exit(2)
	}
	var atk byzshield.Attack
	var colluders []int
	if *attackName != "" {
		x := *attackParam
		var err error
		if atk, err = byzshield.Registry.Attack(*attackName, byzshield.AttackParams{Value: x, C: x, Z: x, Scale: x}); err != nil {
			fmt.Fprintln(os.Stderr, "byzworker:", err)
			os.Exit(2)
		}
		for _, f := range strings.FieldsFunc(*coalition, func(r rune) bool { return r == ',' }) {
			u, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				fmt.Fprintf(os.Stderr, "byzworker: bad worker id %q in -coalition\n", f)
				os.Exit(2)
			}
			colluders = append(colluders, u)
		}
	}
	var token uint64
	if *resumeToken != "" {
		t, err := strconv.ParseUint(trimHexPrefix(*resumeToken), 16, 64)
		if err != nil {
			fmt.Fprintln(os.Stderr, "byzworker: bad -resume-token:", err)
			os.Exit(2)
		}
		token = t
	}
	prec, err := wire.ParsePrecision(*precision)
	if err != nil {
		fmt.Fprintln(os.Stderr, "byzworker:", err)
		os.Exit(2)
	}
	logf := log.Printf
	if *quiet {
		logf = func(string, ...any) {}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var registry *obs.Registry
	if *metricsAddr != "" {
		registry = obs.NewRegistry()
		diag, err := obs.ListenAndServe(*metricsAddr, obs.ServerOptions{Registry: registry})
		if err != nil {
			fmt.Fprintln(os.Stderr, "byzworker:", err)
			os.Exit(1)
		}
		defer diag.Close()
		logf("worker %d: diagnostics on http://%s (/metrics /healthz /debug/pprof)", *id, diag.Addr())
	}

	run := transport.RunWorker
	if prec == wire.PrecisionF32 {
		run = transport.RunWorker32
	}
	final, err := run(ctx, *connect, transport.WorkerConfig{
		ID:                *id,
		Attack:            atk,
		Coalition:         colluders,
		ReconnectAttempts: *reconnects,
		ResumeToken:       token,
		Metrics:           registry,
		Logf:              logf,
	})
	if err != nil {
		if errors.Is(err, context.Canceled) {
			log.Printf("worker %d interrupted", *id)
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "byzworker:", err)
		os.Exit(1)
	}
	fmt.Printf("worker %d done; final accuracy %.4f\n", *id, final)
}

// trimHexPrefix strips an optional 0x/0X prefix.
func trimHexPrefix(s string) string {
	if len(s) > 2 && (s[:2] == "0x" || s[:2] == "0X") {
		return s[2:]
	}
	return s
}
