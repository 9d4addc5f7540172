// Command byzps runs the TCP parameter server for real multi-process
// distributed training (the repository's stand-in for the paper's
// MPICH deployment). Start byzps first, then K byzworker processes.
// Scheme and aggregator are resolved by name through the component
// registry; SIGINT/SIGTERM cancel the run cleanly.
//
// Usage:
//
//	byzps -listen 127.0.0.1:7077 -scheme mols -l 5 -r 3 -rounds 200
//	byzworker -connect 127.0.0.1:7077 -id 0 &
//	... (one byzworker per worker id 0..K-1; some may be -attack reversed)
//
// Fault injection (the Spec carries the fault models to every worker,
// so workers crash/skip/delay themselves against the server's real
// per-round deadline and quorum handling): -faults takes semicolon-
// separated name@workers clauses, each with optional key=value knobs,
// and composes them, e.g. worker 2 flaky while worker 9 straggles:
//
//	byzps ... -faults "crash@2,9:round=50"
//	byzps ... -faults "straggler@3:delay=5s" -round-timeout 2s
//	byzps ... -faults "flaky@2:p=0.3;straggler@9:delay=2s"
//
// Byzantine detection (PS-side, between collection and aggregation;
// blacklisted workers are evicted, their rejoin tokens refused with a
// typed rejection, and their replicas excluded from every later vote):
//
//	byzps ... -detector zscore
//	byzps ... -detector cluster
//
// Both detectors run under one fixed reputation policy (internal/detect):
// an 8-round feature window, reputation decay 0.9, and a blacklist once a
// worker observed at least 10 times sinks below reputation 0.5.
//
// Parameter broadcasts ship as bit-exact deltas between periodic full
// refreshes; -full-every controls the cadence (1 = full every round).
// Worker→PS gradient reports run the uplink codec tier the PS names in
// every Welcome; each frame is self-contained:
//
//	-uplink raw     uncompressed frames (bit-exact; the default)
//	-uplink sign    lossy 1-bit sign quantization, one scale per
//	                file row — ~64x fewer gradient bytes
//	-uplink int8    lossy 8-bit linear quantization, min/scale per
//	                file row — ~8x fewer gradient bytes
//
// The lossy tiers trade exactness for bandwidth: the PS aggregates the
// dequantized values, so the trajectory is deterministic (and matches
// the in-process engine on the same tier bit for bit) but differs from
// the lossless trajectory. Every worker speaks every tier. -v logs
// per-round participation and wire-volume stats, and the lifecycle
// counters (joins, rejoins, evictions, stale frames retired) print at
// shutdown.
//
// Live observability (see DESIGN.md "Observability"): -metrics-addr
// serves /metrics (Prometheus text), /statusz (human-readable fleet
// table and recent rounds), /healthz, and /debug/pprof/* on a separate
// diagnostics listener; -trace-out streams one JSON object per round
// (phase timings, wire volume, flagged/evicted worker sets) to a file:
//
//	byzps ... -metrics-addr 127.0.0.1:9090 -trace-out run.jsonl
package main

import (
	"bufio"
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
	"time"

	"byzshield"
	"byzshield/internal/cluster"
	"byzshield/internal/linalg"
	"byzshield/internal/obs"
	"byzshield/internal/trainer"
	"byzshield/internal/transport"
	"byzshield/internal/wire"
)

// traceRingRounds is how many completed rounds the PS tracer retains
// for /statusz's recent-rounds table.
const traceRingRounds = 256

func main() {
	var (
		listen  = flag.String("listen", "127.0.0.1:7077", "listen address")
		scheme  = flag.String("scheme", "mols", "assignment scheme: "+strings.Join(byzshield.Registry.Schemes(), ", "))
		l       = flag.Int("l", 5, "computational load parameter")
		r       = flag.Int("r", 3, "replication factor")
		k       = flag.Int("k", 15, "cluster size (frc/baseline/random)")
		f       = flag.Int("f", 0, "file count (random scheme only)")
		rounds  = flag.Int("rounds", 100, "training rounds")
		batch   = flag.Int("batch", 250, "batch size")
		trainN  = flag.Int("train", 2000, "training-set size")
		testN   = flag.Int("test", 500, "test-set size")
		dim     = flag.Int("dim", 16, "feature dimension")
		classes = flag.Int("classes", 10, "number of classes")
		hidden  = flag.Int("hidden", 0, "MLP hidden width (0 = softmax)")
		agg     = flag.String("aggregator", "median", "aggregation rule: "+strings.Join(byzshield.Registry.Aggregators(), ", "))
		aggC    = flag.Int("agg-c", 0, "aggregator corruption parameter (krum/multikrum/bulyan)")
		aggG    = flag.Int("agg-groups", 0, "median-of-means group count (default 3)")
		lr      = flag.Float64("lr", 0.05, "base learning rate")
		decay   = flag.Float64("decay", 0.96, "learning-rate decay factor")
		every   = flag.Int("every", 25, "iterations between decays")
		seed    = flag.Int64("seed", 42, "experiment seed")

		roundTimeout = flag.Duration("round-timeout", transport.DefaultRoundTimeout,
			"per-round report-collection deadline (negative disables; stalled workers miss the round)")
		fullEvery = flag.Int("full-every", transport.DefaultFullBroadcastEvery,
			"full parameter-broadcast cadence (1 = full vector every round, N = deltas between every N-th round)")
		uplink = flag.String("uplink", "raw",
			"worker→PS report codec tier: raw (bit-exact), sign or int8 (lossy quantization)")
		precision = flag.String("precision", "f64",
			"numeric precision tier: f64 or f32 (float32 kernels and frames; the same protocol, for the models and coordinate-wise aggregators that have float32 kernels)")
		verbose = flag.Bool("v", false,
			"log every round: missing workers, rejoins/evictions/stale frames, up/down wire bytes")
		quorum     = flag.Int("quorum", 0, "minimum surviving replicas per file vote (0 = r/2+1)")
		faultSpecs = flag.String("faults", "",
			`worker faults to inject: "name@ids[:k=v,...]" clauses joined by ";" (e.g. "flaky@2:p=0.3;straggler@9:delay=2s"; knobs p, round, delay, seed) over `+strings.Join(byzshield.Registry.Faults(), ", "))
		detector = flag.String("detector", "",
			"PS-side Byzantine detector: "+strings.Join(byzshield.Registry.Detectors(), ", ")+" (empty = none)")
		metricsAddr = flag.String("metrics-addr", "",
			"diagnostics listen address serving /metrics, /statusz, /healthz and /debug/pprof (empty = disabled)")
		traceOut = flag.String("trace-out", "",
			"stream per-round traces as JSONL to this file (empty = disabled)")
	)
	flag.Parse()

	tier, err := wire.ParseUplinkTier(*uplink)
	if err != nil {
		fmt.Fprintln(os.Stderr, "byzps:", err)
		os.Exit(2)
	}

	faults, err := parseFaultSpecs(*faultSpecs, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "byzps:", err)
		os.Exit(2)
	}

	spec := transport.Spec{
		Scheme: *scheme, L: *l, R: *r, K: *k, F: *f,
		Aggregator: *agg,
		AggParams:  byzshield.AggregatorParams{C: *aggC, Groups: *aggG},
		TrainN:     *trainN, TestN: *testN, Dim: *dim, Classes: *classes,
		DataSeed: *seed, ClassSep: 2.0, Hidden: *hidden,
		BatchSize: *batch,
		Schedule:  trainer.Schedule{Base: *lr, Decay: *decay, Every: *every},
		Momentum:  0.9, Seed: *seed, Rounds: *rounds,
		Quorum:   *quorum,
		Faults:   faults,
		Detector: *detector,
	}
	prec, err := wire.ParsePrecision(*precision)
	if err != nil {
		fmt.Fprintln(os.Stderr, "byzps:", err)
		os.Exit(2)
	}
	srvCfg := transport.ServerConfig{
		Spec:               spec,
		Logf:               log.Printf,
		RoundTimeout:       *roundTimeout,
		FullBroadcastEvery: *fullEvery,
		Uplink:             tier,
	}
	// Observability plane: the registry and tracer are created whenever
	// either output (HTTP scrape or JSONL stream) wants them; every
	// hot-path instrument is an atomic store, so enabling them does not
	// perturb the trajectory or the round allocation budget.
	var (
		registry *obs.Registry
		tracer   *obs.Tracer
	)
	if *metricsAddr != "" || *traceOut != "" {
		registry = obs.NewRegistry()
		tracer = obs.NewTracer(traceRingRounds)
		srvCfg.Metrics = registry
		srvCfg.Tracer = tracer
	}
	var traceFlush func() error
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "byzps:", err)
			os.Exit(1)
		}
		bw := bufio.NewWriter(f)
		tracer.SetSink(bw)
		traceFlush = func() error {
			if err := bw.Flush(); err != nil {
				return err
			}
			return f.Close()
		}
	}
	if *verbose {
		srvCfg.OnRound = func(rs cluster.RoundStats) {
			log.Printf("round %d: missing=%v rejoins=%d evictions=%d stale=%d upB=%d (raw %d) downB=%d",
				rs.Iteration, rs.MissingWorkers, rs.Rejoins, rs.Evictions, rs.StaleFrames,
				rs.Times.ReportBytes, rs.Times.ReportRawBytes, rs.Times.BroadcastBytes)
			if rs.FlaggedWorkers > 0 || rs.Blacklisted > 0 {
				log.Printf("round %d: detection: flagged=%d mean-rep=%.3f blacklisted=%d (new %v)",
					rs.Iteration, rs.FlaggedWorkers, rs.MeanReputation, rs.Blacklisted, rs.BlacklistedWorkers)
			}
		}
	} else if *detector != "" && *detector != "none" {
		// Blacklisting is worth a log line even without -v: the worker's
		// session is permanently revoked.
		srvCfg.OnRound = func(rs cluster.RoundStats) {
			if len(rs.BlacklistedWorkers) > 0 {
				log.Printf("round %d: blacklisted workers %v (mean reputation %.3f)",
					rs.Iteration, rs.BlacklistedWorkers, rs.MeanReputation)
			}
		}
	}
	opts := serveOptions{
		listen: *listen, metricsAddr: *metricsAddr,
		registry: registry, tracer: tracer, traceFlush: traceFlush,
	}
	if prec == wire.PrecisionF32 {
		serve[float32](srvCfg, opts)
	} else {
		serve[float64](srvCfg, opts)
	}
}

// serveOptions is what serve needs beyond the server config.
type serveOptions struct {
	listen, metricsAddr string
	registry            *obs.Registry
	tracer              *obs.Tracer
	traceFlush          func() error
}

// serve binds the width-T parameter server, runs it until the rounds
// are done or a signal cancels it, and prints the lifecycle summary.
func serve[T linalg.Float](srvCfg transport.ServerConfig, o serveOptions) {
	srv, err := transport.NewServerOf[T](o.listen, srvCfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "byzps:", err)
		os.Exit(1)
	}
	defer srv.Close()

	if o.metricsAddr != "" {
		diag, err := obs.ListenAndServe(o.metricsAddr, obs.ServerOptions{
			Registry: o.registry,
			Fleet:    srv.Fleet(),
			Tracer:   o.tracer,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "byzps:", err)
			os.Exit(1)
		}
		defer diag.Close()
		log.Printf("diagnostics on http://%s (/metrics /statusz /healthz /debug/pprof)", diag.Addr())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	log.Printf("%s parameter server listening on %s (scheme=%s, aggregator=%s, waiting for workers)",
		wire.PrecisionOf[T](), srv.Addr(), srvCfg.Spec.Scheme, srvCfg.Spec.Aggregator)
	final, err := srv.Serve(ctx)
	// The shutdown summary is a formatted view of the same atomics the
	// /metrics lifecycle counters read live — one source, two views.
	logCounters := func() {
		c := srv.Counters()
		log.Printf("lifecycle: joins=%d rejoins=%d evictions=%d stale-frames=%d blacklist-rejections=%d",
			c.Joins, c.Rejoins, c.Evictions, c.StaleFrames, c.BlacklistRejections)
	}
	closeTrace := func() {
		if o.traceFlush == nil {
			return
		}
		if err := o.traceFlush(); err != nil {
			log.Printf("trace flush: %v", err)
		}
	}
	if err != nil {
		if errors.Is(err, context.Canceled) {
			log.Printf("interrupted; %d evaluations recorded", len(srv.History().Points))
			logCounters()
			closeTrace()
			os.Exit(130)
		}
		logCounters()
		closeTrace()
		fmt.Fprintln(os.Stderr, "byzps:", err)
		os.Exit(1)
	}
	logCounters()
	closeTrace()
	fmt.Printf("final top-1 test accuracy: %.4f\n", final)
}

// parseWorkerList parses a comma-separated id list ("" → nil).
func parseWorkerList(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		id, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad worker id %q", p)
		}
		out = append(out, id)
	}
	return out, nil
}

// parseFaultSpecs parses the -faults composition syntax: semicolon-
// separated clauses of the form "name@ids" with optional ":key=value"
// knobs (p, round, delay, seed), e.g.
// "flaky@2:p=0.3;straggler@9:delay=2s;crash@5:round=40".
func parseFaultSpecs(s string, defaultSeed int64) ([]transport.FaultSpec, error) {
	if s == "" {
		return nil, nil
	}
	var out []transport.FaultSpec
	for _, clause := range strings.Split(s, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		head, knobs, _ := strings.Cut(clause, ":")
		name, ids, ok := strings.Cut(head, "@")
		if !ok {
			return nil, fmt.Errorf("fault clause %q: want name@workers", clause)
		}
		workers, err := parseWorkerList(ids)
		if err != nil {
			return nil, fmt.Errorf("fault clause %q: %w", clause, err)
		}
		fs := transport.FaultSpec{
			Name:   strings.TrimSpace(name),
			Params: byzshield.FaultParams{Workers: workers, Seed: defaultSeed},
		}
		if knobs != "" {
			for _, kv := range strings.Split(knobs, ",") {
				k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
				if !ok {
					return nil, fmt.Errorf("fault clause %q: knob %q is not key=value", clause, kv)
				}
				switch k {
				case "p":
					if fs.Params.P, err = strconv.ParseFloat(v, 64); err != nil {
						return nil, fmt.Errorf("fault clause %q: bad p: %w", clause, err)
					}
				case "round":
					if fs.Params.Round, err = strconv.Atoi(v); err != nil {
						return nil, fmt.Errorf("fault clause %q: bad round: %w", clause, err)
					}
				case "delay":
					if fs.Params.Delay, err = time.ParseDuration(v); err != nil {
						return nil, fmt.Errorf("fault clause %q: bad delay: %w", clause, err)
					}
				case "seed":
					if fs.Params.Seed, err = strconv.ParseInt(v, 10, 64); err != nil {
						return nil, fmt.Errorf("fault clause %q: bad seed: %w", clause, err)
					}
				default:
					return nil, fmt.Errorf("fault clause %q: unknown knob %q", clause, k)
				}
			}
		}
		out = append(out, fs)
	}
	return out, nil
}
