package experiments

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"slices"
	"sync"
	"time"

	"byzshield/internal/cluster"
	"byzshield/internal/linalg"
	"byzshield/internal/obs"
	"byzshield/internal/trainer"
	"byzshield/internal/transport"
	"byzshield/internal/wire"
)

// FleetMode names one aggregation-plane configuration of the scaling
// sweep.
type FleetMode struct {
	Name string
	// Uplink is the report codec tier the server names for this mode.
	Uplink wire.UplinkTier
}

// FleetModes are the planes every sweep point runs, in order:
//
//   - serial: one aggregation pass over the whole vector after every
//     report lands, raw uplink.
//   - quantized: the same plane on the lossy int8 uplink tier — every
//     report row ships whole, 8-bit linear-quantized with its own
//     min/scale parameters. Its trajectory is checked bit-for-bit
//     against an in-process engine running the same tier, not against
//     the lossless reference.
func FleetModes() []FleetMode {
	return []FleetMode{
		{Name: "serial", Uplink: wire.TierRaw},
		{Name: "quantized", Uplink: wire.TierInt8},
	}
}

// FleetPoint is one (worker count, mode) measurement of the scaling
// sweep.
type FleetPoint struct {
	Workers int
	Files   int
	Mode    string
	Rounds  int
	// Elapsed covers the measured rounds only (the warmup rounds —
	// fleet join, first broadcasts — are excluded).
	Elapsed      time.Duration
	RoundsPerSec float64
	// ParamsHash fingerprints the final parameter bits (FNV-1a over
	// the IEEE-754 words); every mode at a worker count must agree,
	// and all must agree with the in-process engine.
	ParamsHash uint64
	// BitIdentical reports that this point's final parameters matched
	// the serial in-process engine bit-for-bit.
	BitIdentical bool
}

// FleetConfig parameterizes the scaling sweep.
type FleetConfig struct {
	// WorkerCounts are the loopback fleet sizes, each a multiple of 3
	// (the FRC replication). Typical: 15, 60, 240, 960.
	WorkerCounts []int
	// Rounds per point (after Warmup).
	Rounds int
	// Warmup rounds excluded from the timing window (default 2).
	Warmup int
	// Reps runs each (worker count, mode) point this many times and
	// keeps the fastest (default 3). Loopback fleets on a shared box
	// see multi-x run-to-run noise from scheduler and GC timing;
	// best-of-N measures the plane, not the neighbors. Bit-identity is
	// checked on every rep regardless.
	Reps int
	// InputDim and Classes size the softmax model: the parameter
	// dimension is InputDim*Classes + Classes. Defaults 256 and 8
	// (dim 2056).
	InputDim, Classes int
	// Modes restricts the sweep to the named planes (default all), by
	// FleetMode.Name or by the name the point is reported under
	// ("quantized" and "quantized-f32" both select the f32 quantized
	// plane); a filter that selects no plane is an error.
	Modes []string
	// Precision selects the width the whole sweep runs at — servers,
	// workers and the reference engines; the planes are the same
	// (FleetModes). At wire.PrecisionF32 every point's Mode carries an
	// "-f32" suffix so curves of the two widths can share a file.
	Precision wire.Precision
	// Seed fixes the data/batch stream.
	Seed int64
	// Tracer, when non-nil, receives one RoundTrace per round from every
	// point's server; the sweep labels it "mode/K=<count>" per point so a
	// JSONL sink (byzfleet -trace-out) separates the sweep's runs.
	Tracer *obs.Tracer
	// Logf receives progress lines; nil disables.
	Logf func(format string, args ...any)
}

// fleetSpec builds the sweep's Spec for one worker count: FRC(K, 3) —
// one file per worker, K/3 files — with a one-sample-per-file batch, so
// the per-round cost is wire- and plane-dominated rather than
// compute-dominated.
//
// The data seed is deliberately not the model seed. data.Synthetic draws
// the class means from the head of the very random stream
// model.InitParams draws the softmax weights from, so with equal seeds
// the initial weight matrix is the class-mean matrix rescaled — a matched
// filter that classifies every sample at once with gradients below half
// an ulp of any weight, and the sweep would compare parameter vectors
// that never moved (engineFinalParams refuses such a run).
func (c FleetConfig) fleetSpec(k int) transport.Spec {
	f := k / 3
	train := 4 * f
	if train < 256 {
		train = 256
	}
	return transport.Spec{
		Scheme: "frc", R: 3, K: k,
		Aggregator: "mean",
		TrainN:     train, TestN: 64,
		Dim: c.InputDim, Classes: c.Classes,
		DataSeed: c.Seed + 1, ClassSep: 2.0,
		BatchSize: f,
		Schedule:  trainer.Schedule{Base: 0.05, Decay: 0.98, Every: 50},
		Momentum:  0.9, Seed: c.Seed, Rounds: c.Rounds + c.Warmup,
	}
}

// engineFinalParams runs the in-process engine of width T over spec and
// returns its final parameters — the reference trajectory a wire mode
// must reproduce bit-for-bit. Lossless modes all share one reference
// (the codec choice cannot move a bit); a lossy mode needs the engine
// pinned to its own tier. A run that leaves the parameters where they
// started is an error: bit-identity between vectors that never moved
// checks nothing.
func engineFinalParams[T linalg.Float](spec transport.Spec, tier wire.UplinkTier) ([]T, error) {
	cfg, err := transport.EngineConfigOf[T](&spec)
	if err != nil {
		return nil, err
	}
	cfg.UplinkTier = tier
	eng, err := cluster.NewOf(cfg)
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	initial := eng.Params()
	for i := 0; i < spec.Rounds; i++ {
		if _, err := eng.RunRound(); err != nil {
			return nil, fmt.Errorf("engine round %d: %v", i, err)
		}
	}
	final := eng.Params()
	if linalg.EqualBits(initial, final) {
		return nil, fmt.Errorf("%d rounds left all %d parameters at their initial bits: the spec does not train", spec.Rounds, len(final))
	}
	return final, nil
}

// hashParams fingerprints a parameter vector's exact bits (FNV-1a over
// each value's little-endian IEEE-754 bytes).
func hashParams[T linalg.Float](p []T) uint64 {
	h := fnv.New64a()
	var b [8]byte
	w := linalg.Width[T]()
	for _, v := range p {
		binary.LittleEndian.PutUint64(b[:], linalg.Bits(v))
		h.Write(b[:w])
	}
	return h.Sum64()
}

// runFleet serves srvCfg.Spec to a loopback fleet at width T — one
// server on 127.0.0.1 and the Spec's K workers (srvCfg.Spec.K must be
// set) as goroutines sharing one SharedWorkerState — and returns the
// server's final parameters once Serve has returned and every worker has
// exited. worker, when non-nil, configures worker u; its ID and shared
// state are filled in. A worker the detector blacklisted ends with
// ErrBlacklisted: that is the server's verdict, not a fleet failure. So
// that it does end that way, and not in a reconnect loop against a
// closed listener, the serve loop waits after every blacklisting round
// until the server has refused each blacklisted worker's rejoin.
func runFleet[T linalg.Float](ctx context.Context, srvCfg transport.ServerConfig, worker func(u int) transport.WorkerConfig) ([]T, error) {
	k := srvCfg.Spec.K
	var srv *transport.ServerOf[T]
	onRound, blacklisted := srvCfg.OnRound, int64(0)
	srvCfg.OnRound = func(rs cluster.RoundStats) {
		if onRound != nil {
			onRound(rs)
		}
		blacklisted += int64(len(rs.BlacklistedWorkers))
		for deadline := time.Now().Add(10 * time.Second); srv.Counters().BlacklistRejections < blacklisted && time.Now().Before(deadline); {
			time.Sleep(2 * time.Millisecond)
		}
	}
	srv, err := transport.NewServerOf[T]("127.0.0.1:0", srvCfg)
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	shared, err := transport.NewSharedWorkerState(srvCfg.Spec)
	if err != nil {
		return nil, err
	}
	// Workers reconnect without limit; on a failed run, cancelling their
	// context is what ends those left dialling a closed listener.
	workerCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, k)
	for u := 0; u < k; u++ {
		var wcfg transport.WorkerConfig
		if worker != nil {
			wcfg = worker(u)
		}
		wcfg.ID, wcfg.Shared, wcfg.ReconnectAttempts = u, shared, -1
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[wcfg.ID] = transport.RunWorkerOf[T](workerCtx, srv.Addr(), wcfg)
		}()
	}
	if _, err := srv.Serve(ctx); err != nil {
		cancel()
		wg.Wait()
		return nil, err
	}
	wg.Wait()
	for u, err := range errs {
		if err != nil && !errors.Is(err, transport.ErrBlacklisted) {
			return nil, fmt.Errorf("worker %d: %w", u, err)
		}
	}
	return srv.Params(), nil
}

// runFleetPoint drives one sweep point's fleet and times the
// post-warmup rounds.
func runFleetPoint[T linalg.Float](ctx context.Context, c FleetConfig, spec transport.Spec, mode FleetMode) (FleetPoint, []T, error) {
	pt := FleetPoint{Workers: spec.K, Files: spec.K / 3, Mode: mode.Name, Rounds: c.Rounds}
	var windowStart, windowEnd time.Time
	params, err := runFleet[T](ctx, transport.ServerConfig{
		Spec:               spec,
		EvalEvery:          spec.Rounds + 1,
		RoundTimeout:       5 * time.Minute,
		Uplink:             mode.Uplink,
		FullBroadcastEvery: 1,
		Tracer:             c.Tracer,
		OnRound: func(rs cluster.RoundStats) {
			if rs.Iteration == c.Warmup-1 {
				windowStart = time.Now()
			}
			if rs.Iteration == spec.Rounds-1 {
				windowEnd = time.Now()
			}
		},
	}, nil)
	if err != nil {
		return pt, nil, err
	}
	if windowStart.IsZero() || windowEnd.IsZero() {
		return pt, nil, fmt.Errorf("fleet %s K=%d: timing window never closed", mode.Name, spec.K)
	}
	pt.Elapsed = windowEnd.Sub(windowStart)
	if pt.Elapsed > 0 {
		pt.RoundsPerSec = float64(c.Rounds) / pt.Elapsed.Seconds()
	}
	pt.ParamsHash = hashParams(params)
	return pt, params, nil
}

// FleetScaling runs the rounds/sec-vs-worker-count scaling sweep: for
// each worker count, the serial and quantized planes drive the same
// loopback fleet over the identical Spec, and every mode's final
// parameters are checked bit-for-bit against an in-process engine — the
// serial mode against the lossless reference, the quantized mode against
// an engine pinned to its own uplink tier. The returned points are
// grouped by worker count in mode order (serial first).
func FleetScaling(ctx context.Context, cfg FleetConfig) ([]FleetPoint, error) {
	if cfg.Rounds < 1 {
		cfg.Rounds = 20
	}
	if cfg.Warmup < 1 {
		cfg.Warmup = 2
	}
	if cfg.Reps < 1 {
		cfg.Reps = 3
	}
	if cfg.InputDim == 0 {
		cfg.InputDim = 256
	}
	if cfg.Classes == 0 {
		cfg.Classes = 8
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if len(cfg.WorkerCounts) == 0 {
		cfg.WorkerCounts = []int{15, 60, 240}
	}
	if cfg.Precision == wire.PrecisionF32 {
		return fleetScaling[float32](ctx, cfg, "-f32")
	}
	return fleetScaling[float64](ctx, cfg, "")
}

// fleetScaling is FleetScaling at width T, over a config whose defaults
// are filled; suffix marks the width in every point's Mode.
func fleetScaling[T linalg.Float](ctx context.Context, cfg FleetConfig, suffix string) ([]FleetPoint, error) {
	var modes []FleetMode
	for _, mode := range FleetModes() {
		if len(cfg.Modes) == 0 || slices.Contains(cfg.Modes, mode.Name) || slices.Contains(cfg.Modes, mode.Name+suffix) {
			modes = append(modes, mode)
		}
	}
	if len(modes) == 0 {
		return nil, fmt.Errorf("fleet: mode filter %q selects no plane", cfg.Modes)
	}
	var out []FleetPoint
	for _, k := range cfg.WorkerCounts {
		if k < 3 || k%3 != 0 {
			return nil, fmt.Errorf("fleet: worker count %d is not a positive multiple of 3 (FRC r=3)", k)
		}
		spec := cfg.fleetSpec(k)
		losslessRef, err := engineFinalParams[T](spec, wire.TierRaw)
		if err != nil {
			return nil, fmt.Errorf("fleet K=%d reference: %w", k, err)
		}
		for _, mode := range modes {
			name := mode.Name + suffix
			if cfg.Tracer != nil {
				cfg.Tracer.SetLabel(fmt.Sprintf("%s/K=%d", name, k))
			}
			ref := losslessRef
			if mode.Uplink.Lossy() {
				// A lossy mode's reference engine must quantize as the
				// wire does: same tier.
				if ref, err = engineFinalParams[T](spec, mode.Uplink); err != nil {
					return nil, fmt.Errorf("fleet %s K=%d reference: %w", name, k, err)
				}
			}
			var pt FleetPoint
			allIdentical := true
			for rep := 0; rep < cfg.Reps; rep++ {
				// Settle the heap between reps so one point's garbage
				// (thousands of conn buffers) is not collected inside the
				// next point's timing window.
				runtime.GC()
				rp, params, err := runFleetPoint[T](ctx, cfg, spec, mode)
				if err != nil {
					return nil, fmt.Errorf("fleet %s K=%d: %w", name, k, err)
				}
				allIdentical = allIdentical && linalg.EqualBits(params, ref)
				if rep == 0 || rp.RoundsPerSec > pt.RoundsPerSec {
					pt = rp
				}
			}
			pt.Mode = name
			pt.BitIdentical = allIdentical
			cfg.Logf("fleet K=%d mode=%-13s %6.2f rounds/s bit-identical=%v",
				k, name, pt.RoundsPerSec, pt.BitIdentical)
			out = append(out, pt)
		}
	}
	return out, nil
}
