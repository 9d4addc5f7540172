package experiments

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"byzshield/internal/attack"
	"byzshield/internal/cluster"
	"byzshield/internal/obs"
	"byzshield/internal/registry"
	"byzshield/internal/transport"
	"byzshield/internal/wire"
)

// TimingRow is one bar group of Figure 12: a scheme's per-iteration
// wall-clock split into computation, communication, aggregation and
// detection, and its per-iteration message volume, all taken on a
// loopback fleet.
type TimingRow struct {
	Scheme string
	// Compute is the median worker's mean local gradient span, read off
	// each worker's byzworker_compute_seconds histogram.
	Compute time.Duration
	// Communication is the PS's broadcast-plus-collection span less the
	// slowest worker's mean compute span, floored at zero (see Figure12).
	Communication time.Duration
	// Aggregation covers vote + robust aggregation + optimizer step;
	// Detect is the detection/reputation pass, reported as its own
	// column (zero when no detector runs) so the Figure-12 phase split
	// shows what the Byzantine defense itself costs per iteration.
	Aggregation time.Duration
	Detect      time.Duration
	// ReportBytes is the worker→PS gradient-report volume the sockets
	// carried, ReportRawBytes what raw frames would have cost — the two
	// together give the realized uplink compression ratio — and
	// BroadcastBytes the PS→worker parameter volume.
	ReportBytes    int64
	ReportRawBytes int64
	BroadcastBytes int64
	// MeanReputation is the fleet's mean reputation after the last
	// round (1 when detection is off); Blacklisted the final blacklist
	// size.
	MeanReputation float64
	Blacklisted    int
}

// Figure12 measures the per-iteration time split for the three
// median-family schemes of the paper's timing comparison — baseline
// median, ByzShield (Ramanujan Case 2, l = r = 5) and DETOX-MoM (FRC,
// r = 5) — under the ALIE attack with q = 3, K = 25, each on a loopback
// fleet of 25 workers whose worst-case q run the attack themselves.
// opts.Spec supplies the dataset, model, schedule and detector, and
// opts.Uplink the report codec tier.
//
// Computation is the median worker's mean gradient span. Communication
// is the PS's broadcast-plus-collection span less the slowest worker's
// mean compute span: a wire Byzantine replays every file of the round to
// craft its payload (25× an honest worker's work on the baseline), the
// PS waits for it, and subtracting its compute keeps the adversary's own
// cost out of the communication bar.
func Figure12(ctx context.Context, opts TrainOpts, rounds int) ([]TimingRow, error) {
	if rounds < 1 {
		rounds = 10
	}
	base := opts.Spec
	base.Rounds = rounds
	cells := []struct {
		name string
		cell transport.Spec
	}{
		{"Median", transport.Spec{Scheme: "baseline", K: 25, Aggregator: "median"}},
		{"ByzShield", transport.Spec{Scheme: "ramanujan2", L: 5, R: 5, K: 25, Aggregator: "median"}},
		{"DETOX-MoM", transport.Spec{Scheme: "frc", R: 5, K: 25, Aggregator: "median-of-means",
			AggParams: registry.AggregatorParams{Groups: 3}}},
	}
	var rows []TimingRow
	for _, c := range cells {
		row, err := timeFleet(ctx, c.name, cellSpec(base, c.cell), opts.Uplink, opts.SearchBudget)
		if err != nil {
			return nil, fmt.Errorf("experiments: timing %s: %w", c.name, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// timeFleet runs one Figure 12 row: spec's fleet with its worst-case
// q = 3 workers running ALIE as one coalition.
func timeFleet(ctx context.Context, name string, spec transport.Spec, uplink wire.UplinkTier, budget time.Duration) (TimingRow, error) {
	asn, err := spec.BuildAssignment()
	if err != nil {
		return TimingRow{}, err
	}
	byz, _ := selectByzantines(ctx, asn, 3, budget)
	row := TimingRow{Scheme: name}
	var times cluster.PhaseTimes
	regs := make([]*obs.Registry, spec.K)
	err = runFleet(ctx, transport.ServerConfig{
		Spec:         spec,
		EvalEvery:    spec.Rounds + 1,
		RoundTimeout: 5 * time.Minute,
		Uplink:       uplink,
		OnRound: func(rs cluster.RoundStats) {
			times.Add(rs.Times)
			row.MeanReputation, row.Blacklisted = rs.MeanReputation, rs.Blacklisted
		},
	}, func(u int) transport.WorkerConfig {
		regs[u] = obs.NewRegistry()
		cfg := transport.WorkerConfig{Metrics: regs[u]}
		if slices.Contains(byz, u) {
			cfg.Attack, cfg.Coalition = attack.ALIE{}, byz
		}
		return cfg
	})
	if err != nil {
		return TimingRow{}, err
	}
	var spans []time.Duration
	for _, r := range regs {
		if span, ok := meanComputeSpan(r); ok {
			spans = append(spans, span)
		}
	}
	if len(spans) == 0 {
		return TimingRow{}, fmt.Errorf("no worker observed a compute span")
	}
	slices.Sort(spans)
	n := time.Duration(spec.Rounds)
	row.Compute = spans[len(spans)/2]
	row.Communication = max(0, times.Communication/n-spans[len(spans)-1])
	row.Aggregation = times.Aggregation / n
	row.Detect = times.Detect / n
	row.ReportBytes = times.ReportBytes / int64(n)
	row.ReportRawBytes = times.ReportRawBytes / int64(n)
	row.BroadcastBytes = times.BroadcastBytes / int64(n)
	return row, nil
}

// runFleet serves srvCfg.Spec to a loopback fleet — one server on
// 127.0.0.1 and the Spec's K workers (srvCfg.Spec.K must be set) as
// goroutines sharing one SharedWorkerState — and returns once Serve has
// returned and every worker has exited. worker, when non-nil, configures
// worker u; its ID and shared state are filled in. A worker the detector
// blacklisted ends with ErrBlacklisted: that is the server's verdict, not
// a fleet failure. So that it does end that way, and not in a reconnect
// loop against a closed listener, the serve loop waits after every
// blacklisting round until the server has refused each blacklisted
// worker's rejoin.
func runFleet(ctx context.Context, srvCfg transport.ServerConfig, worker func(u int) transport.WorkerConfig) error {
	k := srvCfg.Spec.K
	var srv *transport.Server
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
	srv, err := transport.NewServer("127.0.0.1:0", srvCfg)
	if err != nil {
		return err
	}
	defer srv.Close()
	shared, err := transport.NewSharedWorkerState(srvCfg.Spec)
	if err != nil {
		return err
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
			_, errs[wcfg.ID] = transport.RunWorker(workerCtx, srv.Addr(), wcfg)
		}()
	}
	if _, err := srv.Serve(ctx); err != nil {
		cancel()
		wg.Wait()
		return err
	}
	wg.Wait()
	for u, err := range errs {
		if err != nil && !errors.Is(err, transport.ErrBlacklisted) {
			return fmt.Errorf("worker %d: %w", u, err)
		}
	}
	return nil
}

// meanComputeSpan reads a worker's mean byzworker_compute_seconds
// observation off its registry, as a scrape of the worker would.
func meanComputeSpan(r *obs.Registry) (time.Duration, bool) {
	var sum, count float64
	for _, s := range r.Gather() {
		switch s.Name {
		case "byzworker_compute_seconds_sum":
			sum = s.Value
		case "byzworker_compute_seconds_count":
			count = s.Value
		}
	}
	if count == 0 {
		return 0, false
	}
	return time.Duration(sum / count * float64(time.Second)), true
}
