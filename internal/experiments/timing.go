package experiments

import (
	"context"
	"fmt"
	"time"

	"byzshield/internal/aggregate"
	"byzshield/internal/attack"
	"byzshield/internal/cluster"
)

// TimingRow is one bar group of Figure 12: the per-iteration wall-clock
// split of a scheme into computation, communication, aggregation, and
// detection, plus the exact serialized message volume.
type TimingRow struct {
	Scheme        string
	Compute       time.Duration
	Communication time.Duration
	// Aggregation covers vote + robust aggregation + optimizer step;
	// Detect is the detection/reputation pass, reported as its own
	// column (zero when no detector runs) so the Figure-12 phase split
	// shows what the Byzantine defense itself costs per iteration.
	Aggregation time.Duration
	Detect      time.Duration
	// ReportBytes is the measured worker→PS gradient-report volume as
	// the uplink codec moved it; ReportRawBytes what raw frames would
	// have cost — the two together give the realized uplink compression
	// ratio.
	ReportBytes    int64
	ReportRawBytes int64
	Rounds         int
	// MeanReputation is the fleet's mean reputation after the last
	// round (1 when detection is off); Blacklisted the final blacklist
	// size.
	MeanReputation float64
	Blacklisted    int
}

// PerIteration returns the phase times divided by the round count.
func (r TimingRow) PerIteration() (compute, comm, agg, det time.Duration) {
	n := time.Duration(r.Rounds)
	if n == 0 {
		n = 1
	}
	return r.Compute / n, r.Communication / n, r.Aggregation / n, r.Detect / n
}

// Figure12 measures the per-iteration time split for the three
// median-family schemes of the paper's timing comparison (baseline
// median, ByzShield, DETOX-MoM) under the ALIE attack with q = 3,
// K = 25. Communication is physically exercised: every worker message
// makes the uplink gradient codec's encode→decode round trip
// (MeasureComm).
func Figure12(ctx context.Context, opts TrainOpts, rounds int) ([]TimingRow, error) {
	if rounds < 1 {
		rounds = 10
	}
	specs := []RunSpec{
		baselineMedianSpec(25, 3, attack.ALIE{}),
		byzShieldSpec(25, 3, attack.ALIE{}),
		detoxMoMSpec(25, 5, 3, attack.ALIE{}),
	}
	names := []string{"Median", "ByzShield", "DETOX-MoM"}
	var rows []TimingRow
	for i, spec := range specs {
		row, err := timeOne(ctx, names[i], spec, opts, rounds)
		if err != nil {
			return nil, fmt.Errorf("experiments: timing %s: %w", names[i], err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// timeOne runs `rounds` protocol rounds with communication measurement
// enabled and reports the accumulated phase times.
func timeOne(ctx context.Context, name string, spec RunSpec, opts TrainOpts, rounds int) (TimingRow, error) {
	asn, err := buildAssignment(&spec)
	if err != nil {
		return TimingRow{}, err
	}
	byz, _ := selectByzantines(ctx, asn, spec.Q, opts.SearchBudget)
	cfg, err := opts.engineConfig()
	if err != nil {
		return TimingRow{}, err
	}
	cfg.Assignment = asn
	cfg.Attack = spec.Attack
	cfg.Byzantines = byz
	cfg.Aggregator = spec.Aggregator
	if cfg.Aggregator == nil {
		cfg.Aggregator = aggregate.Median{}
	}
	if opts.Detector != "" {
		if cfg.Detector, err = components.Detector(opts.Detector); err != nil {
			return TimingRow{}, err
		}
	}
	cfg.MeasureComm = true
	cfg.UplinkTier = opts.Uplink
	eng, err := cluster.New(cfg)
	if err != nil {
		return TimingRow{}, err
	}
	defer eng.Close()
	meanRep, blacklisted := 1.0, 0
	for t := 0; t < rounds; t++ {
		stats, err := eng.StepOnce(ctx)
		if err != nil {
			return TimingRow{}, err
		}
		meanRep = stats.MeanReputation
		blacklisted = stats.Blacklisted
	}
	times := eng.Times()
	return TimingRow{
		Scheme:         name,
		Compute:        times.Compute,
		Communication:  times.Communication,
		Aggregation:    times.Aggregation,
		Detect:         times.Detect,
		ReportBytes:    times.ReportBytes,
		ReportRawBytes: times.ReportRawBytes,
		Rounds:         rounds,
		MeanReputation: meanRep,
		Blacklisted:    blacklisted,
	}, nil
}
