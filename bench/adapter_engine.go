package main

// The in-process engine planes (sim-wide-f64, sim-wide-f32) and the
// pieces the fleet adapter shares with them: building a Spec's
// components and driving cluster.Engine / cluster.Engine32 behind one
// width-neutral handle.

import (
	"context"
	"fmt"
	"math"
	"time"

	"byzshield/internal/aggregate"
	"byzshield/internal/assign"
	"byzshield/internal/cluster"
	"byzshield/internal/data"
	"byzshield/internal/model"
	"byzshield/internal/obs"
	"byzshield/internal/transport"
	"byzshield/internal/wire"
)

// plane says how a workload deploys its Spec.
type plane struct {
	f32      bool
	fleet    bool            // loopback TCP fleet instead of the in-process engine
	uplink   wire.UplinkTier // fleet uplink codec tier
	shards   int             // fleet wire/aggregation shards
	pipeline bool            // fleet RoundPrep pipelining
	// fullEvery is the fleet's full-parameter broadcast cadence; 0
	// keeps the program's default (XOR-delta frames in between).
	fullEvery int
}

// tracerRing holds every round of a traced window (about 230 B each).
const tracerRing = 1 << 14

type components struct {
	asn         *assign.Assignment
	mdl         model.Model
	train, test *data.Dataset
	agg         aggregate.Aggregator
}

func buildComponents(spec transport.Spec) (components, error) {
	var c components
	var err error
	if c.asn, err = spec.BuildAssignment(); err != nil {
		return c, err
	}
	if c.mdl, err = spec.BuildModel(); err != nil {
		return c, err
	}
	if c.train, c.test, err = spec.BuildData(); err != nil {
		return c, err
	}
	c.agg, err = spec.BuildAggregator()
	return c, err
}

// engine is cluster.Engine or cluster.Engine32, whichever the plane's
// precision selects.
type engine struct {
	e64 *cluster.Engine
	e32 *cluster.Engine32
}

// newEngine builds the in-process engine for spec. shards and tier pin
// a reference engine to a lossy fleet's quantisation granularity; the
// sim planes pass zero values.
func newEngine(spec transport.Spec, c components, f32 bool, shards int, tier wire.UplinkTier, tracer *obs.Tracer) (engine, error) {
	if f32 {
		mdl32, ok := c.mdl.(model.Model32)
		if !ok {
			return engine{}, fmt.Errorf("model %s has no float32 kernels", c.mdl.Name())
		}
		agg32, ok := c.agg.(aggregate.ChunkAggregator32)
		if !ok {
			return engine{}, fmt.Errorf("aggregator %s has no float32 kernels", c.agg.Name())
		}
		e, err := cluster.New32(cluster.Config32{
			Assignment: c.asn, Model: mdl32, Train: c.train, Test: c.test,
			BatchSize: spec.BatchSize, Aggregator: agg32,
			Schedule: spec.Schedule, Momentum: spec.Momentum, Seed: spec.Seed,
			Shards: shards, UplinkTier: tier,
		})
		return engine{e32: e}, err
	}
	e, err := cluster.New(cluster.Config{
		Assignment: c.asn, Model: c.mdl, Train: c.train, Test: c.test,
		BatchSize: spec.BatchSize, Aggregator: c.agg,
		Schedule: spec.Schedule, Momentum: spec.Momentum, Seed: spec.Seed,
		Shards: shards, UplinkTier: tier, Tracer: tracer,
	})
	return engine{e64: e}, err
}

func (e engine) step(ctx context.Context) (cluster.RoundStats, error) {
	if e.e32 != nil {
		return e.e32.StepOnce(ctx)
	}
	return e.e64.StepOnce(ctx)
}

func (e engine) evaluate() float64 {
	if e.e32 != nil {
		return e.e32.Evaluate()
	}
	return e.e64.Evaluate()
}

// params returns a copy of the live parameters at the engine's width.
func (e engine) params() ([]float64, []float32) {
	if e.e32 != nil {
		return nil, e.e32.Params()
	}
	return e.e64.Params(), nil
}

func (e engine) close() {
	if e.e32 != nil {
		e.e32.Close()
	} else {
		e.e64.Close()
	}
}

func hashParams(p64 []float64, p32 []float32) uint64 {
	if p32 != nil {
		return hashBits(p32, math.Float32bits)
	}
	return hashBits(p64, math.Float64bits)
}

func infoFromStats(rs cluster.RoundStats) roundInfo {
	return roundInfo{
		distorted: rs.DistortedFiles, missing: len(rs.MissingWorkers),
		degraded: rs.DegradedFiles, dropped: rs.DroppedFiles,
		reportBytes: rs.Times.ReportBytes, broadcastBytes: rs.Times.BroadcastBytes,
		compute: rs.Times.Compute, comm: rs.Times.Communication, aggregation: rs.Times.Aggregation,
	}
}

// tracerPhases turns the shipped tracer's ring into the harness's
// phase log: prep, collect (with the broadcast send inside it), vote,
// aggregate, in the order the round core runs them.
func tracerPhases(tr *obs.Tracer) *phaseLog {
	log := newPhaseLog(5)
	for _, rt := range tr.Snapshot(nil) {
		ns := func(p obs.Phase) time.Duration { return time.Duration(rt.PhaseNS[p]) }
		log.flat = append(log.flat,
			phaseSpan{name: "prep", d: ns(obs.PhasePrep)},
			phaseSpan{name: "collect", d: ns(obs.PhaseCollect)},
			phaseSpan{name: "broadcast", d: ns(obs.PhaseBroadcast), inside: true},
			phaseSpan{name: "vote", d: ns(obs.PhaseVote)},
			phaseSpan{name: "aggregate", d: ns(obs.PhaseAggregate)})
	}
	return log
}

// simInstance is an in-process engine over a Spec.
type simInstance struct {
	spec   transport.Spec
	c      components
	eng    engine
	tracer *obs.Tracer // f64 traced runs
	log    *phaseLog   // f32 traced runs: Engine32 has no tracer hook
	// up and down are the logical bytes of one round (see logicalBytes).
	up, down int64
}

// logicalBytes is what an in-process round hands across the worker/PS
// seam, in place of the wire bytes it never serialises: every worker's
// l file gradients up and the parameter vector to every worker down, at
// the plane's value width. It keeps the byte metrics defined (and
// non-zero) on every workload; only a change of geometry or precision
// moves it.
func logicalBytes(asn *assign.Assignment, dim, width int) (up, down int64) {
	return int64(asn.K * asn.L * dim * width), int64(asn.K * dim * width)
}

func setupSim(spec transport.Spec, pl plane, traced bool) (instance, error) {
	c, err := buildComponents(spec)
	if err != nil {
		return nil, err
	}
	s := &simInstance{spec: spec, c: c}
	if traced && pl.f32 {
		s.log = newPhaseLog(3)
	} else if traced {
		s.tracer = obs.NewTracer(tracerRing)
	}
	if s.eng, err = newEngine(spec, c, pl.f32, 0, wire.TierDelta, s.tracer); err != nil {
		return nil, err
	}
	width := 8
	if pl.f32 {
		width = 4
	}
	s.up, s.down = logicalBytes(c.asn, c.mdl.NumParams(), width)
	return s, nil
}

func (s *simInstance) run(observe func(roundInfo) bool) error {
	ctx := context.Background()
	for {
		rs, err := s.eng.step(ctx)
		if err != nil {
			return err
		}
		if s.log != nil {
			s.log.addSplit(rs.Times.Compute, rs.Times.Communication, rs.Times.Aggregation)
		}
		ri := infoFromStats(rs)
		ri.reportBytes, ri.broadcastBytes = s.up, s.down
		if observe(ri) {
			return nil
		}
	}
}

func (s *simInstance) accuracy() (float64, error) { return s.eng.evaluate(), nil }

func (s *simInstance) paramsHash() uint64 { return hashParams(s.eng.params()) }

func (s *simInstance) distortionBound() (int, error) { return 0, nil }

func (s *simInstance) verify(int) error { return nil }

func (s *simInstance) layers() (layerInputs, error) {
	in := layerInputs{
		asn: s.c.asn, rebuild: s.spec.BuildAssignment, mdl: s.c.mdl, train: s.c.train,
		batch: s.spec.BatchSize, seed: s.spec.Seed, agg: s.c.agg,
		sched: s.spec.Schedule, momentum: s.spec.Momentum,
	}
	in.params, in.params32 = s.eng.params()
	return in, nil
}

func (s *simInstance) tracedPhases() *phaseLog {
	if s.tracer != nil {
		return tracerPhases(s.tracer)
	}
	return s.log
}

func (s *simInstance) close() { s.eng.close() }
