package main

// sim-paper-k25 runs through the public byzshield package only: this
// file must not import byzshield/internal/... so the workload keeps
// working across any refactor that keeps the public API.

import (
	"context"
	"math"

	"byzshield"
)

const (
	paperQ       = 5
	paperBatch   = 750
	paperHorizon = 1 << 30 // never reached: the harness stops the session
)

type paperInstance struct {
	sess *byzshield.Session
	cfg  byzshield.TrainConfig
	// log is non-nil on the traced run. The public Session has no
	// tracer hook, so the trace carries the engine's own phase split.
	log *phaseLog
	// up and down are the logical bytes of one in-process round: K·l
	// file gradients to the PS, the parameters to K workers, 8 bytes a
	// value (the same rule as logicalBytes, from public fields only).
	up, down int64
}

// paperAssignment is the paper's Ramanujan Case 2 cluster: K=25, f=25, r=5.
func paperAssignment() (*byzshield.Assignment, error) { return byzshield.NewRamanujan2(5, 5) }

// setupPaper opens the session. The traced twin is given the untraced
// run's Byzantine set instead of searching again: the program's search
// breaks ties between equally bad sets by goroutine timing, so two
// searches can (rarely) choose different sets and then train apart.
func setupPaper(seed int64, twin instance) (instance, error) {
	asn, err := paperAssignment()
	if err != nil {
		return nil, err
	}
	mdl, err := byzshield.NewMLPModel(64, 128, 10)
	if err != nil {
		return nil, err
	}
	train, test, err := byzshield.NewSyntheticDataset(byzshield.DatasetConfig{
		Train: 6000, Test: 1000, Dim: 64, Classes: 10, ClassSep: paperClassSep, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	cfg := byzshield.TrainConfig{
		Assignment: asn, Model: mdl, Train: train, Test: test,
		BatchSize: paperBatch, Q: paperQ,
		Attack: byzshield.ALIE(), Aggregator: byzshield.Median(),
		Seed: seed, Iterations: paperHorizon, EvalEvery: paperHorizon,
	}
	if twin != nil {
		cfg.Q, cfg.Byzantines = 0, twin.(*paperInstance).sess.Byzantines()
	}
	sess, err := byzshield.Open(context.Background(), cfg)
	if err != nil {
		return nil, err
	}
	p := &paperInstance{sess: sess, cfg: cfg}
	dim := len(sess.Params())
	p.up, p.down = int64(asn.K*asn.L*dim*8), int64(asn.K*dim*8)
	if twin != nil {
		p.log = newPhaseLog(3)
	}
	return p, nil
}

func (p *paperInstance) run(observe func(roundInfo) bool) error {
	ctx := context.Background()
	for {
		r, err := p.sess.Step(ctx)
		if err != nil {
			return err
		}
		if p.log != nil {
			p.log.addSplit(r.Times.Compute, r.Times.Communication, r.Times.Aggregation)
		}
		if observe(roundInfo{
			distorted: r.DistortedFiles, missing: len(r.MissingWorkers),
			degraded: r.DegradedFiles, dropped: r.DroppedFiles,
			reportBytes: p.up, broadcastBytes: p.down,
			compute: r.Times.Compute, comm: r.Times.Communication, aggregation: r.Times.Aggregation,
		}) {
			return nil
		}
	}
}

func (p *paperInstance) accuracy() (float64, error) {
	return byzshield.EvaluateAccuracy(p.cfg.Model, p.sess.Params(), p.cfg.Test), nil
}

func (p *paperInstance) paramsHash() uint64 { return hashBits(p.sess.Params(), math.Float64bits) }

// distortionBound is the paper's c_max(q) for the assignment: the exact
// worst case over all q-subsets, independent of the set Open chose.
func (p *paperInstance) distortionBound() (int, error) {
	rep, err := byzshield.AnalyzeDistortion(p.cfg.Assignment, paperQ, 0)
	if err != nil {
		return 0, err
	}
	return rep.CMax, nil
}

func (p *paperInstance) verify(int) error { return nil }

func (p *paperInstance) layers() (layerInputs, error) {
	return layerInputs{
		asn: p.cfg.Assignment, rebuild: paperAssignment,
		mdl: p.cfg.Model, train: p.cfg.Train,
		batch: paperBatch, seed: p.cfg.Seed, agg: p.cfg.Aggregator,
		sched: byzshield.DefaultSchedule(), momentum: byzshield.DefaultMomentum,
		params: p.sess.Params(), byz: p.sess.Byzantines(),
	}, nil
}

func (p *paperInstance) tracedPhases() *phaseLog { return p.log }

func (p *paperInstance) close() { p.sess.Close() }
