package main

// The loopback TCP fleets: one parameter server and K worker goroutines
// in this process, over real sockets, at either precision.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"byzshield/internal/cluster"
	"byzshield/internal/model"
	"byzshield/internal/obs"
	"byzshield/internal/transport"
)

// fleetHorizon is the Spec.Rounds every fleet is served with. It is
// never reached: the harness cancels the serve context when its window
// closes, and a run that hangs instead is killed by the watchdog.
const fleetHorizon = 1 << 30

// server is the part of transport.Server and transport.Server32 the
// harness drives.
type server interface {
	Addr() string
	Serve(ctx context.Context) (float64, error)
	Counters() transport.Counters
	Close() error
}

type fleetInstance struct {
	spec transport.Spec
	pl   plane
	k    int

	srv    server
	srv64  *transport.Server
	srv32  *transport.Server32
	tracer *obs.Tracer // f64 traced runs
	log    *phaseLog   // f32 traced runs: Server32 has no tracer hook

	ctx     context.Context
	cancel  context.CancelFunc
	release sync.Once
	started chan struct{} // closed by run: lets the serve loop past its first round

	// Touched only on the serve loop (inside OnRound) once started.
	observe   func(roundInfo) bool
	stopped   bool
	completed int
	// atStop is the lifecycle counters as the window closed. Cancelling
	// the serve context tears connections down under the reader pumps,
	// which the server sometimes counts as evictions; those belong to
	// the harness's way of stopping, not to the run.
	atStop transport.Counters

	serveDone chan struct{} // closed when Serve has returned
	serveErr  error         // Serve's result; read after serveDone
	workers   sync.WaitGroup
	workerMu  sync.Mutex
	workerErr error         // first worker failure that was not our own cancel
	joined    time.Duration // first dial to the last handshake

	comps *components // built on first use, after the window
}

func setupFleet(spec transport.Spec, pl plane, traced bool) (instance, error) {
	spec.Rounds = fleetHorizon
	f := &fleetInstance{spec: spec, pl: pl, started: make(chan struct{}), serveDone: make(chan struct{})}
	if traced && pl.f32 {
		f.log = newPhaseLog(3)
	} else if traced {
		f.tracer = obs.NewTracer(tracerRing)
	}
	asn, err := spec.BuildAssignment()
	if err != nil {
		return nil, err
	}
	f.k = asn.K
	var shared *transport.SharedWorkerState
	if !pl.f32 {
		if shared, err = transport.NewSharedWorkerState(spec); err != nil {
			return nil, err
		}
	}
	if pl.f32 {
		f.srv32, err = transport.NewServer32("127.0.0.1:0", transport.ServerConfig32{
			Spec: spec, EvalEvery: fleetHorizon, RoundTimeout: 5 * time.Minute,
			Uplink: pl.uplink, FullBroadcastEvery: pl.fullEvery, OnRound: f.onRound,
		})
		f.srv = f.srv32
	} else {
		f.srv64, err = transport.NewServer("127.0.0.1:0", transport.ServerConfig{
			Spec: spec, EvalEvery: fleetHorizon, RoundTimeout: 5 * time.Minute,
			Uplink: pl.uplink, FullBroadcastEvery: pl.fullEvery,
			Shards: pl.shards, Pipeline: pl.pipeline,
			OnRound: f.onRound, Tracer: f.tracer,
		})
		f.srv = f.srv64
	}
	if err != nil {
		return nil, err
	}
	f.ctx, f.cancel = context.WithCancel(context.Background())
	addr := f.srv.Addr()
	joinBegin := time.Now()
	for u := 0; u < f.k; u++ {
		f.workers.Add(1)
		go func(u int) {
			defer f.workers.Done()
			var err error
			if pl.f32 {
				_, err = transport.RunWorker32(f.ctx, addr, transport.WorkerConfig32{ID: u, ReconnectAttempts: -1})
			} else {
				_, err = transport.RunWorker(f.ctx, addr, transport.WorkerConfig{ID: u, Shared: shared, ReconnectAttempts: -1})
			}
			if err != nil && f.ctx.Err() == nil {
				f.workerMu.Lock()
				if f.workerErr == nil {
					f.workerErr = fmt.Errorf("worker %d: %w", u, err)
				}
				f.workerMu.Unlock()
			}
		}(u)
	}
	go func() {
		_, f.serveErr = f.srv.Serve(f.ctx)
		close(f.serveDone)
	}()
	// Set-up ends when the join barrier opens: all K handshakes done.
	for f.srv.Counters().Joins < int64(f.k) {
		select {
		case <-f.serveDone:
			f.close()
			return nil, fmt.Errorf("serve ended during join: %w", f.serveErr)
		case <-time.After(200 * time.Microsecond):
		}
	}
	f.joined = time.Since(joinBegin)
	return f, nil
}

// onRound runs on the serve loop after every round. The first round
// parks here until run is called, so no round is timed before the
// harness is watching.
func (f *fleetInstance) onRound(rs cluster.RoundStats) {
	select {
	case <-f.started:
	case <-f.ctx.Done():
		return
	}
	if f.stopped {
		return
	}
	f.completed++
	if f.log != nil {
		f.log.addSplit(rs.Times.Compute, rs.Times.Communication, rs.Times.Aggregation)
	}
	if f.observe(infoFromStats(rs)) {
		f.stopped = true
		f.atStop = f.srv.Counters()
		f.cancel()
	}
}

func (f *fleetInstance) run(observe func(roundInfo) bool) error {
	f.observe = observe
	f.release.Do(func() { close(f.started) })
	<-f.serveDone
	f.workers.Wait()
	if !f.stopped || !errors.Is(f.serveErr, context.Canceled) {
		return fmt.Errorf("serve ended before the window closed: %w", f.serveErr)
	}
	return nil
}

func (f *fleetInstance) close() {
	f.cancel()
	f.release.Do(func() { close(f.started) })
	<-f.serveDone
	f.workers.Wait()
	f.srv.Close()
}

func (f *fleetInstance) liveParams() ([]float64, []float32) {
	if f.pl.f32 {
		return nil, f.srv32.Params()
	}
	return f.srv64.Params(), nil
}

func (f *fleetInstance) paramsHash() uint64 { return hashParams(f.liveParams()) }

func (f *fleetInstance) components() (*components, error) {
	if f.comps == nil {
		c, err := buildComponents(f.spec)
		if err != nil {
			return nil, err
		}
		f.comps = &c
	}
	return f.comps, nil
}

func (f *fleetInstance) accuracy() (float64, error) {
	c, err := f.components()
	if err != nil {
		return 0, err
	}
	p64, p32 := f.liveParams()
	if p32 != nil {
		return model.Accuracy32(c.mdl.(model.Model32), p32, c.test.To32()), nil
	}
	return model.Accuracy(c.mdl, p64, c.test), nil
}

func (f *fleetInstance) distortionBound() (int, error) { return 0, nil }

// verify checks the lifecycle counters and replays the same Spec on
// the in-process engine for the same number of rounds: the fleet's
// final parameters must match it bit for bit. A lossy uplink quantises
// per shard range, so its reference engine is pinned to the same tier
// and shard count.
func (f *fleetInstance) verify(rounds int) error {
	f.workerMu.Lock()
	werr := f.workerErr
	f.workerMu.Unlock()
	if werr != nil {
		return werr
	}
	if rounds != f.completed {
		return fmt.Errorf("harness saw %d rounds, serve loop completed %d", rounds, f.completed)
	}
	if c := f.atStop; c.Joins != int64(f.k) || c.Rejoins != 0 || c.Evictions != 0 || c.StaleFrames != 0 {
		return fmt.Errorf("lifecycle counters not clean: %+v (want joins=%d, rest 0)", c, f.k)
	}
	c, err := f.components()
	if err != nil {
		return err
	}
	shards, tier := 0, f.pl.uplink
	if tier.Lossy() {
		shards = f.pl.shards
	} else {
		tier = 0 // lossless codecs cannot move a bit
	}
	ref, err := newEngine(f.spec, *c, f.pl.f32, shards, tier, nil)
	if err != nil {
		return err
	}
	defer ref.close()
	ctx := context.Background()
	for i := 0; i < rounds; i++ {
		if _, err := ref.step(ctx); err != nil {
			return fmt.Errorf("reference engine round %d: %w", i, err)
		}
	}
	live64, live32 := f.liveParams()
	ref64, ref32 := ref.params()
	return bitIdentical(live64, ref64, live32, ref32)
}

// bitIdentical compares the fleet's parameters with the reference
// engine's at whichever width is in use.
func bitIdentical(live64, ref64 []float64, live32, ref32 []float32) error {
	if len(live64) != len(ref64) || len(live32) != len(ref32) {
		return fmt.Errorf("parameter length differs from the reference engine")
	}
	for i := range ref64 {
		if math.Float64bits(live64[i]) != math.Float64bits(ref64[i]) {
			return fmt.Errorf("parameter %d differs from the in-process engine: %v vs %v", i, live64[i], ref64[i])
		}
	}
	for i := range ref32 {
		if math.Float32bits(live32[i]) != math.Float32bits(ref32[i]) {
			return fmt.Errorf("parameter %d differs from the in-process engine: %v vs %v", i, live32[i], ref32[i])
		}
	}
	return nil
}

func (f *fleetInstance) layers() (layerInputs, error) {
	c, err := f.components()
	if err != nil {
		return layerInputs{}, err
	}
	in := layerInputs{
		asn: c.asn, rebuild: f.spec.BuildAssignment, mdl: c.mdl, train: c.train, agg: c.agg,
		batch: f.spec.BatchSize, seed: f.spec.Seed,
		sched: f.spec.Schedule, momentum: f.spec.Momentum,
		wire: true, tier: f.pl.uplink, shards: f.pl.shards, fullEvery: f.pl.fullEvery,
		joined: f.joined,
	}
	in.params, in.params32 = f.liveParams()
	in.evictions, in.staleFrames = f.atStop.Evictions, f.atStop.StaleFrames
	return in, nil
}

func (f *fleetInstance) tracedPhases() *phaseLog {
	if f.tracer != nil {
		return tracerPhases(f.tracer)
	}
	return f.log
}
