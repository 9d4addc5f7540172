package transport

import (
	"context"
	"errors"
	"math"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"byzshield/internal/attack"
	"byzshield/internal/cluster"
	"byzshield/internal/linalg"
	"byzshield/internal/registry"
	"byzshield/internal/wire"
)

// workerState is the float64 worker state the hand-rolled test workers
// build field by field.
type workerState = workerStateOf[float64]

// enginePlane configures the in-process reference of a loopback
// comparison: everything about the engine a Spec does not say.
type enginePlane struct {
	parallelism int
	tier        wire.UplinkTier
	attack      attack.Attack
	byz         []int
}

// engineParamsOf runs the in-process engine of width T over the
// experiment described by spec — its detector and fault model included —
// and returns the final parameters.
func engineParamsOf[T linalg.Float](t *testing.T, spec Spec, ep enginePlane) []T {
	t.Helper()
	b, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	agg, err := spec.BuildAggregator()
	if err != nil {
		t.Fatal(err)
	}
	det, err := spec.BuildDetector()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := cluster.NewOf(cluster.ConfigOf[T]{
		Assignment: b.Assignment, Model: b.Model, Train: b.Train, Test: b.Test,
		BatchSize: spec.BatchSize, Aggregator: agg,
		Schedule: spec.Schedule, Momentum: spec.Momentum, Seed: spec.Seed,
		Parallelism: ep.parallelism, UplinkTier: ep.tier,
		Attack: ep.attack, Byzantines: ep.byz, Fault: b.Fault,
		Detector: det, Detection: spec.DetectorParams.Policy(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for i := 0; i < spec.Rounds; i++ {
		if _, err := eng.RunRound(); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
	}
	return eng.Params()
}

// engineParams is the float64 engine at the given pool width.
func engineParams(t *testing.T, spec Spec, parallelism int) []float64 {
	t.Helper()
	return engineParamsOf[float64](t, spec, enginePlane{parallelism: parallelism})
}

// fleetOf is one loopback run: the server (closed when the test ends),
// its final parameters, every round's stats, and what each worker's
// RunWorkerOf returned.
type fleetOf[T linalg.Float] struct {
	srv    *ServerOf[T]
	params []T
	stats  []cluster.RoundStats
	errs   []error
}

// runFleetOf runs spec over loopback TCP at width T with the given
// server config; worker, when non-nil, configures worker u (its ID is
// filled in). onRound runs after the stats are recorded, on the serve
// loop, with the server in hand.
func runFleetOf[T linalg.Float](t *testing.T, spec Spec, cfg ServerConfig, worker func(u int) WorkerConfig,
	onRound func(*ServerOf[T], cluster.RoundStats)) fleetOf[T] {
	t.Helper()
	var f fleetOf[T]
	var mu sync.Mutex
	userOnRound := cfg.OnRound
	cfg.Spec = spec
	cfg.OnRound = func(rs cluster.RoundStats) {
		mu.Lock()
		f.stats = append(f.stats, rs)
		mu.Unlock()
		if userOnRound != nil {
			userOnRound(rs)
		}
		if onRound != nil {
			onRound(f.srv, rs)
		}
	}
	var err error
	if f.srv, err = NewServerOf[T]("127.0.0.1:0", cfg); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.srv.Close() })
	asn, err := spec.BuildAssignment()
	if err != nil {
		t.Fatal(err)
	}
	f.errs = make([]error, asn.K)
	var wg sync.WaitGroup
	for u := 0; u < asn.K; u++ {
		var wcfg WorkerConfig
		if worker != nil {
			wcfg = worker(u)
		}
		wcfg.ID = u
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, f.errs[wcfg.ID] = RunWorkerOf[T](context.Background(), f.srv.Addr(), wcfg)
		}()
	}
	if _, err := f.srv.Serve(context.Background()); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	f.params = f.srv.Params()
	return f
}

// healthy fails the test for every worker that returned an error.
func (f fleetOf[T]) healthy(t *testing.T) fleetOf[T] {
	t.Helper()
	for u, err := range f.errs {
		if err != nil {
			t.Errorf("worker %d: %v", u, err)
		}
	}
	return f
}

// wireParams runs the same experiment over loopback TCP and returns the
// server's final parameters.
func wireParams(t *testing.T, spec Spec) []float64 {
	t.Helper()
	return runFleetOf[float64](t, spec, ServerConfig{}, nil, nil).healthy(t).params
}

// TestLoopbackBitIdenticalToEngine: for a fixed seed with no faults,
// the serial in-process engine, the pooled in-process engine, and the
// TCP loopback cluster all execute the shared round core and must
// produce bit-identical final parameters — the wire is a transparent
// gradient source, not a second implementation of the protocol.
func TestLoopbackBitIdenticalToEngine(t *testing.T) {
	spec := testSpec(8)
	serial := engineParams(t, spec, 1)
	pooled := engineParams(t, spec, 4)
	wired := wireParams(t, spec)
	if len(serial) != len(pooled) || len(serial) != len(wired) {
		t.Fatalf("param lengths diverge: %d / %d / %d", len(serial), len(pooled), len(wired))
	}
	for i := range serial {
		sb := math.Float64bits(serial[i])
		if pb := math.Float64bits(pooled[i]); pb != sb {
			t.Fatalf("param %d: pooled engine diverged (%x vs %x)", i, pb, sb)
		}
		if wb := math.Float64bits(wired[i]); wb != sb {
			t.Fatalf("param %d: wire path diverged (%x vs %x)", i, wb, sb)
		}
	}
}

// waitRejoinPending polls until worker u has a validated rejoin
// connection parked for round-boundary admission.
func waitRejoinPending[T linalg.Float](t *testing.T, srv *ServerOf[T], u int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		srv.src.mu.Lock()
		pending := srv.src.workers[u].pending != nil
		srv.src.mu.Unlock()
		if pending {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("worker %d rejoin never became pending", u)
}

// workerToken reads worker u's current session token.
func workerToken[T linalg.Float](srv *ServerOf[T], u int) uint64 {
	srv.src.mu.Lock()
	defer srv.src.mu.Unlock()
	return srv.src.workers[u].token
}

// TestWorkerRejoinBitIdenticalTrajectory takes worker 4 out between
// rounds 3 and 4, at either width, in the two ways a worker comes back:
// "restarted" kills the process and starts a new one with the session
// token — fresh state, so its file stream seeks from round 0 to the
// round it is started on — and "reconnected" breaks the connection
// under a live process, which redials by itself and carries its stream
// on. OnRound blocks the serve loop until the rejoin is parked, so the
// replacement lands before the next round's deadline: the worker must
// participate again at the very next round boundary, no round may see a
// missing worker, and the final parameters must be bit-identical to the
// in-process engine's — a fast enough rejoin is invisible to the
// trajectory, and every worker derives the engine's batches whatever
// rounds it was there for.
func TestWorkerRejoinBitIdenticalTrajectory(t *testing.T) {
	t.Run("f64", workerRejoinBitIdentical[float64])
	t.Run("f32", workerRejoinBitIdentical[float32])
}

func workerRejoinBitIdentical[T linalg.Float](t *testing.T) {
	const victim = 4
	spec := testSpec(8)
	want := engineParamsOf[T](t, spec, enginePlane{})
	asn, err := spec.BuildAssignment()
	if err != nil {
		t.Fatal(err)
	}
	for _, restart := range []bool{true, false} {
		name := map[bool]string{true: "restarted", false: "reconnected"}[restart]
		t.Run(name, func(t *testing.T) {
			var stats []cluster.RoundStats
			var srv *ServerOf[T]
			restarted := make(chan error, 1)
			workerCtx, killWorker := context.WithCancel(context.Background())
			defer killWorker()

			srvCfg := ServerConfig{
				Spec:         spec,
				RoundTimeout: 30 * time.Second,
				OnRound: func(rs cluster.RoundStats) {
					stats = append(stats, rs)
					if rs.Iteration != 3 {
						return
					}
					// OnRound blocks the serve loop, so round 4 starts only
					// after the rejoin is parked for admission.
					if restart {
						killWorker()
						token := workerToken(srv, victim)
						go func() {
							_, err := RunWorkerOf[T](context.Background(), srv.Addr(), WorkerConfig{
								ID:          victim,
								ResumeToken: token,
							})
							restarted <- err
						}()
					} else {
						srv.src.liveConn(victim).Close()
					}
					waitRejoinPending(t, srv, victim)
				},
			}
			srv, err = NewServerOf[T]("127.0.0.1:0", srvCfg)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()

			var wg sync.WaitGroup
			for u := 0; u < asn.K; u++ {
				wg.Add(1)
				go func(u int) {
					defer wg.Done()
					ctx := context.Background()
					cfg := WorkerConfig{ID: u}
					if u == victim && restart {
						ctx = workerCtx
						cfg.ReconnectAttempts = -1 // the test restarts it explicitly
					}
					_, err := RunWorkerOf[T](ctx, srv.Addr(), cfg)
					if u == victim && restart {
						if !errors.Is(err, context.Canceled) {
							t.Errorf("killed worker returned %v, want context.Canceled", err)
						}
					} else if err != nil {
						t.Errorf("worker %d: %v", u, err)
					}
				}(u)
			}
			if _, err := srv.Serve(context.Background()); err != nil {
				t.Fatalf("Serve: %v", err)
			}
			wg.Wait()
			if restart {
				if err := <-restarted; err != nil {
					t.Errorf("restarted worker: %v", err)
				}
			}

			if len(stats) != spec.Rounds {
				t.Fatalf("recorded %d rounds, want %d", len(stats), spec.Rounds)
			}
			for _, rs := range stats {
				if len(rs.MissingWorkers) != 0 {
					t.Errorf("round %d: missing %v — rejoin before the deadline must be invisible", rs.Iteration, rs.MissingWorkers)
				}
			}
			if c := srv.Counters(); c.Rejoins != 1 {
				t.Errorf("counters %+v, want exactly one rejoin", c)
			}
			if !linalg.EqualBits(srv.Params(), want) {
				t.Fatal("the rejoin run diverged from the in-process engine")
			}
		})
	}
}

// TestEvictedWorkerRejoinsAfterMissedRounds: a worker whose connection
// breaks mid-round is evicted and its rounds degrade; restarting it
// with the session token re-admits it at the next round boundary and
// MissingWorkers shrinks back to empty for the remaining rounds.
func TestEvictedWorkerRejoinsAfterMissedRounds(t *testing.T) {
	const victim = 2
	spec := testSpec(10)

	var mu sync.Mutex
	var stats []cluster.RoundStats
	var srv *Server
	restarted := make(chan error, 1)
	srvCfg := ServerConfig{
		Spec:         spec,
		RoundTimeout: 10 * time.Second,
		OnRound: func(rs cluster.RoundStats) {
			mu.Lock()
			stats = append(stats, rs)
			mu.Unlock()
			// After the first degraded round, restart the victim with
			// its token and hold the serve loop until it is parked.
			if rs.Iteration == 4 {
				token := workerToken(srv, victim)
				go func() {
					_, err := RunWorker(context.Background(), srv.Addr(), WorkerConfig{
						ID:          victim,
						ResumeToken: token,
					})
					restarted <- err
				}()
				waitRejoinPending(t, srv, victim)
			}
		},
	}
	var err error
	srv, err = NewServer("127.0.0.1:0", srvCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	asn, err := spec.BuildAssignment()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for u := 0; u < asn.K; u++ {
		if u == victim {
			continue
		}
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			if _, err := RunWorker(context.Background(), srv.Addr(), WorkerConfig{ID: u}); err != nil {
				t.Errorf("worker %d: %v", u, err)
			}
		}(u)
	}
	// Serve runs in the background: it owns the accept loop, so the
	// victim's manual handshake below needs it live.
	serveDone := make(chan error, 1)
	go func() {
		_, err := srv.Serve(context.Background())
		serveDone <- err
	}()

	// The victim joins manually, participates through round 3, then
	// drops its connection mid-round 4 without reporting — a real crash
	// as the server sees it (EOF ⇒ eviction).
	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	victimConn := NewConn(raw)
	if _, err := victimConn.Send(Hello{WorkerID: victim, Version: wire.ProtocolVersion, Precisions: wire.PrecisionF64.Mask()}); err != nil {
		t.Fatal(err)
	}
	msg, err := victimConn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	welcome, ok := msg.(Welcome)
	if !ok {
		t.Fatalf("expected Welcome, got %T", msg)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		st, err := manualWorker(victim, welcome)
		if err != nil {
			t.Error(err)
			return
		}
		for {
			msg, err := victimConn.Recv()
			if err != nil {
				t.Errorf("victim recv: %v", err)
				return
			}
			m, ok := msg.(RoundStart)
			if !ok {
				t.Errorf("victim got %T", msg)
				return
			}
			if err := st.applyParams(&m); err != nil {
				t.Error(err)
				return
			}
			if m.Iteration == 4 {
				victimConn.Close() // crash mid-round, report never sent
				return
			}
			rep, err := st.computeReport(m.Iteration)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := victimConn.Send(rep); err != nil {
				t.Errorf("victim send: %v", err)
				return
			}
		}
	}()

	if err := <-serveDone; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	wg.Wait()
	if err := <-restarted; err != nil {
		t.Errorf("restarted worker: %v", err)
	}

	sawMissing := false
	for _, rs := range stats {
		switch {
		case rs.Iteration < 4:
			if len(rs.MissingWorkers) != 0 {
				t.Errorf("round %d: missing %v before the crash", rs.Iteration, rs.MissingWorkers)
			}
		case rs.Iteration == 4:
			if len(rs.MissingWorkers) != 1 || rs.MissingWorkers[0] != victim {
				t.Errorf("crash round missing %v, want [%d]", rs.MissingWorkers, victim)
			}
			sawMissing = true
		default:
			// Re-admitted at the round-5 boundary: participation is whole
			// again by the next round after the crash.
			if len(rs.MissingWorkers) != 0 {
				t.Errorf("round %d: missing %v after rejoin", rs.Iteration, rs.MissingWorkers)
			}
		}
	}
	if !sawMissing {
		t.Error("the crash round never degraded — test exercised nothing")
	}
}

// TestWireDeltaBroadcastReducesBytes: on the same spec, the default
// delta broadcast policy must move strictly fewer PS→worker bytes than
// FullBroadcastEvery=1 (full vector every round) while producing the
// identical parameter trajectory.
func TestWireDeltaBroadcastReducesBytes(t *testing.T) {
	spec := testSpec(8)
	run := func(fullEvery int) (int64, []float64) {
		t.Helper()
		var total int64
		srv, err := NewServer("127.0.0.1:0", ServerConfig{
			Spec:               spec,
			FullBroadcastEvery: fullEvery,
			OnRound: func(rs cluster.RoundStats) {
				if rs.Times.BroadcastBytes <= 0 {
					t.Errorf("round %d: no broadcast bytes measured", rs.Iteration)
				}
				total += rs.Times.BroadcastBytes
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		asn, err := spec.BuildAssignment()
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for u := 0; u < asn.K; u++ {
			wg.Add(1)
			go func(u int) {
				defer wg.Done()
				if _, err := RunWorker(context.Background(), srv.Addr(), WorkerConfig{ID: u}); err != nil {
					t.Errorf("worker %d: %v", u, err)
				}
			}(u)
		}
		if _, err := srv.Serve(context.Background()); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		return total, srv.Params()
	}
	fullBytes, fullParams := run(1)
	deltaBytes, deltaParams := run(DefaultFullBroadcastEvery)
	if deltaBytes >= fullBytes {
		t.Errorf("delta broadcasts moved %d bytes, always-full %d — no saving", deltaBytes, fullBytes)
	}
	for i := range fullParams {
		if math.Float64bits(fullParams[i]) != math.Float64bits(deltaParams[i]) {
			t.Fatalf("param %d: broadcast policy changed the trajectory", i)
		}
	}
}

// TestCrashedWorkerDoesNotAbortTCPTraining: a worker that crashes
// mid-run (injected via the Spec's fault model) is evicted; the
// remaining rounds vote degraded over the surviving replicas and
// training completes with per-round participation stats instead of
// erroring out.
func TestCrashedWorkerDoesNotAbortTCPTraining(t *testing.T) {
	spec := testSpec(12)
	spec.Faults = []FaultSpec{{Name: "crash", Params: registry.FaultParams{Workers: []int{2}, Round: 4}}}

	var mu sync.Mutex
	var stats []cluster.RoundStats
	srv, err := NewServer("127.0.0.1:0", ServerConfig{
		Spec:         spec,
		RoundTimeout: 10 * time.Second,
		OnRound: func(rs cluster.RoundStats) {
			mu.Lock()
			stats = append(stats, rs)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	asn, err := spec.BuildAssignment()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, asn.K)
	for u := 0; u < asn.K; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			_, errs[u] = RunWorker(context.Background(), srv.Addr(), WorkerConfig{ID: u})
		}(u)
	}
	final, err := srv.Serve(context.Background())
	if err != nil {
		t.Fatalf("Serve aborted despite quorum being met: %v", err)
	}
	wg.Wait()

	if !errors.Is(errs[2], ErrInjectedCrash) {
		t.Errorf("worker 2 returned %v, want ErrInjectedCrash", errs[2])
	}
	for u, e := range errs {
		if u != 2 && e != nil {
			t.Errorf("worker %d: %v", u, e)
		}
	}
	if len(stats) != spec.Rounds {
		t.Fatalf("recorded %d round stats, want %d", len(stats), spec.Rounds)
	}
	for _, rs := range stats[:4] {
		if len(rs.MissingWorkers) != 0 {
			t.Errorf("round %d: missing %v before the crash", rs.Iteration, rs.MissingWorkers)
		}
	}
	for _, rs := range stats[4:] {
		if len(rs.MissingWorkers) != 1 || rs.MissingWorkers[0] != 2 {
			t.Errorf("round %d: missing %v, want [2]", rs.Iteration, rs.MissingWorkers)
		}
		// Worker 2 holds l = 5 files; with r = 3 each keeps 2 survivors,
		// which meets the default quorum of 2 → degraded, not dropped.
		if rs.DegradedFiles != 5 || rs.DroppedFiles != 0 {
			t.Errorf("round %d: degraded %d dropped %d, want 5/0", rs.Iteration, rs.DegradedFiles, rs.DroppedFiles)
		}
	}
	if final < 0.5 {
		t.Errorf("degraded training accuracy %.3f < 0.5", final)
	}
}

// TestFlakySkipsDoNotEvict: a flaky worker that skips rounds with an
// explicit empty report is counted missing for those rounds but keeps
// its connection and participates again later — on the engine's batch
// of that later round, its file stream having consumed the rounds it sat
// out: the final parameters are the in-process engine's under the same
// fault plan, bit for bit, at either width.
func TestFlakySkipsDoNotEvict(t *testing.T) {
	t.Run("f64", flakySkipsDoNotEvict[float64])
	t.Run("f32", flakySkipsDoNotEvict[float32])
}

func flakySkipsDoNotEvict[T linalg.Float](t *testing.T) {
	spec := testSpec(12)
	spec.Faults = []FaultSpec{{Name: "flaky", Params: registry.FaultParams{Workers: []int{1}, P: 0.5, Seed: 9}}}
	want := engineParamsOf[T](t, spec, enginePlane{})
	f := runFleetOf[T](t, spec, ServerConfig{}, nil, nil).healthy(t)
	skipped, full := 0, 0
	for _, rs := range f.stats {
		if len(rs.MissingWorkers) > 0 {
			skipped++
		} else {
			full++
		}
	}
	if skipped == 0 || full == 0 {
		t.Errorf("flaky worker: %d skipped rounds, %d full rounds; want both > 0", skipped, full)
	}
	if c := f.srv.Counters(); c.Evictions != 0 {
		t.Errorf("counters %+v: a skip evicted", c)
	}
	if !linalg.EqualBits(f.params, want) {
		t.Fatal("the flaky fleet's trajectory diverged from the engine's under the same fault plan")
	}
}

// TestHeterogeneousWireFaults: Spec.Faults composes distinct fault
// models for distinct workers in one run — worker 1 is flaky while
// worker 3 fail-stops mid-run — and every worker process derives the
// same composed schedule from the Spec alone.
func TestHeterogeneousWireFaults(t *testing.T) {
	spec := testSpec(12)
	spec.Faults = []FaultSpec{
		{Name: "flaky", Params: registry.FaultParams{Workers: []int{1}, P: 0.5, Seed: 9}},
		{Name: "crash", Params: registry.FaultParams{Workers: []int{3}, Round: 6}},
	}

	var mu sync.Mutex
	var stats []cluster.RoundStats
	srv, err := NewServer("127.0.0.1:0", ServerConfig{
		Spec:         spec,
		RoundTimeout: 10 * time.Second,
		OnRound: func(rs cluster.RoundStats) {
			mu.Lock()
			stats = append(stats, rs)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	asn, err := spec.BuildAssignment()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, asn.K)
	for u := 0; u < asn.K; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			_, errs[u] = RunWorker(context.Background(), srv.Addr(), WorkerConfig{ID: u})
		}(u)
	}
	if _, err := srv.Serve(context.Background()); err != nil {
		t.Fatalf("Serve: %v", err)
	}
	wg.Wait()

	if !errors.Is(errs[3], ErrInjectedCrash) {
		t.Errorf("crashing worker 3 returned %v, want ErrInjectedCrash", errs[3])
	}
	for u, e := range errs {
		if u != 3 && e != nil {
			t.Errorf("worker %d: %v", u, e)
		}
	}
	flakyMissed := 0
	for _, rs := range stats {
		if rs.Iteration >= 6 && !slices.Contains(rs.MissingWorkers, 3) {
			t.Errorf("round %d: crashed worker 3 not missing (%v)", rs.Iteration, rs.MissingWorkers)
		}
		if slices.Contains(rs.MissingWorkers, 1) {
			flakyMissed++
		}
	}
	if flakyMissed == 0 || flakyMissed == len(stats) {
		t.Errorf("flaky worker 1 missed %d/%d rounds; want strictly between", flakyMissed, len(stats))
	}
}

// TestStragglerPastDeadlineMissesRoundsButSurvives: a worker whose
// every report is slower than the round deadline is marked missing each
// round, but — because frames are self-delimiting and reads resume —
// its connection survives: the server discards its stale reports at the
// next round boundary and the worker still receives the final Shutdown
// instead of being torn down. (Under protocol v1's gob stream the first
// missed deadline evicted it permanently.)
func TestStragglerPastDeadlineMissesRoundsButSurvives(t *testing.T) {
	spec := testSpec(3)
	spec.Faults = []FaultSpec{{Name: "straggler", Params: registry.FaultParams{Workers: []int{3}, Delay: 700 * time.Millisecond}}}

	var mu sync.Mutex
	var stats []cluster.RoundStats
	srv, err := NewServer("127.0.0.1:0", ServerConfig{
		Spec:         spec,
		RoundTimeout: 200 * time.Millisecond,
		OnRound: func(rs cluster.RoundStats) {
			mu.Lock()
			stats = append(stats, rs)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	asn, err := spec.BuildAssignment()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, asn.K)
	for u := 0; u < asn.K; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			_, errs[u] = RunWorker(context.Background(), srv.Addr(), WorkerConfig{ID: u})
		}(u)
	}
	if _, err := srv.Serve(context.Background()); err != nil {
		t.Fatalf("Serve aborted: %v", err)
	}
	wg.Wait()
	for u, e := range errs {
		if e != nil {
			t.Errorf("worker %d: %v (stragglers must stay connected)", u, e)
		}
	}
	for _, rs := range stats {
		if len(rs.MissingWorkers) != 1 || rs.MissingWorkers[0] != 3 {
			t.Errorf("round %d: missing %v, want [3]", rs.Iteration, rs.MissingWorkers)
		}
	}
}

// TestShardedPipelinedTrajectoryIdentity (the name and its one subtest
// predate protocols v8 and v10, which deleted the pipelined and sharded
// planes it once covered): a straggler whose reports always trail the
// rest of the fleet but land inside the collection window is never
// missing, and the wire run ends on the serial in-process engine's final
// parameters bit for bit — the engine treats a pure delay as full
// participation, and the wire path must agree.
func TestShardedPipelinedTrajectoryIdentity(t *testing.T) {
	spec := testSpec(10)
	spec.Faults = []FaultSpec{{Name: "straggler", Params: registry.FaultParams{Workers: []int{1}, Delay: 20 * time.Millisecond}}}
	base := engineParams(t, spec, 1)
	t.Run("sharded", func(t *testing.T) {
		_, params, stats := runLoopback(t, spec, ServerConfig{})
		for _, rs := range stats {
			if len(rs.MissingWorkers) != 0 {
				t.Errorf("round %d: missing %v — the straggler fell out of the window",
					rs.Iteration, rs.MissingWorkers)
			}
		}
		for i := range base {
			if math.Float64bits(base[i]) != math.Float64bits(params[i]) {
				t.Fatalf("param %d diverged from the serial engine: %v vs %v", i, base[i], params[i])
			}
		}
	})
}
