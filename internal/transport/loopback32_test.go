package transport

import (
	"context"
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"byzshield/internal/attack"
	"byzshield/internal/cluster"
	"byzshield/internal/linalg"
	"byzshield/internal/obs"
	byzregistry "byzshield/internal/registry"
	"byzshield/internal/wire"
)

// engineParams32 runs the in-process f32 engine over the experiment
// described by spec and returns the final parameters.
func engineParams32(t *testing.T, spec Spec, parallelism int, tier wire.UplinkTier) []float32 {
	t.Helper()
	return engineParamsOf[float32](t, spec, enginePlane{parallelism: parallelism, tier: tier})
}

// wireParams32 runs the same experiment over loopback TCP at f32
// precision and returns the server's final parameters.
func wireParams32(t *testing.T, spec Spec, cfg ServerConfig32) []float32 {
	t.Helper()
	return runFleetOf[float32](t, spec, cfg, nil, nil).healthy(t).params
}

// expectBits32 asserts two f32 parameter vectors are bit-identical.
func expectBits32(t *testing.T, got, want []float32, label string) {
	t.Helper()
	if !linalg.EqualBits(got, want) {
		t.Fatalf("%s: parameters diverged", label)
	}
}

// TestLoopback32BitIdenticalToEngine32: for a fixed seed, the serial
// in-process f32 engine, the pooled f32 engine, and the f32 TCP
// loopback cluster must produce bit-identical final parameters — at
// reduced precision exactly as at full, the wire is a transparent
// gradient source, not a second implementation of the round. The lossy
// sign tier must likewise match between the wire and the in-process
// engine's quantize round-trip.
func TestLoopback32BitIdenticalToEngine32(t *testing.T) {
	spec := testSpec(8)
	serial := engineParams32(t, spec, 1, 0)
	pooled := engineParams32(t, spec, 4, 0)
	wired := wireParams32(t, spec, ServerConfig32{})
	expectBits32(t, pooled, serial, "pooled engine")
	expectBits32(t, wired, serial, "wire path")

	signEng := engineParams32(t, spec, 1, wire.TierSign)
	signWire := wireParams32(t, spec, ServerConfig32{Uplink: wire.TierSign})
	expectBits32(t, signWire, signEng, "sign-tier wire path")
}

// TestServer32RejectsF64Worker: pairing a float64 worker with the f32
// server is a configuration error and must fail with the typed
// precision reject, not a codec error mid-run.
func TestServer32RejectsF64Worker(t *testing.T) {
	spec := testSpec(2)
	srv, err := NewServer32("127.0.0.1:0", ServerConfig32{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		srv.Serve(ctx)
	}()
	_, err = RunWorker(ctx, srv.Addr(), WorkerConfig{ID: 0, ReconnectAttempts: -1})
	if err == nil || !strings.Contains(err.Error(), "precision") {
		t.Fatalf("f64 worker against f32 server returned %v, want a precision reject", err)
	}
	cancel()
	<-serveDone
}

// waitRejoinPending32 is waitRejoinPending on the f32 server.
func waitRejoinPending32(t *testing.T, srv *Server32, u int) {
	t.Helper()
	waitRejoinPending(t, srv, u)
}

// TestWorker32RejoinRenegotiation kills a worker between rounds on an
// int8-uplink f32 run and restarts it with its session token. The
// server names the restarted process the run's tier again, re-admits it
// at the next round boundary, and finishes the run with no missing
// rounds after the rejoin — on the bits of the tier-pinned f32 engine.
func TestWorker32RejoinRenegotiation(t *testing.T) {
	const victim = 3
	spec := testSpec(8)
	ref := engineParamsOf[float32](t, spec, enginePlane{tier: wire.TierInt8})

	var mu sync.Mutex
	var stats []cluster.RoundStats
	var srv *Server32
	restarted := make(chan error, 1)
	workerCtx, killWorker := context.WithCancel(context.Background())
	defer killWorker()

	cfg := ServerConfig32{
		Spec:         spec,
		Uplink:       wire.TierInt8,
		RoundTimeout: 30 * time.Second,
		OnRound: func(rs cluster.RoundStats) {
			mu.Lock()
			stats = append(stats, rs)
			mu.Unlock()
			if rs.Iteration != 3 {
				return
			}
			// Between rounds 3 and 4: kill the worker process, then
			// restart it with the session token. OnRound blocks the serve
			// loop, so round 4 starts only after the rejoin is parked for
			// admission.
			killWorker()
			token := workerToken(srv, victim)
			go func() {
				_, err := RunWorker32(context.Background(), srv.Addr(), WorkerConfig32{
					ID:          victim,
					ResumeToken: token,
				})
				restarted <- err
			}()
			waitRejoinPending32(t, srv, victim)
		},
	}
	var err error
	srv, err = NewServer32("127.0.0.1:0", cfg)
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
			ctx := context.Background()
			wcfg := WorkerConfig32{ID: u}
			if u == victim {
				ctx = workerCtx
				wcfg.ReconnectAttempts = -1 // the test restarts it explicitly
			}
			_, err := RunWorker32(ctx, srv.Addr(), wcfg)
			if u == victim {
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
	if err := <-restarted; err != nil {
		t.Errorf("restarted worker: %v", err)
	}

	if len(stats) != spec.Rounds {
		t.Fatalf("recorded %d rounds, want %d", len(stats), spec.Rounds)
	}
	for _, rs := range stats {
		if rs.Iteration >= 5 && len(rs.MissingWorkers) != 0 {
			t.Errorf("round %d: missing %v after the rejoin boundary", rs.Iteration, rs.MissingWorkers)
		}
	}
	if !linalg.EqualBits(srv.Params(), ref) {
		t.Error("int8 f32 trajectory with a mid-run rejoin diverged from the uninterrupted engine reference")
	}
	if c := srv.Counters(); c.Rejoins < 1 {
		t.Errorf("counters recorded %d rejoins, want >= 1", c.Rejoins)
	}
}

// TestLoopback32Planes runs, at float32, every plane the f32 tier could
// not reach while it was a second stack — a crash fault, the z-score
// detector blacklisting a Byzantine worker, an ALIE coalition, and the
// metrics/tracer plane — each against the in-process float32 engine of
// the same experiment: final parameters bit for bit, lifecycle counters
// counted once.
func TestLoopback32Planes(t *testing.T) {
	type plane struct {
		name   string
		rounds int
		spec   func(*Spec)
		cfg    ServerConfig
		engine enginePlane
		// workerErr is what the named worker's RunWorker32 must return.
		workerErr map[int]error
		want      Counters
		// blacklists is the worker the detector must evict; onward from
		// that round the server blocks until its rejoin was refused.
		blacklists int
	}
	registry, tracer := obs.NewRegistry(), obs.NewTracer(16)
	planes := []plane{
		{
			name: "crash", rounds: 10, blacklists: -1,
			spec: func(s *Spec) {
				s.Faults = []FaultSpec{{Name: "crash", Params: byzregistry.FaultParams{Workers: []int{2}, Round: 4}}}
			},
			workerErr: map[int]error{2: ErrInjectedCrash},
			want:      Counters{Joins: 15, Evictions: 1},
		},
		{
			name: "zscore-blacklist", rounds: 14, blacklists: 6,
			spec:      func(s *Spec) { s.Detector = "zscore" },
			engine:    enginePlane{attack: attack.Reversed{}, byz: []int{6}},
			workerErr: map[int]error{6: ErrBlacklisted},
			want:      Counters{Joins: 15, BlacklistRejections: 1},
		},
		{
			name: "alie", rounds: 8, blacklists: -1,
			engine: enginePlane{attack: attack.ALIE{}, byz: []int{1, 7}},
			want:   Counters{Joins: 15},
		},
		{
			name: "obs", rounds: 8, blacklists: -1,
			cfg:  ServerConfig{Metrics: registry, Tracer: tracer},
			want: Counters{Joins: 15},
		},
	}
	for _, pl := range planes {
		t.Run(pl.name, func(t *testing.T) {
			spec := testSpec(pl.rounds)
			if pl.spec != nil {
				pl.spec(&spec)
			}
			want := engineParamsOf[float32](t, spec, pl.engine)

			pl.cfg.RoundTimeout = 30 * time.Second
			f := runFleetOf[float32](t, spec, pl.cfg,
				func(u int) WorkerConfig {
					if !slices.Contains(pl.engine.byz, u) {
						return WorkerConfig{}
					}
					return WorkerConfig{Attack: pl.engine.attack, Coalition: pl.engine.byz}
				},
				func(srv *Server32, rs cluster.RoundStats) {
					if !slices.Contains(rs.BlacklistedWorkers, pl.blacklists) {
						return
					}
					// The evicted worker's automatic token rejoin must reach
					// the still-live listener and be refused; OnRound blocks
					// the serve loop, so waiting here makes that deterministic.
					for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
						if srv.Counters().BlacklistRejections > 0 {
							return
						}
					}
					t.Error("blacklisted worker's rejoin was never refused while the server was live")
				})

			expectBits32(t, f.params, want, "wire path")
			for u, err := range f.errs {
				if !errors.Is(err, pl.workerErr[u]) {
					t.Errorf("worker %d returned %v, want %v", u, err, pl.workerErr[u])
				}
			}
			got := f.srv.Counters()
			// A refused rejoin may be retried before the run ends.
			if got.BlacklistRejections > 1 && pl.want.BlacklistRejections == 1 {
				got.BlacklistRejections = 1
			}
			if got != pl.want {
				t.Errorf("lifecycle counters %+v, want %+v", got, pl.want)
			}
			if pl.cfg.Metrics == nil {
				return
			}
			// The scrape, the tracer ring and the summed RoundStats are
			// three views of the same rounds.
			var reportBytes int64
			for _, rs := range f.stats {
				reportBytes += rs.Times.ReportBytes
			}
			diag, err := obs.ListenAndServe("127.0.0.1:0", obs.ServerOptions{Registry: registry, Fleet: f.srv.Fleet(), Tracer: tracer})
			if err != nil {
				t.Fatal(err)
			}
			defer diag.Close()
			vals := scrapeMetrics(t, diag.Addr())
			for series, want := range map[string]float64{
				"byzshield_rounds_total":       float64(spec.Rounds),
				"byzshield_joins_total":        float64(pl.want.Joins),
				"byzshield_evictions_total":    0,
				"byzshield_report_bytes_total": float64(reportBytes),
			} {
				if vals[series] != want {
					t.Errorf("scrape: %s = %v, want %v", series, vals[series], want)
				}
			}
			if traces := tracer.Snapshot(nil); len(traces) != spec.Rounds {
				t.Errorf("tracer holds %d rounds, want %d", len(traces), spec.Rounds)
			}
		})
	}
}
