package transport

import (
	"context"
	"errors"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"byzshield/internal/advnet"
	"byzshield/internal/attack"
	"byzshield/internal/cluster"
)

// TestDetectorLoopbackBitIdentical: an active detector observes the
// collected gradients but must not perturb the arithmetic of a clean
// run — serial engine, pooled engine, and TCP loopback with the zscore
// detector enabled all produce bit-identical final parameters, and none
// of them blacklists an honest worker.
func TestDetectorLoopbackBitIdentical(t *testing.T) {
	spec := testSpec(12)
	spec.Detector = "zscore"
	serial := engineParams(t, spec, 1)
	pooled := engineParams(t, spec, 4)
	wired := wireParams(t, spec)
	if len(serial) != len(pooled) || len(serial) != len(wired) {
		t.Fatalf("param lengths diverge: %d / %d / %d", len(serial), len(pooled), len(wired))
	}
	for i := range serial {
		sb := math.Float64bits(serial[i])
		if pb := math.Float64bits(pooled[i]); pb != sb {
			t.Fatalf("param %d: pooled engine diverged under zscore detector (%x vs %x)", i, pb, sb)
		}
		if wb := math.Float64bits(wired[i]); wb != sb {
			t.Fatalf("param %d: wire path diverged under zscore detector (%x vs %x)", i, wb, sb)
		}
	}
}

// attackEngineParams runs the in-process engine with the given attack
// and Byzantine set and returns the final parameters.
func attackEngineParams(t *testing.T, spec Spec, atk attack.Attack, byz []int) []float64 {
	t.Helper()
	return engineParamsOf[float64](t, spec, enginePlane{attack: atk, byz: byz})
}

// TestSidecarALIEBitIdenticalToEngine: the cross-process ALIE coalition
// — Byzantine workers coordinating through the byzadv moment hub — must
// reproduce the in-process omniscient ALIE attack bit-for-bit. The
// coalition leader reconstructs the honest per-file gradients from the
// shared Spec, publishes the fleet moments through the hub, and every
// member crafts the identical μ − z·σ payload the in-process oracle
// hands its Byzantines.
func TestSidecarALIEBitIdenticalToEngine(t *testing.T) {
	byz := []int{1, 7}
	spec := testSpec(8)
	want := attackEngineParams(t, spec, attack.ALIE{}, byz)

	hub, err := advnet.NewHub("127.0.0.1:0", len(byz), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	hubDone := make(chan error, 1)
	go func() { hubDone <- hub.Serve(context.Background()) }()

	srv, err := NewServer("127.0.0.1:0", ServerConfig{Spec: spec})
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
		cfg := WorkerConfig{ID: u}
		if slices.Contains(byz, u) {
			cfg.Behavior = BehaviorALIE
			cfg.AdvAddr = hub.Addr()
		}
		wg.Add(1)
		go func(cfg WorkerConfig) {
			defer wg.Done()
			if _, err := RunWorker(context.Background(), srv.Addr(), cfg); err != nil {
				t.Errorf("worker %d: %v", cfg.ID, err)
			}
		}(cfg)
	}
	if _, err := srv.Serve(context.Background()); err != nil {
		t.Fatalf("Serve: %v", err)
	}
	wg.Wait()
	if err := <-hubDone; err != nil {
		t.Fatalf("hub: %v", err)
	}

	got := srv.Params()
	if len(got) != len(want) {
		t.Fatalf("param lengths diverge: %d vs %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("param %d: sidecar ALIE diverged from in-process ALIE (%x vs %x)",
				i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// TestBlacklistedWorkerRejoinRejected: a persistently Byzantine worker
// under the default zscore reputation policy is blacklisted mid-run,
// its connection is torn down, and its automatic token rejoin is
// refused with the typed blacklist Reject — surfacing as ErrBlacklisted
// at the worker and a BlacklistRejections counter tick at the server —
// while the honest majority trains to completion over the surviving
// replicas.
func TestBlacklistedWorkerRejoinRejected(t *testing.T) {
	const victim = 6
	spec := testSpec(14)
	spec.Detector = "zscore"

	var mu sync.Mutex
	var stats []cluster.RoundStats
	var srv *Server
	srvCfg := ServerConfig{
		Spec:         spec,
		RoundTimeout: 30 * time.Second,
		OnRound: func(rs cluster.RoundStats) {
			mu.Lock()
			stats = append(stats, rs)
			mu.Unlock()
			if !slices.Contains(rs.BlacklistedWorkers, victim) {
				return
			}
			// The victim's connection was just torn down; its automatic
			// token rejoin (100ms backoff) must hit the still-live
			// listener and be refused. OnRound blocks the serve loop, so
			// waiting here makes the refusal deterministic.
			deadline := time.Now().Add(10 * time.Second)
			for time.Now().Before(deadline) {
				if srv.Counters().BlacklistRejections > 0 {
					return
				}
				time.Sleep(2 * time.Millisecond)
			}
			t.Error("blacklisted worker's rejoin was never refused while the server was live")
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
	errs := make([]error, asn.K)
	for u := 0; u < asn.K; u++ {
		cfg := WorkerConfig{ID: u}
		if u == victim {
			cfg.Behavior = BehaviorReversed
		}
		wg.Add(1)
		go func(cfg WorkerConfig) {
			defer wg.Done()
			_, errs[cfg.ID] = RunWorker(context.Background(), srv.Addr(), cfg)
		}(cfg)
	}
	if _, err := srv.Serve(context.Background()); err != nil {
		t.Fatalf("Serve aborted despite quorum surviving the blacklist: %v", err)
	}
	wg.Wait()

	if !errors.Is(errs[victim], ErrBlacklisted) {
		t.Errorf("blacklisted worker returned %v, want ErrBlacklisted", errs[victim])
	}
	for u, e := range errs {
		if u != victim && e != nil {
			t.Errorf("honest worker %d: %v", u, e)
		}
	}
	if n := srv.Counters().BlacklistRejections; n == 0 {
		t.Error("rejoin after blacklist was never refused with the typed Reject")
	}
	evictedAt := -1
	for _, rs := range stats {
		if slices.Contains(rs.BlacklistedWorkers, victim) {
			evictedAt = rs.Iteration
		}
		for _, u := range rs.BlacklistedWorkers {
			if u != victim {
				t.Errorf("round %d: honest worker %d blacklisted", rs.Iteration, u)
			}
		}
	}
	if evictedAt < 0 {
		t.Fatal("victim never blacklisted — detection layer exercised nothing")
	}
	for _, rs := range stats {
		if rs.Iteration > evictedAt && !slices.Contains(rs.MissingWorkers, victim) {
			t.Errorf("round %d: blacklisted worker %d not pre-marked missing (%v)",
				rs.Iteration, victim, rs.MissingWorkers)
		}
	}
}
