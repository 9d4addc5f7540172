package transport

import (
	"context"
	"errors"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"byzshield/internal/attack"
	"byzshield/internal/cluster"
	"byzshield/internal/linalg"
	byzregistry "byzshield/internal/registry"
	"byzshield/internal/wire"
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

// TestWireAdversaryMatchesEngine: a Byzantine worker process runs the
// engine's own adversary on its own replica of the round, so for every
// attack of the registry a loopback fleet whose coalition — two workers
// holding a majority of one file's replicas — runs it ends on the
// engine's final parameters bit for bit: at both widths, with one
// member skipping rounds, and on the lossy uplink tiers.
// No byte passes between the members.
func TestWireAdversaryMatchesEngine(t *testing.T) {
	t.Run("f64", wireAdversaryMatchesEngine[float64])
	t.Run("f32", wireAdversaryMatchesEngine[float32])
}

func wireAdversaryMatchesEngine[T linalg.Float](t *testing.T) {
	spec := testSpec(6)
	asn, err := spec.BuildAssignment()
	if err != nil {
		t.Fatal(err)
	}
	coalition := asn.FileWorkers(0)[:2]
	byzantine := func(atk attack.Attack) func(int) WorkerConfig {
		return func(u int) WorkerConfig {
			if !slices.Contains(coalition, u) {
				return WorkerConfig{}
			}
			return WorkerConfig{Attack: atk, Coalition: coalition}
		}
	}
	planes := []struct {
		name   string
		faults []FaultSpec
	}{
		{name: "plain"},
		{name: "flaky-member", faults: []FaultSpec{
			{Name: "flaky", Params: byzregistry.FaultParams{Workers: coalition[1:], P: 0.4, Seed: 5}},
		}},
	}
	clean := engineParamsOf[T](t, spec, enginePlane{})
	// "sign-flip" is an alias of reversed, not a canonical name; old
	// command lines still name it, so it keeps its own cells.
	for _, name := range append(byzregistry.Default.Attacks(), "sign-flip") {
		atk, err := byzregistry.Default.Attack(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, pl := range planes {
			t.Run(name+"/"+pl.name, func(t *testing.T) {
				spec := spec
				spec.Faults = pl.faults
				want := engineParamsOf[T](t, spec, enginePlane{attack: atk, byz: coalition})
				if name != "benign" && pl.faults == nil && linalg.EqualBits(want, clean) {
					t.Fatal("the attack leaves the trajectory where an honest fleet puts it: the case checks nothing")
				}
				f := runFleetOf[T](t, spec, ServerConfig{RoundTimeout: 30 * time.Second}, byzantine(atk), nil).healthy(t)
				if !linalg.EqualBits(f.params, want) {
					t.Fatal("the wire coalition's trajectory diverged from the engine's")
				}
			})
		}
	}

	// Lossy tiers under a coalition: the engine quantizes each distinct
	// payload buffer once — one vector ALIE shares across its files, one
	// row per file under reversed — while every member quantizes each row
	// it sends through the real codec. Identical input bits quantize to
	// identical output bits, so the two planes still agree bit for bit.
	for _, name := range []string{"alie", "reversed"} {
		atk, err := byzregistry.Default.Attack(name)
		if err != nil {
			t.Fatal(err)
		}
		raw := engineParamsOf[T](t, spec, enginePlane{attack: atk, byz: coalition})
		for _, tier := range []wire.UplinkTier{wire.TierInt8, wire.TierSign} {
			t.Run(name+"/"+tier.String(), func(t *testing.T) {
				want := engineParamsOf[T](t, spec, enginePlane{tier: tier, attack: atk, byz: coalition})
				if linalg.EqualBits(want, raw) {
					t.Fatal("the tier leaves the trajectory on the raw bits: quantization never ran")
				}
				f := runFleetOf[T](t, spec, ServerConfig{RoundTimeout: 30 * time.Second, Uplink: tier}, byzantine(atk), nil).healthy(t)
				if !linalg.EqualBits(f.params, want) {
					t.Fatalf("the wire coalition's %s trajectory diverged from the engine's", tier)
				}
			})
		}
	}

	// What the moment hub could not survive: the detector blacklists the
	// coalition's lowest id mid-run — the member that used to publish for
	// the rest — and the other member, observed half as often because it
	// skips rounds, keeps attacking alone, exactly as the engine's does.
	t.Run("alie/lowest-id-blacklisted", func(t *testing.T) {
		spec := testSpec(28)
		spec.Detector = "zscore"
		spec.Faults = []FaultSpec{
			{Name: "flaky", Params: byzregistry.FaultParams{Workers: coalition[1:], P: 0.5, Seed: 5}},
		}
		atk := attack.ALIE{ZOverride: 30}
		want := engineParamsOf[T](t, spec, enginePlane{attack: atk, byz: coalition})
		// A blacklisted worker's rejoin must reach the still-live listener
		// and be refused; OnRound blocks the serve loop, so waiting for the
		// refusal here makes what its RunWorkerOf returns deterministic.
		blacklistedAt := map[int]int{}
		f := runFleetOf[T](t, spec, ServerConfig{RoundTimeout: 30 * time.Second}, byzantine(atk),
			func(srv *ServerOf[T], rs cluster.RoundStats) {
				for _, u := range rs.BlacklistedWorkers {
					blacklistedAt[u] = rs.Iteration
				}
				for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
					if srv.Counters().BlacklistRejections >= int64(len(blacklistedAt)) {
						return
					}
				}
				t.Error("a blacklisted worker's rejoin was never refused while the server was live")
			})
		if !linalg.EqualBits(f.params, want) {
			t.Fatal("the wire coalition's trajectory diverged from the engine's")
		}
		first, second := coalition[0], coalition[1]
		evicted, ok := blacklistedAt[first]
		if at, also := blacklistedAt[second]; !ok || also && at <= evicted {
			t.Fatalf("blacklisted at %v: the lowest id %d did not go first", blacklistedAt, first)
		}
		alone := 0
		for _, rs := range f.stats {
			if rs.Iteration > evicted && !slices.Contains(rs.MissingWorkers, second) {
				alone++
			}
		}
		if alone == 0 {
			t.Fatalf("worker %d reported in no round after %d was blacklisted at round %d", second, first, evicted)
		}
		for u, err := range f.errs {
			var want error
			if _, gone := blacklistedAt[u]; gone {
				want = ErrBlacklisted
			}
			if !errors.Is(err, want) {
				t.Errorf("worker %d returned %v, want %v (blacklisted at %v)", u, err, want, blacklistedAt)
			}
		}
	})
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
			cfg.Attack = attack.Reversed{}
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
