// Tests for the uplink codec tier the PS names in its Welcome: per-tier
// loopback trajectories pinned against the in-process engine, a worker
// refusing a tier it does not know, and a kill+rejoin on a lossy tier.
package transport

import (
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"byzshield/internal/cluster"
	"byzshield/internal/linalg"
	"byzshield/internal/wire"
)

// engineParamsTier is engineParams with the engine pinned to an uplink
// tier — the reference for lossy wire runs.
func engineParamsTier(t *testing.T, spec Spec, tier wire.UplinkTier) []float64 {
	t.Helper()
	return engineParamsOf[float64](t, spec, enginePlane{tier: tier})
}

// sameBits is the protocol's one bit-equality (NaN == NaN, +0 ≠ −0).
var sameBits = linalg.EqualBits[float64]

// TestUplinkTierLoopbackMatchesEngine pins every tier's wire trajectory
// to the in-process engine: the lossless tiers against the plain engine
// (codec choice cannot move a bit), the lossy tiers against an engine
// running the same tier (the engine applies the codec's exact
// quantize→dequantize operations to every row). The lossy runs must also
// move fewer uplink bytes than their raw equivalent and land off the
// lossless bits.
func TestUplinkTierLoopbackMatchesEngine(t *testing.T) {
	spec := testSpec(6)
	lossless := engineParamsTier(t, spec, wire.TierRaw)
	for _, tier := range []wire.UplinkTier{wire.TierRaw, wire.TierSign, wire.TierInt8} {
		_, params, stats := runLoopback(t, spec, ServerConfig{Uplink: tier})
		ref := lossless
		if tier.Lossy() {
			ref = engineParamsTier(t, spec, tier)
		}
		if !sameBits(params, ref) {
			t.Errorf("tier %s: wire trajectory diverged from the engine", tier)
		}
		var up, raw int64
		for _, rs := range stats {
			up += rs.Times.ReportBytes
			raw += rs.Times.ReportRawBytes
		}
		if tier.Lossy() {
			// The ≥4x acceptance gate is benchmarked on the quickstart
			// config, whose rows are wide; this spec's 18–36-value rows
			// pay proportionally more per-row scale/header overhead, so
			// the structural check here is 3x.
			if up*3 > raw {
				t.Errorf("tier %s: moved %d uplink bytes, raw equivalent %d — want ≥3x reduction", tier, up, raw)
			}
			if sameBits(params, lossless) {
				t.Errorf("tier %s: landed on the lossless bits — quantization never ran", tier)
			}
		}
	}
}

// TestWorkerRejectsUnknownUplinkTier: a Welcome naming an undefined
// tier — 3 was int8 before protocol v9 — ends the worker with an error
// a reconnect cannot fix, instead of a codec mismatch mid-run.
func TestWorkerRejectsUnknownUplinkTier(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			raw, err := ln.Accept()
			if err != nil {
				return
			}
			c := NewConn(raw)
			c.Recv() // the Hello
			c.Send(Welcome{Version: wire.ProtocolVersion, Token: 7, Uplink: wire.UplinkTier(3), Spec: testSpec(2)})
			c.Recv() // until the worker hangs up
			raw.Close()
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	_, err = RunWorker(ctx, ln.Addr().String(), WorkerConfig{ID: 0})
	if err == nil || !strings.Contains(err.Error(), "unknown uplink tier 3") {
		t.Errorf("worker returned %v, want an unknown-uplink-tier error", err)
	}
}

// TestUplinkTierRejoinFreshEncoderState kills a worker mid-run on the
// int8 tier and restarts it with its session token: the restarted
// process is named the tier afresh, and because every uplink frame is
// self-contained the interrupted trajectory must stay bit-identical to
// an uninterrupted run — and to the tier-pinned engine.
func TestUplinkTierRejoinFreshEncoderState(t *testing.T) {
	const victim = 4
	spec := testSpec(8)
	ref := engineParamsTier(t, spec, wire.TierInt8)

	var srv *Server
	restarted := make(chan error, 1)
	workerCtx, killWorker := context.WithCancel(context.Background())
	defer killWorker()

	srvCfg := ServerConfig{
		Spec:         spec,
		Uplink:       wire.TierInt8,
		RoundTimeout: 30 * time.Second,
		OnRound: func(rs cluster.RoundStats) {
			if len(rs.MissingWorkers) != 0 {
				t.Errorf("round %d: missing %v — rejoin before the deadline must be invisible", rs.Iteration, rs.MissingWorkers)
			}
			if rs.Iteration != 3 {
				return
			}
			killWorker()
			token := workerToken(srv, victim)
			go func() {
				_, err := RunWorker(context.Background(), srv.Addr(), WorkerConfig{
					ID:          victim,
					ResumeToken: token,
				})
				restarted <- err
			}()
			waitRejoinPending(t, srv, victim)
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
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			ctx := context.Background()
			cfg := WorkerConfig{ID: u}
			if u == victim {
				ctx = workerCtx
				cfg.ReconnectAttempts = -1 // the test restarts it explicitly
			}
			_, err := RunWorker(ctx, srv.Addr(), cfg)
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
	if !sameBits(srv.Params(), ref) {
		t.Error("int8 trajectory with a mid-run rejoin diverged from the uninterrupted engine reference")
	}
}
