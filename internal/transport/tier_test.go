// Tests for the negotiated uplink codec tier of protocol v6: per-tier
// loopback trajectories pinned against the in-process engine, the
// Hello/Welcome tier negotiation (including the server-forced
// downgrade when a peer does not offer the configured tier), and
// rejoin renegotiation with fresh encoder state on a lossy tier.
package transport

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"byzshield/internal/cluster"
	"byzshield/internal/linalg"
	"byzshield/internal/wire"
)

// engineParamsTier is engineParams with the engine pinned to an uplink
// tier and shard count — the reference for lossy wire runs, whose
// quantization granularity is the aggregation shard range.
func engineParamsTier(t *testing.T, spec Spec, shards int, tier wire.UplinkTier) []float64 {
	t.Helper()
	return engineParamsOf[float64](t, spec, enginePlane{shards: shards, tier: tier})
}

// sameBits is the protocol's one bit-equality (NaN == NaN, +0 ≠ −0).
var sameBits = linalg.EqualBits[float64]

// TestUplinkTierLoopbackMatchesEngine pins every tier's wire trajectory
// to the in-process engine, unsharded and sharded: the lossless tiers
// against the plain engine (codec choice cannot move a bit), the lossy
// tiers against an engine running the same tier and shard count (the
// engine applies the codec's exact quantize→dequantize operations per
// shard range). The lossy runs must also move fewer uplink bytes than
// their raw equivalent and land off the lossless bits.
func TestUplinkTierLoopbackMatchesEngine(t *testing.T) {
	spec := testSpec(6)
	lossless := engineParamsTier(t, spec, 0, wire.TierDelta)
	for _, shards := range []int{0, 2} {
		for _, tier := range []wire.UplinkTier{wire.TierRaw, wire.TierDelta, wire.TierSign, wire.TierInt8} {
			_, params, stats := runLoopback(t, spec, ServerConfig{Uplink: tier, Shards: shards})
			ref := lossless
			if tier.Lossy() {
				ref = engineParamsTier(t, spec, shards, tier)
			}
			if !sameBits(params, ref) {
				t.Errorf("tier %s shards %d: wire trajectory diverged from the engine", tier, shards)
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
					t.Errorf("tier %s shards %d: moved %d uplink bytes, raw equivalent %d — want ≥3x reduction",
						tier, shards, up, raw)
				}
				if sameBits(params, lossless) {
					t.Errorf("tier %s shards %d: landed on the lossless bits — quantization never ran", tier, shards)
				}
			}
		}
	}
}

// TestUplinkTierNegotiation drives the Hello/Welcome negotiation
// directly: the server's configured tier when offered, the best
// lossless tier the peer speaks otherwise (never a substitute lossy
// tier), and the legacy lossless pair for an empty mask.
func TestUplinkTierNegotiation(t *testing.T) {
	spec := testSpec(1)
	srv, err := NewServer("127.0.0.1:0", ServerConfig{Spec: spec, Uplink: wire.TierInt8})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	serveDone := make(chan error, 1)
	go func() {
		_, err := srv.Serve(ctx)
		serveDone <- err
	}()

	cases := []struct {
		name  string
		tiers uint8
		want  wire.UplinkTier
	}{
		{"configured tier offered", wire.AllTiersMask, wire.TierInt8},
		{"lossless downgrade to delta", wire.TierRaw.Mask() | wire.TierDelta.Mask(), wire.TierDelta},
		{"lossless downgrade to raw", wire.TierRaw.Mask(), wire.TierRaw},
		{"lossy never substituted", wire.TierSign.Mask() | wire.TierDelta.Mask(), wire.TierDelta},
		{"empty mask is the legacy lossless pair", 0, wire.TierDelta},
	}
	for id, tc := range cases {
		raw, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		c := NewConn(raw)
		if _, err := c.Send(Hello{WorkerID: id, Version: wire.ProtocolVersion, Tiers: tc.tiers, Precisions: wire.PrecisionF64.Mask()}); err != nil {
			t.Fatal(err)
		}
		msg, err := c.Recv()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		w, ok := msg.(Welcome)
		if !ok {
			t.Fatalf("%s: expected Welcome, got %T", tc.name, msg)
		}
		if w.Uplink != tc.want {
			t.Errorf("%s: negotiated %s, want %s", tc.name, w.Uplink, tc.want)
		}
		c.Close()
	}
	cancel()
	<-serveDone
}

// TestUplinkTierDowngradedFleet runs a full training fleet whose
// workers refuse the lossy tiers against a server configured for int8:
// every connection is downgraded to delta, the run completes, and the
// trajectory lands on the lossless engine's bits — a forced downgrade
// is a codec change, not a semantic one.
func TestUplinkTierDowngradedFleet(t *testing.T) {
	spec := testSpec(6)
	srv, err := NewServer("127.0.0.1:0", ServerConfig{Spec: spec, Uplink: wire.TierInt8})
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
			cfg := WorkerConfig{ID: u, Tiers: wire.TierRaw.Mask() | wire.TierDelta.Mask()}
			if _, err := RunWorker(context.Background(), srv.Addr(), cfg); err != nil {
				t.Errorf("worker %d: %v", u, err)
			}
		}(u)
	}
	if _, err := srv.Serve(context.Background()); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if !sameBits(srv.Params(), engineParamsTier(t, spec, 0, wire.TierDelta)) {
		t.Error("downgraded fleet diverged from the lossless engine")
	}
}

// TestUplinkTierRejoinFreshEncoderState kills a worker mid-run on the
// int8 tier and restarts it with its session token: the rejoin
// renegotiates the tier and starts from fresh encoder state, and
// because the lossy codecs are stateless per frame the interrupted
// trajectory must stay bit-identical to an uninterrupted run — and to
// the tier-pinned engine.
func TestUplinkTierRejoinFreshEncoderState(t *testing.T) {
	const victim = 4
	spec := testSpec(8)
	ref := engineParamsTier(t, spec, 0, wire.TierInt8)

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
