// Tests for the sharded aggregation plane of protocol v5: per-shard
// report streams, early shard votes, and single-count lifecycle
// accounting across a round boundary.
package transport

import (
	"context"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"byzshield/internal/cluster"
	"byzshield/internal/registry"
	"byzshield/internal/wire"
)

// TestShardedPipelinedTrajectoryIdentity (the name predates protocol v8,
// which deleted the pipelined plane it also covered): sharding the
// aggregation plane is a wire concern — for the same Spec the serial
// in-process engine and the sharded cluster must produce bit-identical
// final parameters. The spec includes a per-round straggler whose
// reports always trail the rest of the fleet, so its shard frames are
// the ones every early shard vote waits for.
func TestShardedPipelinedTrajectoryIdentity(t *testing.T) {
	spec := testSpec(10)
	spec.Faults = []FaultSpec{{Name: "straggler", Params: registry.FaultParams{Workers: []int{1}, Delay: 20 * time.Millisecond}}}
	// The engine treats a pure delay as full participation; the wire
	// path must agree as long as the delay stays inside the collection
	// window (asserted per round below).
	base := engineParams(t, spec, 1)
	for _, tc := range []struct {
		name string
		cfg  ServerConfig
	}{
		{"sharded", ServerConfig{Shards: 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, params, stats := runLoopback(t, spec, tc.cfg)
			for _, rs := range stats {
				if len(rs.MissingWorkers) != 0 {
					t.Errorf("round %d: missing %v — the straggler fell out of the window",
						rs.Iteration, rs.MissingWorkers)
				}
			}
			for i := range base {
				if math.Float64bits(base[i]) != math.Float64bits(params[i]) {
					t.Fatalf("param %d diverged from the serial engine: %v vs %v",
						i, base[i], params[i])
				}
			}
		})
	}
}

// TestShardedRejectsBadConfig: the server validates the shard plane up
// front — counts above 64 never bind, negative counts never bind.
func TestShardedRejectsBadConfig(t *testing.T) {
	spec := testSpec(2)
	if _, err := NewServer("127.0.0.1:0", ServerConfig{Spec: spec, Shards: 65}); err == nil {
		t.Error("shard count 65 accepted")
	}
	if _, err := NewServer("127.0.0.1:0", ServerConfig{Spec: spec, Shards: -3}); err == nil {
		t.Error("negative shard count accepted")
	}
}

// TestShardedRejoinCountersSingleCount: a worker that reports round t,
// drops its connection at the t/t+1 boundary — where the next round's
// broadcast writer and its reader pump may both observe the dead
// connection — and rejoins must be counted exactly once everywhere:
// one eviction, one rejoin, and one round's worth of degraded votes.
func TestShardedRejoinCountersSingleCount(t *testing.T) {
	const victim = 2
	const dropRound = 2
	spec := testSpec(7)
	asn, err := spec.BuildAssignment()
	if err != nil {
		t.Fatal(err)
	}
	victimFiles := len(asn.WorkerFiles(victim))

	release := make(chan struct{})  // closed after round dropRound+1 completes
	rejoined := make(chan struct{}) // closed once the victim's rejoin handshake is done

	srvCfg := ServerConfig{
		Spec:         spec,
		Shards:       2,
		RoundTimeout: 10 * time.Second,
	}
	var mu sync.Mutex
	var stats []cluster.RoundStats
	srvCfg.OnRound = func(rs cluster.RoundStats) {
		mu.Lock()
		stats = append(stats, rs)
		mu.Unlock()
		if rs.Iteration == dropRound+1 {
			// The victim missed this round; release its redial and park
			// the serve loop until the rejoin handshake is pending, so
			// the next round's boundary deterministically admits it.
			close(release)
			<-rejoined
		}
	}
	srv, err := NewServer("127.0.0.1:0", srvCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	serveDone := make(chan error, 1)
	go func() {
		_, err := srv.Serve(context.Background())
		serveDone <- err
	}()

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

	// The victim participates manually so the drop lands at a precise
	// point: right after its round-dropRound report, while the server is
	// about to broadcast round dropRound+1 to it.
	handshake := func(resume bool, token uint64) (*Conn, Welcome, error) {
		raw, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			return nil, Welcome{}, err
		}
		conn := NewConn(raw)
		if _, err := conn.Send(Hello{WorkerID: victim, Version: wire.ProtocolVersion, Token: token, Resume: resume, Precisions: wire.PrecisionF64.Mask()}); err != nil {
			conn.Close()
			return nil, Welcome{}, err
		}
		msg, err := conn.Recv()
		if err != nil {
			conn.Close()
			return nil, Welcome{}, err
		}
		w, ok := msg.(Welcome)
		if !ok {
			conn.Close()
			return nil, Welcome{}, err
		}
		return conn, w, nil
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, welcome, err := handshake(false, 0)
		if err != nil {
			t.Errorf("victim handshake: %v", err)
			return
		}
		defer func() { conn.Close() }()
		st, err := manualWorker(victim, welcome)
		if err != nil {
			t.Error(err)
			return
		}
		dropped := false
		for {
			msg, err := conn.Recv()
			if err != nil {
				t.Errorf("victim recv: %v", err)
				return
			}
			switch m := msg.(type) {
			case RoundStart:
				if err := st.applyParams(&m); err != nil {
					t.Error(err)
					return
				}
				msgs, err := st.computeReport(m.Iteration)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := conn.SendMany(msgs...); err != nil {
					t.Errorf("victim send: %v", err)
					return
				}
				if m.Iteration == dropRound && !dropped {
					dropped = true
					// Drop at the boundary: the report is on the wire.
					conn.Close()
					<-release
					conn, welcome, err = handshake(true, st.token)
					if err == nil {
						err = st.adopt(welcome)
					}
					if err != nil {
						t.Errorf("victim rejoin: %v", err)
						return
					}
					close(rejoined)
				}
			case Shutdown:
				return
			default:
				t.Errorf("victim got %T", msg)
				return
			}
		}
	}()

	if err := <-serveDone; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	wg.Wait()

	evictions, rejoins, degraded, missingRounds := 0, 0, 0, 0
	for _, rs := range stats {
		evictions += rs.Evictions
		rejoins += rs.Rejoins
		degraded += rs.DegradedFiles
		if len(rs.MissingWorkers) > 0 {
			missingRounds++
			if rs.Iteration != dropRound+1 || len(rs.MissingWorkers) != 1 || rs.MissingWorkers[0] != victim {
				t.Errorf("round %d missing %v, want [%d] only at round %d",
					rs.Iteration, rs.MissingWorkers, victim, dropRound+1)
			}
		}
	}
	if missingRounds != 1 {
		t.Errorf("victim missing in %d rounds, want exactly 1", missingRounds)
	}
	if evictions != 1 {
		t.Errorf("per-round eviction deltas sum to %d, want 1 — the round boundary double-counted", evictions)
	}
	if rejoins != 1 {
		t.Errorf("per-round rejoin deltas sum to %d, want 1", rejoins)
	}
	if degraded != victimFiles {
		t.Errorf("degraded votes total %d, want %d (one per victim file, once)", degraded, victimFiles)
	}
	c := srv.Counters()
	if c.Evictions != 1 || c.Rejoins != 1 {
		t.Errorf("counters = %+v, want exactly 1 eviction and 1 rejoin", c)
	}
}
