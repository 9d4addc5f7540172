// Tests for the pipelined wire rounds of protocol v3: per-connection
// reader pumps, eager stale-frame retirement, lifecycle counters, and
// deterministic pump teardown.
package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"byzshield/internal/cluster"
	"byzshield/internal/wire"
)

// manualWorker is the state of a hand-rolled test worker, built from the
// Welcome it read off its own connection exactly as RunWorker builds it.
func manualWorker(id int, w Welcome) (*workerState, error) {
	st := &workerState{cfg: WorkerConfig{ID: id}}
	return st, st.adopt(w)
}

// runLoopback runs spec over loopback TCP with the given server config
// and returns the final params plus the accumulated round stats.
func runLoopback(t *testing.T, spec Spec, cfg ServerConfig) (*Server, []float64, []cluster.RoundStats) {
	t.Helper()
	f := runFleetOf[float64](t, spec, cfg, nil, nil).healthy(t)
	return f.srv, f.params, f.stats
}

// TestStaleReportRetiredEagerly: a report that arrives after its
// round's deadline is retired by the worker's reader pump the moment it
// lands — not lazily at the next round's collection — and unread. The
// test parks the serve loop between rounds (OnRound blocks it) and has
// the victim send two late round-0 reports there: its real one, and one
// whose frame is garbage. Each counts once in StaleFrames; neither is
// decoded, so the garbage evicts nobody, and the victim's next report
// still delivers.
func TestStaleReportRetiredEagerly(t *testing.T) {
	const victim = 3
	spec := testSpec(3)
	sendStale := make(chan struct{})
	staleSent := make(chan struct{})

	var mu sync.Mutex
	var stats []cluster.RoundStats
	var srv *Server
	srvCfg := ServerConfig{Spec: spec, RoundTimeout: 500 * time.Millisecond}
	srvCfg.OnRound = func(rs cluster.RoundStats) {
		mu.Lock()
		stats = append(stats, rs)
		mu.Unlock()
		if rs.Iteration != 0 {
			return
		}
		// Round 0 is aggregated and the serve loop is parked here: no
		// collection is running. Release the victim's late reports and
		// require the pump to retire both before round 1 starts.
		close(sendStale)
		<-staleSent
		deadline := time.Now().Add(10 * time.Second)
		for srv.Counters().StaleFrames < 2 {
			if time.Now().After(deadline) {
				t.Error("stale reports were not retired while the serve loop was parked")
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	var err error
	srv, err = NewServer("127.0.0.1:0", srvCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	serveDone := make(chan error, 1)
	go func() {
		_, err := srv.Serve(context.Background())
		serveDone <- err
	}()

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

	// The victim participates manually: it withholds its round-0 report
	// until the serve loop is parked between rounds, then sends it and a
	// garbage twin (both stale), and participates normally afterwards.
	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	conn := NewConn(raw)
	if _, err := conn.Send(Hello{WorkerID: victim, Version: wire.ProtocolVersion, Precisions: wire.PrecisionF64.Mask()}); err != nil {
		t.Fatal(err)
	}
	msg, err := conn.Recv()
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
			msg, err := conn.Recv()
			if err != nil {
				t.Errorf("victim recv: %v", err)
				return
			}
			switch m := msg.(type) {
			case RoundStart:
				if err := st.startRound(m.Iteration); err != nil {
					t.Error(err)
					return
				}
				if err := st.applyParams(&m); err != nil {
					t.Error(err)
					return
				}
				rep, err := st.computeReport(m.Iteration)
				if err != nil {
					t.Error(err)
					return
				}
				b, err := appendMessageFrame(nil, rep)
				if err == nil && m.Iteration == 0 {
					<-sendStale // wait for the serve loop to park
					// The good report and its garbage twin go out in one
					// write, coalesced.
					garbage := GradientReport{WorkerID: victim, Frame: []byte{wire.UplinkRaw, 0xde, 0xad}}
					b, err = appendMessageFrame(b, garbage)
				}
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := conn.raw.Write(b); err != nil {
					t.Errorf("victim send: %v", err)
					return
				}
				if m.Iteration == 0 {
					close(staleSent)
				}
			case Shutdown:
				conn.Close()
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

	if len(stats) != spec.Rounds {
		t.Fatalf("recorded %d rounds, want %d", len(stats), spec.Rounds)
	}
	if len(stats[0].MissingWorkers) != 1 || stats[0].MissingWorkers[0] != victim {
		t.Errorf("round 0 missing %v, want [%d]", stats[0].MissingWorkers, victim)
	}
	// Both frames were retired between rounds 0 and 1, so round 1's
	// delta accounting carries them; no later round discards anything.
	if stats[1].StaleFrames != 2 {
		t.Errorf("round 1 retired %d stale frames, want 2", stats[1].StaleFrames)
	}
	for _, rs := range stats[1:] {
		if len(rs.MissingWorkers) != 0 || rs.Evictions != 0 {
			t.Errorf("round %d: missing %v, %d evictions after the stale round", rs.Iteration, rs.MissingWorkers, rs.Evictions)
		}
	}
	c := srv.Counters()
	if c.Joins != int64(asn.K) || c.Rejoins != 0 || c.Evictions != 0 || c.StaleFrames != 2 {
		t.Errorf("counters = %+v, want %d joins, 0 rejoins, 0 evictions, 2 stale", c, asn.K)
	}
}

// TestLifecycleCountersOnEviction: a worker whose connection breaks
// mid-run is counted as an eviction — in the cumulative counters and in
// the per-round stats delta — and stays missing afterwards.
func TestLifecycleCountersOnEviction(t *testing.T) {
	const victim = 2
	spec := testSpec(4)
	srvCfg := ServerConfig{RoundTimeout: 10 * time.Second}
	var mu sync.Mutex
	var stats []cluster.RoundStats
	srvCfg.Spec = spec
	srvCfg.OnRound = func(rs cluster.RoundStats) {
		mu.Lock()
		stats = append(stats, rs)
		mu.Unlock()
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
	// The victim participates in round 0, then drops its connection on
	// round 1's broadcast without reporting — a crash as the server
	// sees it.
	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	conn := NewConn(raw)
	if _, err := conn.Send(Hello{WorkerID: victim, Version: wire.ProtocolVersion, Precisions: wire.PrecisionF64.Mask()}); err != nil {
		t.Fatal(err)
	}
	msg, err := conn.Recv()
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
			msg, err := conn.Recv()
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
			if m.Iteration == 1 {
				conn.Close()
				return
			}
			rep, err := st.computeReport(m.Iteration)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := conn.Send(rep); err != nil {
				t.Errorf("victim send: %v", err)
				return
			}
		}
	}()

	if err := <-serveDone; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	wg.Wait()

	evictions := 0
	for _, rs := range stats {
		evictions += rs.Evictions
	}
	if evictions != 1 {
		t.Errorf("per-round eviction deltas sum to %d, want 1", evictions)
	}
	c := srv.Counters()
	if c.Evictions != 1 {
		t.Errorf("counters report %d evictions, want 1", c.Evictions)
	}
	for _, rs := range stats {
		if rs.Iteration >= 1 && (len(rs.MissingWorkers) != 1 || rs.MissingWorkers[0] != victim) {
			t.Errorf("round %d: missing %v, want [%d]", rs.Iteration, rs.MissingWorkers, victim)
		}
	}
}

// TestRejoinCountersSingleCount: a worker that reports round t,
// drops its connection at the t/t+1 boundary — where the next round's
// broadcast writer and its reader pump may both observe the dead
// connection — and rejoins must be counted exactly once everywhere:
// one eviction, one rejoin, and one round's worth of degraded votes.
func TestRejoinCountersSingleCount(t *testing.T) {
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
				rep, err := st.computeReport(m.Iteration)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := conn.Send(rep); err != nil {
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
					// The server parks the rejoin only after its Welcome is
					// on the wire, so reading the Welcome does not yet mean
					// the next boundary will admit it: wait for the slot.
					for deadline, parked := time.Now().Add(10*time.Second), false; !parked; time.Sleep(time.Millisecond) {
						if time.Now().After(deadline) {
							t.Error("the server never parked the victim's rejoin")
							break
						}
						srv.src.mu.Lock()
						parked = srv.src.workers[victim].pending != nil
						srv.src.mu.Unlock()
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

// TestServeJoinsAllPumpGoroutines: Serve's teardown must close every
// reader pump deterministically — after a full training run plus Close,
// the process is back to its pre-server goroutine count (no leaked
// pumps, broadcast senders, or eval workers).
func TestServeJoinsAllPumpGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	spec := testSpec(5)
	srv, err := NewServer("127.0.0.1:0", ServerConfig{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
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
	srv.Close()

	deadline := time.Now().Add(10 * time.Second)
	for {
		now := runtime.NumGoroutine()
		if now <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("%d goroutines before run, %d after teardown; stacks:\n%s", before, now, buf[:n])
		}
		runtime.Gosched()
		time.Sleep(5 * time.Millisecond)
	}
}

// countFrames counts the goroutines alive in the process whose stacks
// hold a call of the named method, e.g. ").sender(".
func countFrames(call string) int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return bytes.Count(buf[:n], []byte(call))
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestServeJoinsAllSenders: the broadcast runs on one sender goroutine
// per worker slot for the whole run — K of them at every round however
// often a worker's connection is evicted and replaced, not K per
// connection — and Serve joins them on every exit path: a normal end, a
// mid-run cancel (which evicts nobody), and a run in which a worker is
// evicted and rejoins three times.
func TestServeJoinsAllSenders(t *testing.T) {
	const victim, rejoins = 2, 3
	spec := testSpec(2*rejoins + 2)
	asn, err := spec.BuildAssignment()
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"normal", "cancel", "rejoin"} {
		t.Run(mode, func(t *testing.T) {
			base := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var srv *Server
			srv, err := NewServer("127.0.0.1:0", ServerConfig{Spec: spec, OnRound: func(rs cluster.RoundStats) {
				if n := countFrames(").sender("); n != asn.K {
					t.Errorf("round %d: %d broadcast senders, want K = %d", rs.Iteration, n, asn.K)
				}
				switch {
				case mode == "cancel" && rs.Iteration == 2:
					cancel()
				case mode == "rejoin" && rs.Iteration%2 == 1 && rs.Iteration < 2*rejoins:
					// Break the victim's connection between rounds; it
					// redials by itself and is re-admitted next round.
					srv.src.liveConn(victim).Close()
					waitRejoinPending(t, srv, victim)
				}
			}})
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for u := 0; u < asn.K; u++ {
				wg.Add(1)
				go func(u int) {
					defer wg.Done()
					_, err := RunWorker(ctx, srv.Addr(), WorkerConfig{ID: u})
					if mode == "cancel" && !errors.Is(err, context.Canceled) {
						t.Errorf("worker %d: %v, want context.Canceled", u, err)
					} else if mode != "cancel" && err != nil {
						t.Errorf("worker %d: %v", u, err)
					}
				}(u)
			}
			_, err = srv.Serve(ctx)
			if mode == "cancel" && !errors.Is(err, context.Canceled) {
				t.Errorf("Serve: %v, want context.Canceled", err)
			} else if mode != "cancel" && err != nil {
				t.Errorf("Serve: %v", err)
			}
			wg.Wait()
			srv.Close()
			c := srv.Counters()
			switch mode {
			case "cancel":
				if c.Evictions != 0 {
					t.Errorf("counters after cancel %+v, want no evictions", c)
				}
			case "rejoin":
				if c.Evictions != rejoins || c.Rejoins != rejoins {
					t.Errorf("counters %+v, want %d evictions and %d rejoins", c, rejoins, rejoins)
				}
			}
			// A sender's deferred senders.Done runs before its goroutine
			// leaves the stack, so Serve may return while the last one is
			// still unwinding: poll under waitGoroutines' deadline.
			deadline := time.Now().Add(10 * time.Second)
			for n := countFrames(").sender("); n != 0; n = countFrames(").sender(") {
				if time.Now().After(deadline) {
					buf := make([]byte, 1<<16)
					t.Fatalf("%d broadcast senders outlive Serve; stacks:\n%s", n, buf[:runtime.Stack(buf, true)])
				}
				time.Sleep(5 * time.Millisecond)
			}
			waitGoroutines(t, base)
		})
	}
}

// TestServeJoinsAcceptLoopAndHandshakes: Serve joins its accept loop and
// every handshake goroutine before it returns, on the normal exit path
// too. Raw dials that never send a Hello are held open through the end
// of the run — a few accepted before the last round, and more landing
// while Serve winds down — so handshakes are waiting on Hellos when the
// run ends. Right after Serve returns, with no polling, no goroutine may
// be left in acceptLoop or handshake.
func TestServeJoinsAcceptLoopAndHandshakes(t *testing.T) {
	const idle, maxDials = 3, 64
	spec := testSpec(3)
	asn, err := spec.BuildAssignment()
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu      sync.Mutex
		dials   []net.Conn
		served  atomic.Bool
		dialing sync.WaitGroup
	)
	defer func() {
		served.Store(true)
		dialing.Wait()
		for _, c := range dials {
			c.Close()
		}
	}()
	dial := func(addr string) bool {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return false
		}
		mu.Lock()
		dials = append(dials, c)
		mu.Unlock()
		return true
	}
	var srv *Server
	srv, err = NewServer("127.0.0.1:0", ServerConfig{Spec: spec, OnRound: func(rs cluster.RoundStats) {
		if rs.Iteration != spec.Rounds-1 {
			return
		}
		for i := 0; i < idle; i++ {
			dial(srv.Addr())
		}
		// Hold the last round until the server is handshaking those
		// dials, then keep dialing while Serve winds down.
		deadline := time.Now().Add(10 * time.Second)
		for countFrames(").handshake(") < idle && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		dialing.Add(1)
		go func() {
			defer dialing.Done()
			for i := idle; i < maxDials && !served.Load() && dial(srv.Addr()); i++ {
			}
		}()
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
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
	_, err = srv.Serve(context.Background())
	loops, handshakes := countFrames(").acceptLoop("), countFrames(").handshake(")
	served.Store(true)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if loops != 0 || handshakes != 0 {
		t.Errorf("right after Serve returned: %d accept loops and %d handshakes alive, want none", loops, handshakes)
	}
}

// TestV2PeerRejected: an old-version peer is refused with a typed
// Reject{RejectVersion} at both negotiation layers — a Hello declaring
// an old version inside a valid frame, and any frame whose header is
// stamped with an old version (how a real v5, v7, v9, v10 or v11 peer
// looks on the wire: its very first frame header fails the version
// check, before any payload parses).
func TestV2PeerRejected(t *testing.T) {
	spec := testSpec(3)
	srv, err := NewServer("127.0.0.1:0", ServerConfig{Spec: spec})
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

	// A well-framed Hello declaring an old protocol version: the frame
	// parses, so the refusal arrives as a decodable typed Reject.
	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	c := NewConn(raw)
	if _, err := c.Send(Hello{WorkerID: 0, Version: 2}); err != nil {
		t.Fatal(err)
	}
	msg, err := c.Recv()
	if err != nil {
		t.Fatalf("reading the typed reject: %v", err)
	}
	rej, ok := msg.(Reject)
	if !ok {
		t.Fatalf("expected Reject, got %T", msg)
	}
	if rej.Code != RejectVersion {
		t.Errorf("reject code %d, want RejectVersion (%d)", rej.Code, RejectVersion)
	}
	c.Close()

	// A frame stamped with an old version in its header, as a real old
	// peer would send — a v5, a v7, a v8, a v9 (the last protocol with
	// shard fields), a v10 one (the last whose Spec names no data
	// distribution or quorum) and a v11 one (the last whose Spec ships
	// the detection policy): rejected before the
	// payload is even interpreted. The peer cannot parse the Reject frame
	// it gets back, but the bytes on its socket are deterministic — a
	// framed Reject carrying RejectVersion, then EOF — so the refusal is
	// diagnosable.
	for _, old := range []byte{5, 7, 8, 9, 10, 11} {
		raw, err = net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer raw.Close()
		hello, err := appendMessageFrame(nil, Hello{Version: int(old), Precisions: wire.PrecisionF64.Mask()})
		if err != nil {
			t.Fatal(err)
		}
		hello[2] = old
		if _, err := raw.Write(hello); err != nil {
			t.Fatal(err)
		}
		raw.SetReadDeadline(time.Now().Add(10 * time.Second))
		buf, err := io.ReadAll(raw)
		if err != nil {
			t.Fatalf("v%d: reading the reject bytes: %v", old, err)
		}
		if len(buf) < wire.FrameHeaderSize+1 {
			t.Fatalf("v%d: server wrote %d bytes before closing, want a framed Reject", old, len(buf))
		}
		if got := binary.LittleEndian.Uint16(buf); got != wire.FrameMagic {
			t.Errorf("v%d: reject frame magic %#x, want %#x", old, got, wire.FrameMagic)
		}
		if buf[2] != wire.ProtocolVersion {
			t.Errorf("v%d: reject frame stamped version %d, want %d", old, buf[2], wire.ProtocolVersion)
		}
		if buf[3] != msgReject {
			t.Errorf("v%d: reject frame type %d, want %d (Reject)", old, buf[3], msgReject)
		}
		if buf[wire.FrameHeaderSize] != RejectVersion {
			t.Errorf("v%d: reject code %d, want RejectVersion (%d)", old, buf[wire.FrameHeaderSize], RejectVersion)
		}
	}

	cancel()
	<-serveDone
}
