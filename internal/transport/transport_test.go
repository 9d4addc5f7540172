package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"byzshield/internal/attack"
	"byzshield/internal/linalg"
	byzregistry "byzshield/internal/registry"
	"byzshield/internal/trainer"
	"byzshield/internal/wire"
)

func testSpec(rounds int) Spec {
	return Spec{
		Scheme: "mols", L: 5, R: 3,
		TrainN: 400, TestN: 100, Dim: 8, Classes: 4, DataSeed: 21, ClassSep: 3,
		BatchSize: 50,
		Schedule:  trainer.Schedule{Base: 0.05, Decay: 0.96, Every: 20},
		Momentum:  0.9, Seed: 2, Rounds: rounds,
	}
}

// runCluster starts a PS and K worker goroutines over loopback TCP, the
// workers of byz each running their attack alone, and returns the final
// accuracy.
func runCluster(t *testing.T, spec Spec, byz map[int]attack.Attack) float64 {
	t.Helper()
	ctx := context.Background()
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
	errs := make([]error, asn.K)
	for u := 0; u < asn.K; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			_, errs[u] = RunWorker(ctx, srv.Addr(), WorkerConfig{ID: u, Attack: byz[u]})
		}(u)
	}
	final, err := srv.Serve(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for u, e := range errs {
		if e != nil {
			t.Fatalf("worker %d: %v", u, e)
		}
	}
	return final
}

func TestTCPClusterHonestTraining(t *testing.T) {
	final := runCluster(t, testSpec(30), nil)
	if final < 0.6 {
		t.Errorf("honest TCP training accuracy %.3f < 0.6", final)
	}
}

func TestTCPClusterToleratesByzantines(t *testing.T) {
	// Two Byzantines sending reversed gradients: below r' on every
	// shared file except one (MOLS q=2 → c_max=1 of 25), median absorbs.
	byz := map[int]attack.Attack{0: attack.Reversed{}, 5: attack.Reversed{}}
	final := runCluster(t, testSpec(30), byz)
	if final < 0.6 {
		t.Errorf("TCP training with 2 Byzantines reached %.3f", final)
	}
}

func TestTCPClusterConstantAttack(t *testing.T) {
	byz := map[int]attack.Attack{3: attack.Constant{}, 9: attack.RandomGaussian{}}
	final := runCluster(t, testSpec(20), byz)
	if final < 0.5 {
		t.Errorf("TCP training with constant/gaussian Byzantines reached %.3f", final)
	}
}

func TestBuildAssignmentSchemes(t *testing.T) {
	cases := []Spec{
		{Scheme: "mols", L: 5, R: 3},
		{Scheme: "ramanujan1", L: 5, R: 3},
		{Scheme: "ramanujan2", L: 5, R: 5},
		{Scheme: "frc", K: 15, R: 3},
		{Scheme: "baseline", K: 10},
		{Scheme: "random", K: 15, F: 25, R: 3, Seed: 7},
	}
	for _, spec := range cases {
		a, err := spec.BuildAssignment()
		if err != nil {
			t.Errorf("%s: %v", spec.Scheme, err)
			continue
		}
		if err := a.Validate(); err != nil {
			t.Errorf("%s: %v", spec.Scheme, err)
		}
	}
	bad := Spec{Scheme: "nope"}
	if _, err := bad.BuildAssignment(); err == nil {
		t.Error("unknown scheme accepted")
	}
}

func TestServerRejectsBadConfig(t *testing.T) {
	spec := testSpec(10)
	spec.Rounds = 0
	if _, err := NewServer("127.0.0.1:0", ServerConfig{Spec: spec}); err == nil {
		t.Error("0 rounds accepted")
	}
	spec = testSpec(5)
	spec.BatchSize = 10 // < f = 25
	if _, err := NewServer("127.0.0.1:0", ServerConfig{Spec: spec}); err == nil {
		t.Error("batch < files accepted")
	}
	spec = testSpec(5)
	spec.Aggregator = "nope"
	if _, err := NewServer("127.0.0.1:0", ServerConfig{Spec: spec}); err == nil {
		t.Error("unknown aggregator name accepted")
	}
}

// TestServerResolvesAggregatorFromSpec: the server aggregates with the
// registry rule the Spec names — the fleet ends where the engine running
// that rule does, which is not where the default median ends. signsgd
// is one of the rules: the fleet steps by lr × the voted sign exactly as
// the engine does.
func TestServerResolvesAggregatorFromSpec(t *testing.T) {
	median := engineParams(t, testSpec(5), 1)
	for _, rule := range []string{"median-of-means", "signsgd"} {
		t.Run(rule, func(t *testing.T) {
			spec := testSpec(5)
			spec.Aggregator = rule
			want := engineParams(t, spec, 1)
			if linalg.EqualBits(want, median) {
				t.Fatalf("%s and median end on the same parameters: the case checks nothing", rule)
			}
			if got := wireParams(t, spec); !linalg.EqualBits(got, want) {
				t.Error("the server did not aggregate with the rule its Spec names")
			}
		})
	}
}

// TestServeCancellation: canceling the server context mid-training must
// return promptly with context.Canceled, and workers unblock too.
func TestServeCancellation(t *testing.T) {
	spec := testSpec(100000) // far more rounds than can run in the test
	srv, err := NewServer("127.0.0.1:0", ServerConfig{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	asn, err := spec.BuildAssignment()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	workerErrs := make([]error, asn.K)
	for u := 0; u < asn.K; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			_, workerErrs[u] = RunWorker(ctx, srv.Addr(), WorkerConfig{ID: u})
		}(u)
	}

	serveDone := make(chan error, 1)
	go func() {
		_, err := srv.Serve(ctx)
		serveDone <- err
	}()

	// Let a few rounds complete, then cancel.
	time.Sleep(200 * time.Millisecond)
	cancel()

	select {
	case err := <-serveDone:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("Serve returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after cancellation")
	}
	wg.Wait()
	for u, e := range workerErrs {
		if e == nil {
			t.Errorf("worker %d finished cleanly despite cancellation", u)
		}
	}
}

func TestConnSendRecvRoundTrip(t *testing.T) {
	a, b := net.Pipe()
	ca, cb := NewConn(a), NewConn(b)
	defer ca.Close()
	defer cb.Close()
	done := make(chan error, 1)
	go func() {
		_, err := ca.Send(Hello{WorkerID: 7, Version: wire.ProtocolVersion, Token: 99, Resume: true})
		done <- err
	}()
	msg, err := cb.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	hello, ok := msg.(Hello)
	if !ok || hello.WorkerID != 7 || hello.Version != wire.ProtocolVersion || hello.Token != 99 || !hello.Resume {
		t.Fatalf("got %#v", msg)
	}
	// Type 7 was RoundPrep until protocol v8 and is no message now.
	if _, err := decodeMessage(7, nil); err == nil || !strings.Contains(err.Error(), "unknown message type 7") {
		t.Errorf("decoding a type-7 frame: %v, want the unknown-message-type error", err)
	}
}

// TestConnRecvResumesAfterDeadline: a read deadline that fires while a
// frame is partially delivered must not poison the stream — the next
// Recv picks the frame up where the timeout left it. This is the
// property that lets the server keep slow workers connected.
func TestConnRecvResumesAfterDeadline(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	cb := NewConn(b)

	full, err := Hello{WorkerID: 3, Version: wire.ProtocolVersion}.appendPayload(nil)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := wire.AppendFrame(nil, msgHello, full)
	if err != nil {
		t.Fatal(err)
	}
	// Deliver the first half, then nothing until after the deadline.
	firstHalf, secondHalf := frame[:len(frame)/2], frame[len(frame)/2:]
	go a.Write(firstHalf)
	cb.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	if _, err := cb.Recv(); err == nil {
		t.Fatal("Recv returned a message from half a frame")
	}
	// Second half arrives; the resumed Recv completes the same frame.
	go a.Write(secondHalf)
	cb.SetReadDeadline(time.Now().Add(2 * time.Second))
	msg, err := cb.Recv()
	if err != nil {
		t.Fatalf("resumed Recv: %v", err)
	}
	hello, ok := msg.(Hello)
	if !ok || hello.WorkerID != 3 {
		t.Fatalf("resumed Recv got %#v", msg)
	}
}

// TestSpecWireRoundTrip: the hand-rolled Spec payload codec preserves
// every field — what a worker decodes is the Spec the server encoded.
func TestSpecWireRoundTrip(t *testing.T) {
	spec := testSpec(7)
	spec.Aggregator = "bulyan"
	spec.AggParams = byzregistry.AggregatorParams{C: 2, Groups: 5, Threshold: 0.25}
	spec.Hidden = 12
	spec.Distribution, spec.DistParam = "dirichlet", 0.3
	spec.Quorum = 1
	spec.Faults = []FaultSpec{
		{Name: "flaky", Params: byzregistry.FaultParams{Workers: []int{1, 4}, P: 0.3, Seed: 8}},
		{Name: "straggler", Params: byzregistry.FaultParams{Workers: []int{9}, Delay: 2 * time.Second}},
	}
	spec.Detector = "zscore"
	enc, err := appendSpec(nil, &spec)
	if err != nil {
		t.Fatal(err)
	}
	var got Spec
	d := wire.NewDec(enc)
	decodeSpec(d, &got)
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, spec) {
		t.Errorf("spec round-trip mismatch:\n got %+v\nwant %+v", got, spec)
	}
}

// TestServerSurvivesBadHellos: duplicate, out-of-range, and malformed
// Hello connections are rejected individually — the rejected connection
// is closed, the server keeps accepting, and the full worker fleet
// still joins and trains to completion afterwards.
func TestServerSurvivesBadHellos(t *testing.T) {
	spec := testSpec(3)
	srv, err := NewServer("127.0.0.1:0", ServerConfig{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	serveDone := make(chan error, 1)
	go func() {
		_, err := srv.Serve(context.Background())
		serveDone <- err
	}()

	dial := func(id int) *Conn {
		raw, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		c := NewConn(raw)
		if _, err := c.Send(Hello{WorkerID: id, Version: wire.ProtocolVersion, Precisions: wire.PrecisionF64.Mask()}); err != nil {
			t.Fatal(err)
		}
		return c
	}

	// Legit worker 0 joins.
	c1 := dial(0)
	defer c1.Close()
	if _, err := c1.Recv(); err != nil { // Welcome
		t.Fatal(err)
	}
	// A duplicate of worker 0, an out-of-range id, a wrong protocol
	// version, a v7 Hello offering no precision at all (a zero mask is
	// not read as "f64, the old default": peers that old are refused on
	// the version), a bogus rejoin token, and a non-Hello first message
	// must each be rejected (their conn closed) without tearing the
	// server down.
	typedReject := map[string]uint8{"bad version": RejectVersion, "zero precision mask": RejectPrecision}
	for name, mk := range map[string]func() *Conn{
		"duplicate id": func() *Conn { return dial(0) },
		"id oob":       func() *Conn { return dial(9999) },
		"bad version": func() *Conn {
			raw, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			c := NewConn(raw)
			if _, err := c.Send(Hello{WorkerID: 1, Version: 99}); err != nil {
				t.Fatal(err)
			}
			return c
		},
		"zero precision mask": func() *Conn {
			raw, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			c := NewConn(raw)
			if _, err := c.Send(Hello{WorkerID: 1, Version: wire.ProtocolVersion}); err != nil {
				t.Fatal(err)
			}
			return c
		},
		"bad rejoin token": func() *Conn {
			raw, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			c := NewConn(raw)
			if _, err := c.Send(Hello{WorkerID: 0, Version: wire.ProtocolVersion, Token: 12345, Resume: true, Precisions: wire.PrecisionF64.Mask()}); err != nil {
				t.Fatal(err)
			}
			return c
		},
		"not a hello": func() *Conn {
			raw, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			c := NewConn(raw)
			if _, err := c.Send(Shutdown{}); err != nil {
				t.Fatal(err)
			}
			return c
		},
	} {
		c := mk()
		msg, err := c.Recv()
		if code, typed := typedReject[name]; typed {
			// Version and precision mismatches get a typed Reject before
			// the close, so the peer has diagnosable bytes on its socket.
			if rej, ok := msg.(Reject); err != nil || !ok || rej.Code != code {
				t.Errorf("%s: got (%T, %v), want Reject{code %d}", name, msg, err, code)
			}
			if _, err := c.Recv(); err == nil {
				t.Errorf("%s: connection left open after the reject", name)
			}
		} else if err == nil {
			t.Errorf("%s: connection was not rejected", name)
		}
		c.Close()
	}

	// The remaining workers join normally and training completes.
	asn, err := spec.BuildAssignment()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for u := 1; u < asn.K; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			if _, err := RunWorker(context.Background(), srv.Addr(), WorkerConfig{ID: u}); err != nil {
				t.Errorf("worker %d: %v", u, err)
			}
		}(u)
	}
	// Worker 0 participates over its already-established connection.
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := driveWorker(t, c1, 0, spec); err != nil {
			t.Errorf("worker 0: %v", err)
		}
	}()
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("Serve did not complete")
	}
	wg.Wait()
}

// driveWorker participates in training over an already-handshaken
// connection (used when the test dialed Hello manually), applying full
// and delta parameter broadcasts exactly like RunWorker.
func driveWorker(t *testing.T, c *Conn, id int, spec Spec) error {
	t.Helper()
	// Unsharded raw-frame uplink: raw frames decode under any server
	// delta policy.
	st, err := manualWorker(id, Welcome{Spec: spec})
	if err != nil {
		return err
	}
	for {
		msg, err := c.Recv()
		if err != nil {
			return err
		}
		switch m := msg.(type) {
		case RoundStart:
			if err := st.applyParams(&m); err != nil {
				return err
			}
			rep, err := st.computeReport(m.Iteration)
			if err != nil {
				return err
			}
			if _, err := c.Send(rep); err != nil {
				return err
			}
		case Shutdown:
			return nil
		default:
			return fmt.Errorf("unexpected message %T", msg)
		}
	}
}

func TestSpecBuilders(t *testing.T) {
	spec := testSpec(1)
	m, err := spec.BuildModel()
	if err != nil {
		t.Fatal(err)
	}
	if m.InputDim() != 8 || m.Classes() != 4 {
		t.Error("softmax spec wrong")
	}
	spec.Hidden = 16
	m2, err := spec.BuildModel()
	if err != nil {
		t.Fatal(err)
	}
	if m2.NumParams() <= m.NumParams() {
		t.Error("MLP should have more params")
	}
	tr, te, err := spec.BuildData()
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 400 || te.Len() != 100 {
		t.Error("data sizes wrong")
	}
}
