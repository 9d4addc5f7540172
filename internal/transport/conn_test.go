package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"net"
	"os"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"byzshield/internal/attack"
	"byzshield/internal/cluster"
	"byzshield/internal/linalg"
	"byzshield/internal/wire"
)

// readPathMessages is the sequence every read-path case delivers: a
// small report, a Shutdown, a report larger than the receive buffer's
// first allocation, a RoundStart, and a small report again.
func readPathMessages() []Message {
	big := make([]byte, 3000)
	for i := range big {
		big[i] = byte(i * 7)
	}
	return []Message{
		GradientReport{WorkerID: 3, Iteration: 1, Frame: []byte{1, 2, 3, 4, 5}},
		Shutdown{FinalAccuracy: 0.75},
		GradientReport{WorkerID: 3, Iteration: 2, Frame: big},
		RoundStart{Iteration: 4, BaseIteration: 3, ParamsFrame: []byte{8, 6, 4}},
		GradientReport{WorkerID: 3, Iteration: 3, Frame: []byte{9}},
	}
}

// TestConnRecvReadPath drives the single-buffer Recv through the ways a
// frame stream can arrive and requires, in each, the message sequence
// the sender encoded: byte-at-a-time with a read deadline expiring
// before every byte (so mid-header and mid-body), everything coalesced
// into one write, pairs and triples of frames per write, and a frame
// larger than the buffer arriving behind a small one.
func TestConnRecvReadPath(t *testing.T) {
	all := readPathMessages()
	// encode returns each message's frame and the frames joined.
	encode := func(msgs []Message) (frames [][]byte, stream []byte) {
		for _, m := range msgs {
			f, err := appendMessageFrame(nil, m)
			if err != nil {
				t.Fatal(err)
			}
			frames = append(frames, f)
			stream = append(stream, f...)
		}
		return frames, stream
	}
	// group joins consecutive frames into writes of the given counts.
	group := func(frames [][]byte, counts ...int) [][]byte {
		var out [][]byte
		for _, n := range counts {
			out = append(out, bytes.Join(frames[:n], nil))
			frames = frames[n:]
		}
		return out
	}
	frames, stream := encode(all)
	small := []Message{all[0], all[1], all[4]} // no 3 KB frame: one write per byte
	_, smallStream := encode(small)
	bytewise := make([][]byte, len(smallStream))
	for i := range smallStream {
		bytewise[i] = smallStream[i : i+1]
	}
	cases := []struct {
		name   string
		msgs   []Message
		writes [][]byte
		// deadline holds every write back until a Recv has timed out
		// waiting for it, so each one lands on a resumed Recv.
		deadline bool
	}{
		{"one byte per write, a deadline expiring before each", small, bytewise, true},
		{"all frames in one write", all, [][]byte{stream}, false},
		{"two then three frames per write", all, group(frames, 2, 3), false},
		{"small frame, then one outgrowing the buffer behind another", all, group(frames, 1, 2, 2), false},
		{"splits mid-header and mid-body, a deadline expiring at each", all,
			[][]byte{stream[:3], stream[3:30], stream[30:1000], stream[1000:]}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, b := net.Pipe()
			defer a.Close()
			defer b.Close()
			rx := NewConn(b)
			// net.Pipe is synchronous: a Write returns once the reader
			// has taken its bytes.
			next := make(chan struct{}, 1)
			werr := make(chan error, 1)
			go func() {
				for _, w := range tc.writes {
					if tc.deadline {
						<-next
					}
					if _, err := a.Write(w); err != nil {
						werr <- err
						return
					}
				}
				werr <- nil
			}()
			timeouts := 0
			for i, want := range tc.msgs {
				var got any
				for {
					if tc.deadline {
						rx.SetReadDeadline(time.Now().Add(time.Millisecond))
					}
					var err error
					if got, err = rx.Recv(); err == nil {
						break
					} else if !errors.Is(err, os.ErrDeadlineExceeded) {
						t.Fatalf("message %d: %v", i, err)
					}
					timeouts++
					select {
					case next <- struct{}{}:
					default:
					}
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("message %d: got %+v, want %+v", i, got, want)
				}
				if rep, ok := got.(GradientReport); ok && !bytes.Equal(rep.Frame, want.(GradientReport).Frame) {
					t.Fatalf("message %d: Frame does not hold its bytes", i)
				}
			}
			if err := <-werr; err != nil {
				t.Fatal(err)
			}
			if tc.deadline && timeouts < len(tc.writes) {
				t.Errorf("%d timeouts for %d writes: the resume path was not exercised at each", timeouts, len(tc.writes))
			}
		})
	}
}

// TestConnRecvFrameSurvivesBufferedSuccessor: a returned RoundStart's
// ParamsFrame aliases the receive buffer and is promised intact until
// the next Recv — also when the read that completed it pulled a whole
// frame in behind it, and the head of a frame after that. Serving the
// buffered frame does not touch it either: the buffer is only compacted
// by a Recv that has to read.
func TestConnRecvFrameSurvivesBufferedSuccessor(t *testing.T) {
	params := bytes.Repeat([]byte{0x5A, 0xC3, 0x01}, 40)
	msgs := []Message{
		RoundStart{Iteration: 6, BaseIteration: 5, ParamsFrame: params},
		Shutdown{FinalAccuracy: 0.5},
		readPathMessages()[2], // the 3 KB report: more than the buffer holds yet
	}
	var stream []byte
	for _, m := range msgs {
		f, err := appendMessageFrame(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		stream = append(stream, f...)
	}
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	go a.Write(stream)
	rx := NewConn(b)
	got, err := rx.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if rx.rlen <= rx.rpos {
		t.Fatal("nothing was buffered behind the first frame: the case under test did not arise")
	}
	first := got.(RoundStart)
	if !bytes.Equal(first.ParamsFrame, params) {
		t.Fatal("ParamsFrame does not hold its bytes with a successor buffered behind it")
	}
	if got, err = rx.Recv(); err != nil || !reflect.DeepEqual(got, msgs[1]) {
		t.Fatalf("the buffered Shutdown: %+v, %v", got, err)
	}
	if !bytes.Equal(first.ParamsFrame, params) {
		t.Error("serving a buffered frame disturbed the frame returned before it")
	}
	if got, err = rx.Recv(); err != nil || !reflect.DeepEqual(got, msgs[2]) {
		t.Fatalf("the frame that outgrew the buffer: %+v, %v", got, err)
	}
}

// TestConnRecvBufferTracksLargestFrame: the receive buffer is sized by
// the frames the connection has carried, not by a fixed per-connection
// allocation — 480 connections at a bufio-sized 64 KiB each would be
// 30 MiB a 2k-parameter fleet never uses.
func TestConnRecvBufferTracksLargestFrame(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	tx, rx := NewConn(a), NewConn(b)
	// 100 000 bytes is past the pre-handshake bound: a Conn made by
	// NewConn, with no handshake in sight (the benchmark's two-socket
	// micro-run), admits whatever the wire format does.
	for _, n := range []int{10, 100_000, 100} {
		sent := make(chan error, 1)
		go func() {
			_, err := tx.Send(GradientReport{Frame: make([]byte, n)})
			sent <- err
		}()
		if _, err := rx.Recv(); err != nil {
			t.Fatal(err)
		}
		if err := <-sent; err != nil {
			t.Fatal(err)
		}
	}
	if want := wire.FrameHeaderSize + 8 + 100_000; len(rx.rbuf) != want {
		t.Errorf("receive buffer is %d bytes after a largest frame of %d", len(rx.rbuf), want)
	}
}

// appendMessageFrame encodes msg as one complete frame appended to dst —
// the whole-message reference the senders below are compared against.
func appendMessageFrame(dst []byte, msg Message) ([]byte, error) {
	dst, at := wire.BeginFrame(dst, msg.wireType())
	dst, err := msg.appendPayload(dst)
	if err != nil {
		return dst, err
	}
	return wire.EndFrame(dst, at)
}

// TestConnSendsByteIdenticalStreams: the senders that do not encode a
// message whole — SendMany scattering a report's Frame, the round's
// shared RoundStart built around params encoded in place
// (beginRoundStart/endRoundStart) and written raw — put exactly the
// bytes on the wire that appendMessageFrame does.
func TestConnSendsByteIdenticalStreams(t *testing.T) {
	params := bytes.Repeat([]byte{0xAB, 0xCD}, 700)
	var err error
	reports := []Message{
		GradientReport{WorkerID: 1, Iteration: 7, Frame: []byte{1, 2, 3}},
		GradientReport{WorkerID: 2, Iteration: 7, Frame: bytes.Repeat([]byte{9}, 4000)},
		GradientReport{WorkerID: 1, Iteration: 7}, // a skip: no frame bytes
		Shutdown{FinalAccuracy: 1},
	}
	whole := func(msgs ...Message) []byte {
		var out []byte
		for _, m := range msgs {
			if out, err = appendMessageFrame(out, m); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	cases := []struct {
		name string
		send func(c *Conn) (int, error)
		want []byte
	}{
		{"SendMany", func(c *Conn) (int, error) { return c.SendMany(reports...) }, whole(reports...)},
		{"Send", func(c *Conn) (int, error) { return c.Send(reports[1]) }, whole(reports[1])},
		{"shared RoundStart", func(c *Conn) (int, error) {
			// Behind a frame already in the buffer, as the offset must allow.
			b, at := beginRoundStart([]byte{1, 2, 3}, 7, 6)
			b, err := endRoundStart(append(b, params...), at)
			if err != nil {
				return 0, err
			}
			return c.raw.Write(b[3:])
		}, whole(RoundStart{Iteration: 7, BaseIteration: 6, ParamsFrame: params})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, b := net.Pipe()
			defer b.Close()
			got := make(chan []byte, 1)
			go func() {
				var buf bytes.Buffer
				buf.ReadFrom(b)
				got <- buf.Bytes()
			}()
			tx := NewConn(a)
			// Twice: the second send reuses the scratch the first grew.
			for rep := 0; rep < 2; rep++ {
				n, err := tc.send(tx)
				if err != nil {
					t.Fatal(err)
				}
				if n != len(tc.want) {
					t.Errorf("send reported %d bytes, stream has %d", n, len(tc.want))
				}
			}
			a.Close()
			if stream := <-got; !bytes.Equal(stream, append(append([]byte(nil), tc.want...), tc.want...)) {
				t.Errorf("stream differs from the whole-message encoding (%d vs 2×%d bytes)", len(stream), len(tc.want))
			}
		})
	}
}

// hugeHeader is a well-formed frame header of the given type declaring
// the largest payload the wire format admits.
func hugeHeader(typ byte) []byte {
	hdr := binary.LittleEndian.AppendUint16(nil, wire.FrameMagic)
	hdr = append(hdr, wire.ProtocolVersion, typ)
	return binary.LittleEndian.AppendUint32(hdr, wire.MaxFramePayload)
}

// TestConnPayloadLimitIsTyped: a header over the connection's payload
// limit is ErrFrameTooLarge — before the handshake at the small fixed
// bound, after it at whatever the Spec-derived bound says.
func TestConnPayloadLimitIsTyped(t *testing.T) {
	for _, limit := range []int{0, 1 << 20} {
		a, b := net.Pipe()
		rx := newHandshakeConn(b)
		if limit > 0 {
			rx.setPayloadLimit(limit)
		} else {
			limit = preHandshakePayload
		}
		hdr := binary.LittleEndian.AppendUint32(hugeHeader(msgGradientReport)[:4], uint32(limit+1))
		go a.Write(hdr)
		if _, err := rx.Recv(); !errors.Is(err, ErrFrameTooLarge) {
			t.Errorf("limit %d: header declaring %d bytes: %v, want ErrFrameTooLarge", limit, limit+1, err)
		}
		if len(rx.rbuf) > 4096 {
			t.Errorf("limit %d: Recv allocated %d bytes for a frame it refused", limit, len(rx.rbuf))
		}
		a.Close()
		b.Close()
	}
}

// TestHugeFrameBeforeHelloIsDropped: a socket whose first and only
// bytes are a header declaring wire.MaxFramePayload (256 MiB) is closed
// without the server allocating for the frame, and the fleet that joins
// afterwards trains to the end with clean lifecycle counters.
func TestHugeFrameBeforeHelloIsDropped(t *testing.T) {
	spec := testSpec(6)
	srv, err := NewServer("127.0.0.1:0", ServerConfig{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx := context.Background()
	served := make(chan error, 1)
	go func() {
		_, err := srv.Serve(ctx)
		served <- err
	}()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if _, err := raw.Write(hugeHeader(msgHello)); err != nil {
		t.Fatal(err)
	}
	raw.SetReadDeadline(time.Now().Add(10 * time.Second))
	if n, err := raw.Read(make([]byte, 64)); err == nil {
		t.Fatalf("server answered the oversized header with %d bytes instead of closing", n)
	} else if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("server kept the connection open, waiting for the declared payload")
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Errorf("refusing the header allocated %d bytes, want < 1 MiB", grew)
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
			if _, err := RunWorker(ctx, srv.Addr(), WorkerConfig{ID: u}); err != nil {
				t.Errorf("worker %d: %v", u, err)
			}
		}(u)
	}
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if c := srv.Counters(); c.Joins != int64(asn.K) || c.Evictions != 0 {
		t.Errorf("lifecycle counters after the hostile socket: %+v", c)
	}
}

// TestOversizedReportEvicts: once past the handshake a worker is held
// to the Spec-derived report bound — a header beyond it evicts that
// worker (typed, no allocation for the payload) and the round goes on
// over the others.
func TestOversizedReportEvicts(t *testing.T) {
	const victim = 4
	spec := testSpec(4)
	var logMu sync.Mutex
	var evictLog []string
	srv, err := NewServer("127.0.0.1:0", ServerConfig{Spec: spec, Logf: func(f string, args ...any) {
		if len(args) == 3 {
			if err, ok := args[2].(error); ok && errors.Is(err, ErrFrameTooLarge) {
				logMu.Lock()
				evictLog = append(evictLog, f)
				logMu.Unlock()
			}
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	asn, err := spec.BuildAssignment()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	for u := 0; u < asn.K; u++ {
		if u == victim {
			continue
		}
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			if _, err := RunWorker(ctx, srv.Addr(), WorkerConfig{ID: u}); err != nil {
				t.Errorf("worker %d: %v", u, err)
			}
		}(u)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		raw, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Error(err)
			return
		}
		defer raw.Close()
		c := NewConn(raw)
		c.Send(Hello{WorkerID: victim, Version: wire.ProtocolVersion, Precisions: wire.PrecisionF64.Mask()})
		if _, err := c.Recv(); err != nil { // Welcome
			t.Error(err)
			return
		}
		if _, err := c.Recv(); err != nil { // first RoundStart
			t.Error(err)
			return
		}
		raw.Write(hugeHeader(msgGradientReport))
		raw.SetReadDeadline(time.Now().Add(10 * time.Second))
		for {
			if _, err := raw.Read(make([]byte, 4096)); err != nil {
				if errors.Is(err, os.ErrDeadlineExceeded) {
					t.Error("server kept the connection of a worker declaring a 256 MiB report")
				}
				return
			}
		}
	}()
	if _, err := srv.Serve(ctx); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if c := srv.Counters(); c.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", c.Evictions)
	}
	logMu.Lock()
	defer logMu.Unlock()
	if len(evictLog) != 1 {
		t.Errorf("eviction was not logged with ErrFrameTooLarge (%d matching lines)", len(evictLog))
	}
}

// TestMisshapenReportEvicts: a report whose rows cover fewer
// coordinates than the model dimension — or more — is ErrBadReport, its
// sender is evicted, and the decode never writes outside the sender's
// rows: a narrow frame lands in the head of each row before the width
// check fires, a wide one is decoded into fresh memory (the arena rows
// are capped at the dimension), and every other arena coordinate keeps
// its bits.
func TestMisshapenReportEvicts(t *testing.T) {
	const victim = 2
	const sentinel = -7.25
	var logMu sync.Mutex
	var reasons []error
	srv, err := NewServer("127.0.0.1:0", ServerConfig{Spec: testSpec(1), Logf: func(f string, args ...any) {
		if len(args) == 3 {
			if err, ok := args[2].(error); ok {
				logMu.Lock()
				reasons = append(reasons, err)
				logMu.Unlock()
			}
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ws := srv.src
	ws.curRound.Store(0)
	ws.retireBelow.Store(0)
	for i, width := range []int{ws.dim - 1, ws.dim + 1} {
		for u := range ws.files {
			for j := range ws.files[u] {
				for c := range ws.eng.GradBuffer(u, j) {
					ws.eng.GradBuffer(u, j)[c] = sentinel
				}
			}
		}
		grads := make([][]float64, len(ws.files[victim]))
		for j := range grads {
			grads[j] = make([]float64, width)
			for c := range grads[j] {
				grads[j][c] = 1
			}
		}
		frame, _, _, err := (&wire.UplinkEncoder{}).Encode(nil, victim, ws.files[victim], grads)
		if err != nil {
			t.Fatal(err)
		}
		report, err := appendMessageFrame(nil, GradientReport{WorkerID: victim, Frame: frame})
		if err != nil {
			t.Fatal(err)
		}
		a, b := net.Pipe()
		conn := NewConn(a)
		ws.mu.Lock()
		ws.workers[victim].conn = conn
		ws.startPump(victim, conn)
		ws.mu.Unlock()
		b.Write(report)
		ws.pumps.Wait()
		b.Close()

		if got := srv.Counters().Evictions; got != int64(i+1) {
			t.Fatalf("width %d: %d evictions, want %d", width, got, i+1)
		}
		logMu.Lock()
		if len(reasons) != i+1 || !errors.Is(reasons[i], ErrBadReport) {
			t.Errorf("width %d: eviction reasons %v, want ErrBadReport", width, reasons)
		}
		logMu.Unlock()
		for u := range ws.files {
			for j := range ws.files[u] {
				for c, x := range ws.eng.GradBuffer(u, j) {
					want := sentinel
					if u == victim && width < ws.dim && c < width {
						want = 1 // the narrow frame's own coordinates
					}
					if x != want {
						t.Fatalf("width %d: worker %d row %d coordinate %d is %v, outside the frame's rows", width, u, j, c, x)
					}
				}
			}
		}
	}
}

// openConns counts the connections the server still references: those
// mid-handshake plus every worker's live and parked one.
func openConns[T linalg.Float](s *ServerOf[T]) int {
	s.mu.Lock()
	n := len(s.handshaking)
	s.mu.Unlock()
	s.src.mu.Lock()
	defer s.src.mu.Unlock()
	for u := range s.src.workers {
		if s.src.workers[u].conn != nil {
			n++
		}
		if s.src.workers[u].pending != nil {
			n++
		}
	}
	return n
}

// TestServerForgetsClosedConns: the server references a connection only
// while it is handshaking or serving a worker. Dials that send garbage
// and hang up while Serve still waits for its fleet leave nothing behind,
// and after a worker is evicted mid-run the count is the live fleet —
// a connection the server closed must not stay reachable (and with it a
// receive buffer of up to a report) until Serve returns.
func TestServerForgetsClosedConns(t *testing.T) {
	const victim, dials = 4, 40
	spec := testSpec(4)
	asn, err := spec.BuildAssignment()
	if err != nil {
		t.Fatal(err)
	}
	var srv *Server
	var afterEviction int
	srv, err = NewServer("127.0.0.1:0", ServerConfig{Spec: spec, OnRound: func(rs cluster.RoundStats) {
		if rs.Iteration == spec.Rounds-1 {
			afterEviction = openConns(srv)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx := context.Background()
	served := make(chan error, 1)
	go func() {
		_, err := srv.Serve(ctx)
		served <- err
	}()

	for i := 0; i < dials; i++ {
		raw, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		raw.Write([]byte("not a frame header"))
		raw.SetReadDeadline(time.Now().Add(10 * time.Second))
		if _, err := raw.Read(make([]byte, 64)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("dial %d: server did not close the garbage connection (%v)", i, err)
		}
		raw.Close()
	}
	// The client sees the close a moment before the handshake goroutine
	// returns and forgets the connection.
	deadline := time.Now().Add(10 * time.Second)
	for openConns(srv) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d rejected dials left %d connections referenced by a server with no worker", dials, openConns(srv))
		}
		time.Sleep(5 * time.Millisecond)
	}

	var wg sync.WaitGroup
	for u := 0; u < asn.K; u++ {
		if u == victim {
			continue
		}
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			if _, err := RunWorker(ctx, srv.Addr(), WorkerConfig{ID: u}); err != nil {
				t.Errorf("worker %d: %v", u, err)
			}
		}(u)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		raw, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Error(err)
			return
		}
		defer raw.Close()
		c := NewConn(raw)
		c.Send(Hello{WorkerID: victim, Version: wire.ProtocolVersion, Precisions: wire.PrecisionF64.Mask()})
		if _, err := c.Recv(); err != nil { // Welcome
			t.Error(err)
		}
		// Joined, then gone: the deferred Close is the eviction.
	}()
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if c := srv.Counters(); c.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", c.Evictions)
	}
	if want := asn.K - 1; afterEviction != want {
		t.Errorf("server references %d connections after the eviction, want the %d live workers", afterEviction, want)
	}
}

// waitGoroutines waits for the goroutine count to fall back to base.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("%d goroutines before, %d after; stacks:\n%s", base, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServeCancelCountsNoEvictions: cancelling Serve's context — from
// OnRound, with every worker on the same context — is a shutdown. The
// workers hang up on their own the instant the context is done, and
// those EOFs must not be counted as evictions whichever side's teardown
// the scheduler runs first; and nothing Serve or the workers started
// outlives them. Both precisions, several times each: the defect was a
// race.
func TestServeCancelCountsNoEvictions(t *testing.T) {
	type server interface {
		Addr() string
		Serve(context.Context) (float64, error)
		Counters() Counters
		Close() error
	}
	spec := testSpec(1 << 20)
	// Ninety workers hanging up at once against one teardown goroutine:
	// at fifteen the wrong order is too rare to catch.
	spec.Scheme, spec.K, spec.R = "frc", 90, 3
	asn, err := spec.BuildAssignment()
	if err != nil {
		t.Fatal(err)
	}
	for _, f32 := range []bool{false, true} {
		for rep := 0; rep < 4; rep++ {
			base := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			onRound := func(rs cluster.RoundStats) {
				if rs.Iteration == 2 {
					cancel()
				}
			}
			var srv server
			if f32 {
				srv, err = NewServer32("127.0.0.1:0", ServerConfig32{Spec: spec, OnRound: onRound})
			} else {
				srv, err = NewServer("127.0.0.1:0", ServerConfig{Spec: spec, OnRound: onRound})
			}
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for u := 0; u < asn.K; u++ {
				wg.Add(1)
				go func(u int) {
					defer wg.Done()
					var err error
					if f32 {
						_, err = RunWorker32(ctx, srv.Addr(), WorkerConfig32{ID: u, ReconnectAttempts: -1})
					} else {
						_, err = RunWorker(ctx, srv.Addr(), WorkerConfig{ID: u, ReconnectAttempts: -1})
					}
					if !errors.Is(err, context.Canceled) {
						t.Errorf("worker %d: %v, want context.Canceled", u, err)
					}
				}(u)
			}
			if _, err := srv.Serve(ctx); !errors.Is(err, context.Canceled) {
				t.Fatalf("Serve: %v, want context.Canceled", err)
			}
			wg.Wait()
			srv.Close()
			cancel()
			if c := srv.Counters(); c.Evictions != 0 || c.Joins != int64(asn.K) {
				t.Fatalf("f32=%v run %d: counters after cancel %+v, want %d joins and no evictions", f32, rep, c, asn.K)
			}
			waitGoroutines(t, base)
		}
	}
}

// TestLoopbackSteadyStateAllocs pins the heap allocations of one
// worker-round of the loopback wire path — PS and worker side together:
// broadcast, worker decode and report, pump decode, collection — at
// K=12 (four files per worker) over 20 steady-state rounds. The change
// that introduced this pin took it from 15.6 to 11.5 by dropping the
// per-send Files map, its sorted id slice and the per-write net.Buffers;
// what is left is the worker's decoded RoundStart (its Files map and one
// sample list per file), the two messages boxed by Recv, the report
// boxed for Send, and the broadcast's goroutine per worker.
func TestLoopbackSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	t.Run("f64", loopbackSteadyStateAllocs[float64])
	t.Run("f32", loopbackSteadyStateAllocs[float32])
}

func loopbackSteadyStateAllocs[T linalg.Float](t *testing.T) {
	const warm, timed, limit = 5, 20, 12.0
	spec := testSpec(warm + timed)
	spec.L, spec.R = 4, 3 // MOLS(4,3): K = 12
	const k = 12
	shared, err := NewSharedWorkerState(spec)
	if err != nil {
		t.Fatal(err)
	}
	var begin, end runtime.MemStats
	f := runFleetOf[T](t, spec, ServerConfig{
		Uplink: wire.TierRaw, FullBroadcastEvery: 1, EvalEvery: 1 << 20,
		OnRound: func(rs cluster.RoundStats) {
			switch rs.Iteration {
			case warm - 1:
				runtime.ReadMemStats(&begin)
			case warm + timed - 1:
				runtime.ReadMemStats(&end)
			}
		},
	}, func(int) WorkerConfig { return WorkerConfig{Shared: shared} }, nil).healthy(t)
	if len(f.errs) != k {
		t.Fatalf("K = %d, want %d", len(f.errs), k)
	}
	per := float64(end.Mallocs-begin.Mallocs) / float64(timed*k)
	t.Logf("%.2f mallocs per worker-round", per)
	if per > limit {
		t.Errorf("%.2f mallocs per worker-round, pinned at %.1f", per, limit)
	}
}

// TestHostileRoundStartFailsWorker: a RoundStart naming a round past the
// run's last (the field is an unchecked u32 on the wire, and a worker
// seeks its file stream to the round it is given), repeating a round this
// worker was already started on, or carrying bytes behind its params
// frame is ErrBadRoundStart — the worker's run ends there, before any
// seek or compute and without a reconnect. An honest and a Byzantine
// worker refuse alike: they are one code path up to the craft.
func TestHostileRoundStartFailsWorker(t *testing.T) {
	const id = 3
	spec := testSpec(4)
	asn, err := spec.BuildAssignment()
	if err != nil {
		t.Fatal(err)
	}
	spec.K = asn.K
	mdl, err := spec.BuildModel()
	if err != nil {
		t.Fatal(err)
	}
	params, err := wire.AppendParamsFullOf(nil, make([]float64, mdl.NumParams()))
	if err != nil {
		t.Fatal(err)
	}
	start := func(iter int) []byte {
		f, err := appendMessageFrame(nil, RoundStart{Iteration: iter, ParamsFrame: params})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	payload, _ := RoundStart{ParamsFrame: params}.appendPayload(nil)
	trailing, err := wire.AppendFrame(nil, msgRoundStart, append(payload, 0))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		stream []byte
		atk    attack.Attack
	}{
		{"round past the run", start(spec.Rounds), nil},
		{"round 2^32-1, byzantine", start(math.MaxUint32), attack.ALIE{}},
		{"round repeated", append(start(0), start(0)...), nil},
		{"round going back, byzantine", append(start(2), start(1)...), attack.ALIE{}},
		{"trailing bytes", trailing, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			dials := make(chan int, 1)
			go func() {
				n := 0
				defer func() { dials <- n }()
				for {
					raw, err := ln.Accept()
					if err != nil {
						return
					}
					n++
					c := NewConn(raw)
					c.Recv() // the Hello
					c.Send(Welcome{Version: wire.ProtocolVersion, Token: 7, Uplink: wire.TierRaw, Spec: spec})
					raw.Write(tc.stream)
					for err == nil { // reports, until the worker hangs up
						_, err = c.Recv()
					}
					raw.Close()
				}
			}()
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			_, err = RunWorker(ctx, ln.Addr().String(), WorkerConfig{ID: id, Attack: tc.atk})
			if !errors.Is(err, ErrBadRoundStart) {
				t.Errorf("worker returned %v, want ErrBadRoundStart", err)
			}
			ln.Close()
			if n := <-dials; n != 1 {
				t.Errorf("worker dialed %d times: the error was retried", n)
			}
		})
	}
}
