package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"byzshield/internal/assign"
	"byzshield/internal/cluster"
	"byzshield/internal/trainer"
	"byzshield/internal/wire"
)

// ServerConfig32 configures a float32-precision parameter server: the
// protocol v7 endpoint whose every params broadcast and gradient report
// carries float32 values (the f32 codec set of internal/wire). The f32
// tier is deliberately narrower than the f64 server — no fault
// injection, detection, adversary coordination, report sharding, or
// pipelining — because its purpose is the performance envelope: the
// same synchronous ByzShield round at half the wire traffic and the f32
// kernel throughput, bit-identical to the in-process cluster.Engine32.
type ServerConfig32 struct {
	// Spec describes the experiment; workers rebuild their state from
	// the Welcome's copy. The f32 tier supports the softmax model only
	// (Hidden must be 0) and no fault/detector components.
	Spec Spec
	// Quorum is the per-file survivor floor (0 = R/2 + 1).
	Quorum int
	// Parallelism is the engine pool width (0 = GOMAXPROCS).
	Parallelism int
	// Shards splits aggregation and the optimizer step into coordinate
	// ranges on the engine; bit-identical at any count. Reports stay
	// whole-vector on the wire (the f32 tier does not shard frames).
	Shards int
	// RoundTimeout bounds one round's collection (0 = default).
	RoundTimeout time.Duration
	// FullBroadcastEvery is the full-params cadence; deltas in between.
	FullBroadcastEvery int
	// EvalEvery is the evaluation cadence in rounds (0 = 10).
	EvalEvery int
	// Uplink is the preferred gradient report tier; each connection
	// negotiates down to the best tier its worker offers.
	Uplink wire.UplinkTier
	// OnRound, when non-nil, observes every completed round from the
	// serve loop. It blocks the next round, which is what the rejoin
	// tests use to pin re-admission to a chosen boundary.
	OnRound func(cluster.RoundStats)
	// Logf receives progress lines; nil disables logging.
	Logf func(format string, args ...any)
}

// Server32 is the float32 parameter server. It mirrors Server's
// connection lifecycle — accept loop, Hello/Welcome handshake with
// typed rejects, token-validated rejoins admitted at round boundaries,
// reader pumps feeding a deadline-bounded collection loop — over the
// reduced-precision engine and frame codecs.
type Server32 struct {
	cfg        ServerConfig32
	listener   net.Listener
	assignment *assign.Assignment
	eng        *cluster.Engine32
	src        *wireSource32

	mu      sync.Mutex
	conns   []*Conn
	serving bool

	histMu  sync.Mutex
	history trainer.History
}

// NewServer32 validates the configuration, builds the f32 engine, and
// binds the listen address.
func NewServer32(addr string, cfg ServerConfig32) (*Server32, error) {
	if cfg.Spec.Rounds < 1 {
		return nil, fmt.Errorf("transport: rounds %d < 1", cfg.Spec.Rounds)
	}
	if cfg.Spec.Fault != "" || len(cfg.Spec.Faults) > 0 {
		return nil, fmt.Errorf("transport: the f32 precision tier has no fault-injection plane")
	}
	if cfg.Spec.Detector != "" && cfg.Spec.Detector != "none" {
		return nil, fmt.Errorf("transport: the f32 precision tier has no detection plane")
	}
	asn, err := cfg.Spec.BuildAssignment()
	if err != nil {
		return nil, err
	}
	cfg.Spec.K = asn.K
	if err := welcomeFits(&cfg.Spec); err != nil {
		return nil, err
	}
	mdl, err := cfg.Spec.BuildModel32()
	if err != nil {
		return nil, err
	}
	agg, err := cfg.Spec.BuildAggregator32()
	if err != nil {
		return nil, err
	}
	train, test, err := cfg.Spec.BuildData()
	if err != nil {
		return nil, err
	}
	if cfg.EvalEvery < 1 {
		cfg.EvalEvery = 10
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.RoundTimeout == 0 {
		cfg.RoundTimeout = DefaultRoundTimeout
	}
	if cfg.FullBroadcastEvery == 0 {
		cfg.FullBroadcastEvery = DefaultFullBroadcastEvery
	}
	if cfg.FullBroadcastEvery < 1 {
		return nil, fmt.Errorf("transport: full-broadcast cadence %d < 1", cfg.FullBroadcastEvery)
	}
	if !cfg.Uplink.Valid() {
		return nil, fmt.Errorf("transport: unknown uplink tier %d", cfg.Uplink)
	}
	src := newWireSource32(asn, cfg.RoundTimeout, cfg.FullBroadcastEvery, cfg.Logf)
	src.uplink = cfg.Uplink
	eng, err := cluster.New32(cluster.Config32{
		Assignment:  asn,
		Model:       mdl,
		Train:       train,
		Test:        test,
		BatchSize:   cfg.Spec.BatchSize,
		Aggregator:  agg,
		Schedule:    cfg.Spec.Schedule,
		Momentum:    cfg.Spec.Momentum,
		Seed:        cfg.Spec.Seed,
		Quorum:      cfg.Quorum,
		Parallelism: cfg.Parallelism,
		Shards:      cfg.Shards,
		Source:      src,
	})
	if err != nil {
		return nil, err
	}
	src.bind(eng, mdl.NumParams())
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		eng.Close()
		return nil, err
	}
	return &Server32{
		cfg:        cfg,
		listener:   ln,
		assignment: asn,
		eng:        eng,
		src:        src,
	}, nil
}

// Addr returns the bound listen address.
func (s *Server32) Addr() string { return s.listener.Addr().String() }

// Close releases the listener and, when no Serve is in flight, the
// engine's pool goroutines (Serve's exit path releases them otherwise).
func (s *Server32) Close() error {
	err := s.listener.Close()
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.serving {
		s.eng.Close()
	}
	return err
}

// Params returns a copy of the current float32 parameter vector — used
// to verify trajectory identity against the in-process engine.
func (s *Server32) Params() []float32 { return s.eng.Params() }

// History returns the recorded evaluation series (valid once Serve has
// returned).
func (s *Server32) History() *trainer.History {
	s.histMu.Lock()
	defer s.histMu.Unlock()
	return &s.history
}

// Counters returns the cumulative connection-lifecycle totals.
func (s *Server32) Counters() Counters {
	return Counters{
		Joins:       s.src.joins.Load(),
		Rejoins:     s.src.rejoins.Load(),
		Evictions:   s.src.evictions.Load(),
		StaleFrames: s.src.staleFrames.Load(),
	}
}

// track registers a connection for cancellation teardown.
func (s *Server32) track(c *Conn) {
	s.mu.Lock()
	s.conns = append(s.conns, c)
	s.mu.Unlock()
}

// teardown closes the listener and every tracked connection.
func (s *Server32) teardown() {
	s.src.markClosing()
	s.listener.Close()
	s.mu.Lock()
	conns := append([]*Conn(nil), s.conns...)
	s.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// acceptLoop accepts connections for the whole run, handshaking each on
// its own goroutine.
func (s *Server32) acceptLoop(ctx context.Context, done chan<- error) {
	for {
		raw, err := s.listener.Accept()
		if err != nil {
			select {
			case done <- err:
			default:
			}
			return
		}
		conn := newHandshakeConn(raw)
		s.track(conn)
		go s.handshake(ctx, conn)
	}
}

// handshake runs one connection's Hello/Welcome exchange under the same
// discipline as Server.handshake: a bad handshake rejects this
// connection only. The f32 server requires the f32 bit in the Hello's
// precision mask — a pre-v7 peer is caught by the frame-header version
// check before the mask is even read.
func (s *Server32) handshake(ctx context.Context, conn *Conn) {
	reject := func(format string, args ...any) {
		s.cfg.Logf("rejecting %s: %s", conn.RemoteAddr(), fmt.Sprintf(format, args...))
		conn.Close()
	}
	conn.SetReadDeadline(time.Now().Add(helloTimeout))
	msg, err := conn.Recv()
	conn.SetReadDeadline(time.Time{})
	if err != nil {
		if errors.Is(err, wire.ErrVersionMismatch) {
			sendReject(conn, s.cfg.Logf, RejectVersion, err.Error())
			return
		}
		reject("hello: %v", ctxErr(ctx, err))
		return
	}
	hello, ok := msg.(Hello)
	if !ok {
		reject("expected Hello, got %T", msg)
		return
	}
	if hello.Version != wire.ProtocolVersion {
		sendReject(conn, s.cfg.Logf, RejectVersion,
			fmt.Sprintf("protocol version %d, want %d", hello.Version, wire.ProtocolVersion))
		return
	}
	if !precisionOffered(hello.Precisions, wire.PrecisionF32) {
		sendReject(conn, s.cfg.Logf, RejectPrecision,
			fmt.Sprintf("worker %d offers precision mask %#x, server runs %s",
				hello.WorkerID, hello.Precisions, wire.PrecisionF32))
		return
	}
	tier := negotiateTier(s.src.uplink, hello.Tiers)
	k := s.assignment.K
	if hello.WorkerID < 0 || hello.WorkerID >= k {
		reject("worker id %d out of range [0,%d)", hello.WorkerID, k)
		return
	}
	token, err := newToken()
	if err != nil {
		reject("token: %v", err)
		return
	}
	ws := s.src
	conn.setPayloadLimit(reportPayloadLimit[float32](len(ws.files[hello.WorkerID]), ws.dim))
	ws.mu.Lock()
	w := &ws.workers[hello.WorkerID]
	switch {
	case !w.joined:
		// First join: reserve the slot, publish after the Welcome is on
		// the wire (see Server.handshake).
		w.joined = true
		w.token = token
		ws.mu.Unlock()
	case hello.Resume && hello.Token == w.token:
		ws.mu.Unlock()
	case hello.Resume:
		ws.mu.Unlock()
		reject("worker %d rejoin with bad token", hello.WorkerID)
		return
	default:
		ws.mu.Unlock()
		reject("worker %d already connected", hello.WorkerID)
		return
	}
	if _, err := conn.Send(Welcome{
		Version:   wire.ProtocolVersion,
		Token:     token,
		FullEvery: s.cfg.FullBroadcastEvery,
		Uplink:    tier,
		Spec:      s.cfg.Spec,
		Shards:    1,
		Precision: wire.PrecisionF32,
	}); err != nil {
		if !hello.Resume {
			ws.mu.Lock()
			w := &ws.workers[hello.WorkerID]
			w.joined = false
			w.token = 0
			ws.mu.Unlock()
		}
		reject("welcome: %v", ctxErr(ctx, err))
		return
	}
	ws.mu.Lock()
	if ws.closing {
		ws.mu.Unlock()
		reject("server shutting down")
		return
	}
	w = &ws.workers[hello.WorkerID]
	w.token = token
	w.tier = tier
	var stale []*Conn
	// See Server.handshake: displacing a still-live connection is the
	// eviction, counted here exactly once.
	displaced := hello.Resume && w.conn != nil
	if hello.Resume {
		// Rejoins park for round-boundary admission; the valid token
		// proves the old stream is dead.
		stale = append(stale, w.conn, w.pending)
		w.conn = nil
		w.pending = conn
	} else {
		w.conn = conn
		w.lastAck = -1
		ws.joinedCount++
		ws.joins.Add(1)
		ws.startPump(hello.WorkerID, conn)
	}
	joined := ws.joinedCount
	ws.mu.Unlock()
	for _, c := range stale {
		if c != nil {
			c.Close()
		}
	}
	if displaced {
		ws.evicted(hello.WorkerID, errors.New("displaced by the worker's rejoin"))
	}
	if tier != s.src.uplink {
		s.cfg.Logf("worker %d: uplink tier %s unsupported by peer, downgraded to %s",
			hello.WorkerID, s.src.uplink, tier)
	}
	if hello.Resume {
		s.cfg.Logf("worker %d reconnected from %s (re-admission at next round)",
			hello.WorkerID, conn.RemoteAddr())
	} else {
		s.cfg.Logf("worker %d joined from %s (%d/%d)", hello.WorkerID, conn.RemoteAddr(), joined, k)
		select {
		case ws.joinedCh <- struct{}{}:
		default:
		}
	}
}

// Serve runs the full f32 training session: join barrier, Rounds
// protocol rounds, final evaluation, Shutdown broadcast. It mirrors
// Server.Serve without the detection, pipeline, and background-eval
// planes.
func (s *Server32) Serve(ctx context.Context) (float64, error) {
	s.mu.Lock()
	s.serving = true
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.serving = false
		s.mu.Unlock()
		s.eng.Close()
	}()
	s.src.serveDone = ctx.Done()
	stop := context.AfterFunc(ctx, s.teardown)
	defer stop()

	acceptDone := make(chan error, 1)
	go s.acceptLoop(ctx, acceptDone)
	defer s.listener.Close()
	defer s.src.shutdown()

	k := s.assignment.K
	for {
		if s.src.joinedWorkers() >= k {
			break
		}
		select {
		case <-s.src.joinedCh:
		case err := <-acceptDone:
			return 0, fmt.Errorf("transport: accept: %w", ctxErr(ctx, err))
		case <-ctx.Done():
			return 0, ctx.Err()
		}
	}

	for t := 0; t < s.cfg.Spec.Rounds; t++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		stats, err := s.eng.StepOnce(ctx)
		if err != nil {
			return 0, fmt.Errorf("transport: round %d: %w", t, ctxErr(ctx, err))
		}
		if len(stats.MissingWorkers) > 0 {
			s.cfg.Logf("round %d: missing workers %v (%d degraded, %d dropped files)",
				t, stats.MissingWorkers, stats.DegradedFiles, stats.DroppedFiles)
		}
		if s.cfg.OnRound != nil {
			s.cfg.OnRound(stats)
		}
		if (t+1)%s.cfg.EvalEvery == 0 || t == s.cfg.Spec.Rounds-1 {
			loss, acc := s.eng.EvalLoss(), s.eng.Evaluate()
			s.histMu.Lock()
			s.history.Add(t+1, loss, acc)
			s.histMu.Unlock()
			s.cfg.Logf("round %d: loss=%.4f acc=%.4f", t+1, loss, acc)
		}
	}
	final := s.eng.Evaluate()
	sendShutdown(s.src.shutdownConns(), final, s.cfg.Logf)
	s.src.drain()
	return final, nil
}

// workerEntry32 is one worker's connection-lifecycle state, guarded by
// wireSource32.mu (the f32 mirror of workerEntry, with no blacklist —
// the tier has no detection plane).
type workerEntry32 struct {
	conn    *Conn
	pending *Conn
	token   uint64
	joined  bool
	tier    wire.UplinkTier
	lastAck int
}

// wireSource32 is the f32 network GradientSource32: RoundStart
// broadcasts (full float32 params or XOR deltas by acknowledgement
// state), reader pumps decoding report frames straight into the
// engine's slot buffers, a single deadline-bounded collection loop.
type wireSource32 struct {
	timeout   time.Duration
	fullEvery int
	logf      func(format string, args ...any)
	uplink    wire.UplinkTier

	eng   *cluster.Engine32
	dim   int
	files [][]int

	mu          sync.Mutex
	workers     []workerEntry32
	joinedCount int
	closing     bool
	serveDone   <-chan struct{} // see wireSource.serveDone

	joinedCh chan struct{}
	inbox    chan pumpItem
	stopCh   chan struct{}
	pumps    sync.WaitGroup
	// arenaMu serializes decodes into one worker's engine buffers
	// across a rejoin displacing the previous connection's pump.
	arenaMu []sync.Mutex

	curRound    atomic.Int64
	retireBelow atomic.Int64

	joins, rejoins, evictions, staleFrames atomic.Int64
	lastEvictions, lastStaleFrames         int64

	// Round-loop scratch (only the collecting goroutine touches it).
	roundConns   []*Conn
	roundAcks    []int
	done         []bool
	collectTimer *time.Timer

	// Broadcast state: the previous round's vector is the delta base.
	prevParams []float32
	prevIter   int
	fullFrame  []byte
	deltaFrame []byte
}

func newWireSource32(asn *assign.Assignment, timeout time.Duration, fullEvery int, logf func(string, ...any)) *wireSource32 {
	ws := &wireSource32{
		timeout:    timeout,
		fullEvery:  fullEvery,
		logf:       logf,
		workers:    make([]workerEntry32, asn.K),
		joinedCh:   make(chan struct{}, 1),
		inbox:      make(chan pumpItem, 4*asn.K+8),
		stopCh:     make(chan struct{}),
		files:      make([][]int, asn.K),
		arenaMu:    make([]sync.Mutex, asn.K),
		roundConns: make([]*Conn, asn.K),
		roundAcks:  make([]int, asn.K),
		done:       make([]bool, asn.K),
		prevIter:   -1,
	}
	ws.curRound.Store(-1)
	ws.retireBelow.Store(-1)
	for u := 0; u < asn.K; u++ {
		ws.files[u] = asn.WorkerFiles(u)
	}
	return ws
}

// bind attaches the engine whose buffers the pumps decode into.
func (ws *wireSource32) bind(eng *cluster.Engine32, dim int) {
	ws.eng = eng
	ws.dim = dim
}

// startPump launches worker u's reader goroutine for conn; callers must
// hold ws.mu.
func (ws *wireSource32) startPump(u int, conn *Conn) {
	if ws.closing {
		return
	}
	ws.pumps.Add(1)
	p := &pump32{ws: ws, u: u, conn: conn, deliveredIter: -1}
	p.dec.Tier = ws.workers[u].tier
	go p.run()
}

// liveConn returns worker u's current live connection (nil when down).
func (ws *wireSource32) liveConn(u int) *Conn {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	return ws.workers[u].conn
}

// joinedWorkers reports how many workers have completed a first join.
func (ws *wireSource32) joinedWorkers() int {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	return ws.joinedCount
}

// shutdownConns returns the connected workers' connections for the
// final Shutdown, admitting pending rejoins first and flipping the
// source into closing mode (see wireSource.shutdownConns).
func (ws *wireSource32) shutdownConns() []*Conn {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	var out []*Conn
	for u := range ws.workers {
		w := &ws.workers[u]
		if w.pending != nil {
			if w.conn != nil {
				w.conn.Close()
			}
			w.conn, w.pending = w.pending, nil
			ws.startPump(u, w.conn)
		}
		if w.conn != nil {
			out = append(out, w.conn)
		}
	}
	ws.markClosingLocked()
	return out
}

// markClosing flips the source into closing mode exactly once.
func (ws *wireSource32) markClosing() {
	ws.mu.Lock()
	ws.markClosingLocked()
	ws.mu.Unlock()
}

func (ws *wireSource32) markClosingLocked() {
	if !ws.closing {
		ws.closing = true
		close(ws.stopCh)
	}
}

// drain marks shutdown and joins the pumps without force-closing
// connections, so workers get to read the final Shutdown.
func (ws *wireSource32) drain() {
	ws.markClosing()
	ws.pumps.Wait()
}

// shutdown closes every worker connection and joins every reader pump.
func (ws *wireSource32) shutdown() {
	ws.mu.Lock()
	ws.markClosingLocked()
	for u := range ws.workers {
		w := &ws.workers[u]
		if w.conn != nil {
			w.conn.Close()
			w.conn = nil
		}
		if w.pending != nil {
			w.pending.Close()
			w.pending = nil
		}
	}
	ws.mu.Unlock()
	ws.pumps.Wait()
}

// admitPending moves validated rejoin connections into the live slots
// at the round boundary and starts their reader pumps. The fresh
// connection's negotiated tier is already in the entry — a rejoin may
// renegotiate — and its decoder starts with no codec state, matching
// the worker's reset encoder.
func (ws *wireSource32) admitPending(t int) int {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	admitted := 0
	for u := range ws.workers {
		w := &ws.workers[u]
		if w.pending == nil {
			continue
		}
		if w.conn != nil {
			w.conn.Close()
		}
		w.conn, w.pending = w.pending, nil
		w.lastAck = -1
		ws.startPump(u, w.conn)
		ws.rejoins.Add(1)
		admitted++
		ws.logf("round %d: worker %d re-admitted", t, u)
	}
	return admitted
}

// ack records that worker u returned a valid report for round t.
func (ws *wireSource32) ack(u, t int) {
	ws.mu.Lock()
	ws.workers[u].lastAck = t
	ws.mu.Unlock()
}

// evict tears down a broken or misbehaving connection (see
// wireSource.evict).
func (ws *wireSource32) evict(u int, conn *Conn, err error) {
	conn.Close()
	ws.mu.Lock()
	live := ws.workers[u].conn == conn
	if live {
		ws.workers[u].conn = nil
	}
	closing := ws.closing || isClosed(ws.serveDone)
	ws.mu.Unlock()
	if live && !closing {
		ws.evicted(u, err)
	}
}

// evicted records that worker u's live connection was torn down mid-run.
func (ws *wireSource32) evicted(u int, err error) {
	ws.evictions.Add(1)
	ws.logf("round %d: evicting worker %d: %v", ws.curRound.Load(), u, err)
}

// prepareBroadcast encodes this round's shared f32 params frames: the
// full frame, and the XOR delta against the previous round's vector
// when any worker can use it.
func (ws *wireSource32) prepareBroadcast(t int, params []float32) error {
	var err error
	ws.fullFrame, err = wire.AppendParamsFull32(ws.fullFrame[:0], params)
	if err != nil {
		return fmt.Errorf("transport: broadcast: %w", err)
	}
	ws.deltaFrame = ws.deltaFrame[:0]
	if !refreshRound(t, ws.fullEvery) && ws.prevIter == t-1 {
		ws.deltaFrame, err = wire.AppendParamsDelta32(ws.deltaFrame[:0], ws.prevParams, params)
		if err != nil {
			return fmt.Errorf("transport: broadcast: %w", err)
		}
	}
	return nil
}

// Collect implements cluster.GradientSource32 over TCP under the exact
// structure of wireSource.Collect, minus the shard and pipeline planes:
// admit rejoins, broadcast in parallel, then drain the pumps' inbox
// under one deadline timer until every live worker is accounted for.
func (ws *wireSource32) Collect(ctx context.Context, rd *cluster.Round32) (cluster.CollectStats, error) {
	t := rd.Iteration()
	rejoins := ws.admitPending(t)
	ws.curRound.Store(int64(t))
	ws.retireBelow.Store(int64(t))
	if err := ws.prepareBroadcast(t, rd.Params()); err != nil {
		return cluster.CollectStats{}, err
	}
	start := time.Now()

	ws.mu.Lock()
	outstanding := 0
	for u := range ws.workers {
		w := &ws.workers[u]
		ws.roundConns[u] = w.conn
		ws.roundAcks[u] = w.lastAck
		ws.done[u] = false
		if w.conn == nil {
			rd.MarkMissing(u)
		} else {
			outstanding++
		}
	}
	ws.mu.Unlock()

	bcastStart := time.Now()
	var bcastBytes atomic.Int64
	var sends sync.WaitGroup
	for u := range ws.roundConns {
		conn := ws.roundConns[u]
		if conn == nil {
			continue
		}
		sends.Add(1)
		go func(u int, conn *Conn, lastAck int) {
			defer sends.Done()
			n, err := sendRoundStart(conn, ws.timeout, t, lastAck, ws.fullFrame, ws.deltaFrame, ws.files[u], rd, nil)
			if err != nil {
				ws.evict(u, conn, fmt.Errorf("send: %w", err))
				return
			}
			bcastBytes.Add(int64(n))
		}(u, conn, ws.roundAcks[u])
	}
	sends.Wait()
	bcastDur := time.Since(bcastStart)

	var reportBytes, rawBytes int64
	handleItem := func(item pumpItem) {
		u := item.u
		if ws.roundConns[u] != item.conn || ws.done[u] {
			if item.kind != pumpDeath {
				ws.staleFrames.Add(1)
			}
			return
		}
		switch item.kind {
		case pumpReport:
			if item.iter != t {
				ws.staleFrames.Add(1)
				return
			}
			reportBytes += int64(item.wireBytes)
			rawBytes += int64(item.rawBytes)
			for j := range ws.files[u] {
				if err := rd.Deliver(u, j, ws.eng.GradBuffer32(u, j)); err != nil {
					ws.evict(u, item.conn, err)
					rd.MarkMissing(u)
					ws.done[u] = true
					outstanding--
					return
				}
			}
			ws.ack(u, t)
		case pumpSkip:
			if item.iter != t {
				ws.staleFrames.Add(1)
				return
			}
			ws.logf("worker %d skipped round %d", u, t)
			ws.ack(u, t)
			rd.MarkMissing(u)
		case pumpDeath:
			rd.MarkMissing(u)
		}
		ws.done[u] = true
		outstanding--
	}
	timerC := armTimer(&ws.collectTimer, ws.timeout)
	for outstanding > 0 {
		select {
		case item := <-ws.inbox:
			handleItem(item)
		case <-timerC:
			drained := false
			for !drained && outstanding > 0 {
				select {
				case item := <-ws.inbox:
					handleItem(item)
				default:
					drained = true
				}
			}
			for u := range ws.roundConns {
				if ws.roundConns[u] != nil && !ws.done[u] {
					ws.logf("round %d: worker %d missed the deadline", t, u)
					rd.MarkMissing(u)
				}
			}
			outstanding = 0
		case <-ctx.Done():
			return cluster.CollectStats{}, ctx.Err()
		}
	}
	ws.retireBelow.Store(int64(t + 1))

	if ws.prevParams == nil {
		ws.prevParams = make([]float32, len(rd.Params()))
	}
	copy(ws.prevParams, rd.Params())
	ws.prevIter = t
	if err := ctx.Err(); err != nil {
		return cluster.CollectStats{}, err
	}
	ev, st := ws.evictions.Load(), ws.staleFrames.Load()
	stats := cluster.CollectStats{
		Communication:  time.Since(start),
		Broadcast:      bcastDur,
		ReportBytes:    reportBytes,
		ReportRawBytes: rawBytes,
		BroadcastBytes: bcastBytes.Load(),
		Rejoins:        rejoins,
		Evictions:      int(ev - ws.lastEvictions),
		StaleFrames:    int(st - ws.lastStaleFrames),
	}
	ws.lastEvictions, ws.lastStaleFrames = ev, st
	return stats, nil
}

// pump32 is one f32 connection's dedicated reader under the contract of
// pump: it decodes every frame the moment it arrives — stale ones into
// private scratch so the delta base stays in lockstep with the worker's
// encoder — and forwards validated current-round reports to the inbox.
type pump32 struct {
	ws   *wireSource32
	u    int
	conn *Conn
	dec  wire.UplinkDecoder32
	// frame is the decode target; its Grads are pointed at the engine's
	// slot buffers for deliverable reports and at private scratch for
	// stale ones.
	frame      wire.GradFrame32
	staleGrads [][]float32
	// deliveredIter/delivered bound the inbox to one report per
	// (connection, round).
	deliveredIter int
	delivered     bool
}

// run pumps frames until the connection dies or misbehaves.
func (p *pump32) run() {
	defer p.ws.pumps.Done()
	for {
		msg, err := p.conn.Recv()
		if err != nil {
			p.ws.evict(p.u, p.conn, err)
			p.notifyDeath(err)
			return
		}
		rep, ok := msg.(GradientReport)
		if !ok {
			err := fmt.Errorf("expected GradientReport, got %T", msg)
			p.ws.evict(p.u, p.conn, err)
			p.notifyDeath(err)
			return
		}
		if err := p.handle(rep); err != nil {
			p.ws.evict(p.u, p.conn, err)
			p.notifyDeath(err)
			return
		}
	}
}

// handle processes one gradient report frame in stream order.
func (p *pump32) handle(rep GradientReport) error {
	ws := p.ws
	if rep.WorkerID != p.u {
		return fmt.Errorf("report claims worker %d", rep.WorkerID)
	}
	if rep.Shard != 0 {
		return fmt.Errorf("report shard %d on an unsharded f32 connection", rep.Shard)
	}
	it := rep.Iteration
	cur := int(ws.curRound.Load())
	if it > cur || it < 0 {
		return fmt.Errorf("report for future round %d (current %d)", it, cur)
	}
	if it > p.deliveredIter {
		p.deliveredIter = it
		p.delivered = false
	}
	retire := int(ws.retireBelow.Load())
	if it < retire || it < p.deliveredIter || p.delivered {
		// Too late for its round or a duplicate: retire it now, but
		// still run it through the decoder so the uplink delta base
		// advances exactly as the worker's encoder did.
		ws.staleFrames.Add(1)
		if len(rep.Frame) == 0 {
			return nil
		}
		return p.decode(rep.Frame, p.scratchBufs())
	}
	p.delivered = true
	if len(rep.Frame) == 0 {
		p.push(pumpItem{kind: pumpSkip, u: p.u, conn: p.conn, iter: it})
		return nil
	}
	// Liveness re-checked under the arena lock: after a rejoin
	// displaces this connection, the new pump owns the worker's slot
	// buffers (see pump.handle).
	wf := ws.files[p.u]
	ws.arenaMu[p.u].Lock()
	live := ws.liveConn(p.u) == p.conn
	bufs := p.scratchBufs()
	if live {
		bufs = p.arenaBufs()
	}
	err := p.decode(rep.Frame, bufs)
	ws.arenaMu[p.u].Unlock()
	if err != nil {
		return err
	}
	if !live {
		ws.staleFrames.Add(1)
		return nil
	}
	p.push(pumpItem{
		kind: pumpReport, u: p.u, conn: p.conn, iter: it,
		wireBytes: len(rep.Frame),
		rawBytes:  wire.UplinkRaw32Size(len(wf), ws.dim),
	})
	return nil
}

// decode runs one report frame through the connection's uplink decoder
// into the given target buffers and validates its structure against the
// worker's static file assignment and the model dimension.
func (p *pump32) decode(frameBytes []byte, bufs [][]float32) error {
	ws := p.ws
	wf := ws.files[p.u]
	p.frame.Grads = bufs
	_, consumed, err := p.dec.Decode(frameBytes, &p.frame)
	switch {
	case err != nil:
		return err
	case consumed != len(frameBytes):
		return fmt.Errorf("frame has %d trailing bytes", len(frameBytes)-consumed)
	case p.frame.Worker != p.u:
		return fmt.Errorf("frame claims worker %d", p.frame.Worker)
	case !slices.Equal(p.frame.Files, wf):
		return fmt.Errorf("frame files %v, want %v", p.frame.Files, wf)
	}
	for j := range wf {
		if len(p.frame.Grads[j]) != ws.dim {
			return fmt.Errorf("frame gradient %d has dim %d, want %d", j, len(p.frame.Grads[j]), ws.dim)
		}
	}
	return nil
}

// arenaBufs points the decode at the engine's stable slot buffers for
// this worker — delivering a report frame is decoding it in place. The
// buffers are capacity-capped at the model dimension, so a hostile
// frame declaring a wider one makes the decoder allocate instead of
// scribbling past them (the width check then evicts).
func (p *pump32) arenaBufs() [][]float32 {
	ws := p.ws
	wf := ws.files[p.u]
	if cap(p.frame.Grads) < len(wf) {
		p.frame.Grads = make([][]float32, len(wf))
	}
	bufs := p.frame.Grads[:len(wf)]
	for j := range wf {
		bufs[j] = ws.eng.GradBuffer32(p.u, j)
	}
	return bufs
}

// scratchBufs are the pump-private decode targets for stale frames.
func (p *pump32) scratchBufs() [][]float32 {
	ws := p.ws
	wf := ws.files[p.u]
	if p.staleGrads == nil {
		p.staleGrads = make([][]float32, len(wf))
		for j := range p.staleGrads {
			p.staleGrads[j] = make([]float32, ws.dim)
		}
	}
	if cap(p.frame.Grads) < len(wf) {
		p.frame.Grads = make([][]float32, len(wf))
	}
	bufs := p.frame.Grads[:len(wf)]
	for j := range wf {
		bufs[j] = p.staleGrads[j][:ws.dim:ws.dim]
	}
	return bufs
}

// push forwards an item to the collection inbox, giving up when the
// source shuts down.
func (p *pump32) push(item pumpItem) {
	select {
	case p.ws.inbox <- item:
	case <-p.ws.stopCh:
	}
}

// notifyDeath posts a death notice so an in-flight collection stops
// waiting for this worker immediately.
func (p *pump32) notifyDeath(err error) {
	p.push(pumpItem{kind: pumpDeath, u: p.u, conn: p.conn, err: err})
}
