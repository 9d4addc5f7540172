package transport

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"byzshield/internal/assign"
	"byzshield/internal/cluster"
	"byzshield/internal/linalg"
	"byzshield/internal/obs"
	"byzshield/internal/trainer"
	"byzshield/internal/wire"
)

// DefaultRoundTimeout is the per-round collection deadline applied
// when ServerConfig.RoundTimeout is zero. A worker whose report has
// not arrived this long after the round broadcast is marked missing
// and the round proceeds over the survivors.
const DefaultRoundTimeout = 30 * time.Second

// DefaultFullBroadcastEvery is the full-parameter-broadcast cadence
// applied when ServerConfig.FullBroadcastEvery is zero: every 16th
// round ships the whole vector, the rounds between ship bit-exact XOR
// deltas.
const DefaultFullBroadcastEvery = 16

// helloTimeout bounds how long an accepted connection may take to send
// its Hello before the handshake rejects it and moves on; without it a
// half-open connection could stall worker admission forever.
const helloTimeout = 30 * time.Second

// shutdownDrainTimeout bounds how long the reader pumps keep draining
// a worker's connection after Shutdown is sent. Closing a socket with
// unread data resets it, which would destroy the buffered Shutdown
// before a lagging worker reads it; pumping until the worker closes
// its end hands every straggler its final accuracy, and the deadline
// guarantees the pump goroutines join even if a worker never hangs up.
const shutdownDrainTimeout = 10 * time.Second

// ServerConfig configures the TCP parameter server, at either value
// width: NewServer runs it over float64 frames and kernels, NewServer32
// over float32 ones. Nothing in it names a width.
type ServerConfig struct {
	Spec Spec
	// Logf receives progress lines; nil disables logging.
	Logf func(format string, args ...any)
	// EvalEvery controls accuracy evaluation cadence (default: every
	// 10 rounds). Evaluation runs on a parameter snapshot in a
	// background goroutine, so workers never idle behind it.
	EvalEvery int
	// RoundTimeout is the round's report-collection deadline: 0 selects
	// DefaultRoundTimeout, negative disables the deadline (the server
	// then waits indefinitely). A worker past the deadline is marked
	// missing for the round but keeps its connection — its reader pump
	// retires the late report the moment it arrives and the worker
	// participates again next round. Only a broken connection or a
	// malformed message evicts a worker, and an evicted worker may
	// rejoin with its session token.
	RoundTimeout time.Duration
	// FullBroadcastEvery is the cadence of full parameter broadcasts: 1
	// ships the whole vector every round (no deltas), N > 1 ships it on
	// every N-th round plus to every joining/rejoining or unacknowledged
	// worker, with bit-exact XOR deltas in between. 0 selects
	// DefaultFullBroadcastEvery.
	FullBroadcastEvery int
	// Uplink is the worker→PS gradient codec tier the server names in
	// every Welcome: TierRaw (the zero value) ships self-contained raw
	// frames, bit-identical to the in-process engine, and the lossy
	// TierSign / TierInt8 ship 1-bit / 8-bit linear-quantized gradients
	// (see internal/wire).
	Uplink wire.UplinkTier
	// Shards is inert: nothing reads it. It sized the sharded
	// aggregation plane protocol v10 deleted, and stays only because
	// bench/adapter_fleet.go sets it and that module is not this
	// package's to edit; ROADMAP item 1a deletes it with the names.go
	// aliases.
	Shards int
	// Pipeline is inert: nothing reads it. It selected the pipelined-prep
	// plane protocol v8 deleted, and stays only because
	// bench/adapter_fleet.go sets it and that module is not this
	// package's to edit; ROADMAP item 1a deletes it with the names.go
	// aliases.
	Pipeline bool
	// OnRound, when non-nil, receives every completed round's
	// statistics — including missing workers, degraded/dropped file
	// counts, and connection-lifecycle counters. It runs on the serve
	// loop between rounds: the next round starts only after it returns.
	OnRound func(cluster.RoundStats)
	// Metrics, when non-nil, receives the server's metric families at
	// construction: the engine and detection instruments (via
	// cluster.Config.Metrics) plus the transport's own — live lifecycle
	// counters bridged from the same atomics Counters reads, pump inbox
	// depth, and the current round. Every hot-path update is an atomic
	// store into preallocated state; the registry is only walked at
	// scrape time.
	Metrics *obs.Registry
	// Tracer, when non-nil, records one RoundTrace per round (via
	// cluster.Config.Tracer) and has the background evaluation span
	// attached after the fact.
	Tracer *obs.Tracer
}

// Counters are the server's cumulative connection-lifecycle totals,
// exported for fleet monitoring (byzps prints them at shutdown).
type Counters struct {
	// Joins counts first-time worker admissions.
	Joins int64
	// Rejoins counts re-admissions of returning workers at round
	// boundaries.
	Rejoins int64
	// Evictions counts live connections torn down mid-run (broken
	// streams, protocol violations) — shutdown teardown excluded.
	Evictions int64
	// StaleFrames counts gradient reports that arrived too late for
	// their round and were retired by the reader pumps without entering
	// any vote.
	StaleFrames int64
	// BlacklistRejections counts rejoin attempts refused with a typed
	// Reject because the detection layer blacklisted the worker.
	BlacklistRejections int64
}

// ServerOf is the TCP parameter server at value width T — the width of
// every parameter broadcast, gradient report and kernel of the run, which
// its Welcome pins (wire.PrecisionOf[T]) and which a worker must have
// offered in its Hello. It accepts K workers and drives
// the synchronous rounds of Algorithm 1 over the network. The per-round
// protocol itself — majority vote with quorum, robust aggregation,
// momentum step — executes in the shared cluster round core; the server
// merely installs a network GradientSource, so the wire path inherits
// the gradient arena, the pooled vote, and the chunked
// aggregation of the in-process engine and reproduces its parameter
// trajectory bit-for-bit for the same Spec.
//
// Every accepted worker connection is served by a dedicated reader
// pump: a goroutine that decodes frames as they arrive and feeds
// already-parsed reports into the collection inbox, so the round loop
// never blocks on a socket and a late report is retired the moment it
// lands instead of clogging the next round's collection window.
//
// The accept loop runs for the whole Serve call: workers that crash or
// are evicted mid-run can reconnect (Hello with Resume and their
// session token) and are re-admitted at the next round boundary, where
// they receive a full parameter broadcast and resume contributing their
// file gradients.
type ServerOf[T linalg.Float] struct {
	cfg        ServerConfig
	listener   net.Listener
	assignment *assign.Assignment
	eng        *cluster.EngineOf[T]
	src        *wireSource[T]
	fleet      *obs.FleetTable

	histMu  sync.Mutex
	history trainer.History

	mu sync.Mutex
	// handshaking holds the accepted connections whose Hello/Welcome
	// exchange is in flight, so teardown can unblock them. A connection
	// leaves the set when its handshake returns: rejected and closed, or
	// published into the source's worker table, its one owner from then.
	handshaking map[*Conn]struct{}
	serving     bool
}

// NewServerOf validates the config, builds the width-T round engine and
// binds the listener on addr (e.g. "127.0.0.1:0" to pick a free port).
func NewServerOf[T linalg.Float](addr string, cfg ServerConfig) (*ServerOf[T], error) {
	if cfg.Spec.Rounds < 1 {
		return nil, fmt.Errorf("transport: rounds %d < 1", cfg.Spec.Rounds)
	}
	engCfg, err := EngineConfigOf[T](&cfg.Spec)
	if err != nil {
		return nil, err
	}
	asn, mdl := engCfg.Assignment, engCfg.Model
	cfg.Spec.K = asn.K
	if err := welcomeFits(&cfg.Spec); err != nil {
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
	src := newWireSource[T](asn, cfg.RoundTimeout, cfg.FullBroadcastEvery, cfg.Logf)
	src.uplink = cfg.Uplink
	// Workers inject their own faults; the PS only sees who is missing.
	engCfg.Fault = nil
	engCfg.Source, engCfg.Metrics, engCfg.Tracer = src, cfg.Metrics, cfg.Tracer
	eng, err := cluster.NewOf(engCfg)
	if err != nil {
		return nil, err
	}
	// Bind the engine's stable gradient buffers to the source: the
	// reader pumps decode current-round reports straight into them.
	src.eng, src.dim = eng, mdl.NumParams()
	// The fleet table exists unconditionally (it backs /statusz and the
	// per-worker /metrics series, and its updates are single atomic
	// stores); the registry families are only added when metrics are on.
	fleet := obs.NewFleetTable(asn.K)
	src.fleet = fleet
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		eng.Close()
		return nil, err
	}
	s := &ServerOf[T]{
		cfg:        cfg,
		listener:   ln,
		assignment: asn,
		eng:        eng,
		src:        src,
		fleet:      fleet,

		handshaking: make(map[*Conn]struct{}),
	}
	if cfg.Metrics != nil {
		s.registerInstruments(cfg.Metrics)
	}
	return s, nil
}

// Fleet returns the server's per-worker status table — the backing
// store of /statusz and the worker-labeled /metrics series.
func (s *ServerOf[T]) Fleet() *obs.FleetTable { return s.fleet }

// Addr returns the bound listen address.
func (s *ServerOf[T]) Addr() string { return s.listener.Addr().String() }

// Close releases the listener and, when no Serve is in flight, the
// engine's worker-pool goroutines. Close is safe to call concurrently
// with a running Serve: the engine must not be torn down under a
// mid-flight round, so in that case Serve's own exit path releases it.
func (s *ServerOf[T]) Close() error {
	err := s.listener.Close()
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.serving {
		s.eng.Close()
	}
	return err
}

// History returns the recorded evaluation series. Valid once Serve has
// returned (evaluation runs on a background goroutine during a run).
func (s *ServerOf[T]) History() *trainer.History {
	s.histMu.Lock()
	defer s.histMu.Unlock()
	return &s.history
}

// Params returns a copy of the current model parameter vector — the
// wire-path counterpart of cluster.Engine.Params, used to verify
// trajectory identity between the two paths.
func (s *ServerOf[T]) Params() []T { return s.eng.Params() }

// Counters returns the cumulative connection-lifecycle totals.
func (s *ServerOf[T]) Counters() Counters {
	return Counters{
		Joins:               s.src.joins.Load(),
		Rejoins:             s.src.rejoins.Load(),
		Evictions:           s.src.evictions.Load(),
		StaleFrames:         s.src.staleFrames.Load(),
		BlacklistRejections: s.src.blacklistRejections.Load(),
	}
}

// teardown closes the listener and every connection — the workers'
// and those still handshaking — unblocking any in-flight
// Accept/Send/Recv. The source is marked closing before its connections
// close, so the pump exits the teardown provokes are not miscounted as
// evictions — cancellation is a deliberate shutdown.
func (s *ServerOf[T]) teardown() {
	s.src.closeConns()
	s.listener.Close()
	s.mu.Lock()
	for c := range s.handshaking {
		c.Close()
	}
	s.mu.Unlock()
}

// newToken draws a fresh random session token.
func newToken() (uint64, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// acceptLoop accepts connections for the whole run, handshaking each on
// its own goroutine: initial joins before round 1, rejoins any time
// after. It exits when the listener closes (teardown or end of Serve).
func (s *ServerOf[T]) acceptLoop(ctx context.Context, done chan<- error) {
	for {
		raw, err := s.listener.Accept()
		if err != nil {
			done <- ctxErr(ctx, err)
			return
		}
		conn := newHandshakeConn(raw)
		s.mu.Lock()
		s.handshaking[conn] = struct{}{}
		s.mu.Unlock()
		go s.handshake(ctx, conn)
	}
}

// handshake runs one connection's Hello/Welcome exchange. A bad
// handshake rejects this connection only: the listener keeps accepting,
// so one malformed, duplicate, or stale-token Hello cannot tear down
// the cluster.
func (s *ServerOf[T]) handshake(ctx context.Context, conn *Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.handshaking, conn)
		s.mu.Unlock()
	}()
	reject := func(format string, args ...any) {
		s.cfg.Logf("rejecting %s: %s", conn.RemoteAddr(), fmt.Sprintf(format, args...))
		conn.Close()
	}
	conn.SetReadDeadline(time.Now().Add(helloTimeout))
	msg, err := conn.Recv()
	conn.SetReadDeadline(time.Time{})
	if err != nil {
		if errors.Is(err, wire.ErrVersionMismatch) {
			// The peer speaks another protocol version — its very first
			// frame header says so, before any payload parses. Tell it
			// with a typed Reject instead of a silent close (an old peer
			// may not parse the v6 Reject frame, but the bytes on its
			// socket are deterministic and diagnosable either way).
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
	if prec := wire.PrecisionOf[T](); hello.Precisions&prec.Mask() == 0 {
		// Every frame of this run carries values of width T; a worker
		// that does not speak that codec set cannot parse them.
		sendReject(conn, s.cfg.Logf, RejectPrecision, fmt.Sprintf("worker %d offers precision mask %#x, server runs %s",
			hello.WorkerID, hello.Precisions, prec))
		return
	}
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
	// The peer is a worker of this run: from here it may send report
	// frames, and nothing larger.
	conn.setPayloadLimit(reportPayloadLimit[T](len(ws.files[hello.WorkerID]), ws.dim))
	ws.mu.Lock()
	w := &ws.workers[hello.WorkerID]
	switch {
	case w.blacklisted:
		// Blacklist beats token validation: even a valid session token is
		// permanently revoked, and the worker is told so with a typed
		// Reject instead of a silent close.
		ws.mu.Unlock()
		s.rejectBlacklisted(conn, hello.WorkerID)
		return
	case !w.joined:
		// First join: reserve the slot (blocks duplicate Hellos) but do
		// NOT publish the connection yet — it becomes visible to the
		// join barrier and the round loop only after the Welcome is
		// fully on the wire, so a RoundStart can never race the
		// handshake's own Send on this Conn.
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
		Uplink:    ws.uplink,
		Spec:      s.cfg.Spec,
		Precision: wire.PrecisionOf[T](),
	}); err != nil {
		if !hello.Resume {
			// Release the reserved slot so the worker id can join again.
			ws.mu.Lock()
			w := &ws.workers[hello.WorkerID]
			w.joined = false
			w.token = 0
			ws.mu.Unlock()
		}
		reject("welcome: %v", ctxErr(ctx, err))
		return
	}
	// The Welcome is on the wire: publish the connection. A rejoin is
	// parked for round-boundary admission (closing any stale live or
	// previously parked connection — a valid token proves the old
	// stream is dead or hijacked); a first join goes live immediately
	// (rounds wait for the full fleet behind the join barrier) with its
	// reader pump started.
	ws.mu.Lock()
	if ws.closing {
		ws.mu.Unlock()
		reject("server shutting down")
		return
	}
	w = &ws.workers[hello.WorkerID]
	if w.blacklisted {
		// Blacklisted while the Welcome was in flight.
		ws.mu.Unlock()
		s.rejectBlacklisted(conn, hello.WorkerID)
		return
	}
	w.token = token
	var stale []*Conn
	// A rejoin that finds the old connection still live tears it down
	// here, before its pump has seen the stream break: that is the
	// eviction, counted now — the pump will find the slot already cleared
	// and stay silent, so the count is one whichever of the two notices
	// first.
	displaced := hello.Resume && w.conn != nil
	if hello.Resume {
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
	s.fleet.Touch(hello.WorkerID, time.Now())
	if hello.Resume {
		// State flips to live at admitPending — the round boundary where
		// the rejoin actually takes effect.
		s.cfg.Logf("worker %d reconnected from %s (re-admission at next round)", hello.WorkerID, conn.RemoteAddr())
	} else {
		s.fleet.SetState(hello.WorkerID, obs.WorkerLive)
		s.cfg.Logf("worker %d joined from %s (%d/%d)", hello.WorkerID, conn.RemoteAddr(), joined, k)
		select {
		case ws.joinedCh <- struct{}{}:
		default:
		}
	}
}

// sendReject refuses a handshake with a typed Reject before closing, so
// the peer learns why it cannot enter the run (and whether retrying can
// ever help) instead of seeing a silent close.
func sendReject(conn *Conn, logf func(string, ...any), code uint8, reason string) {
	logf("rejecting %s: %s", conn.RemoteAddr(), reason)
	conn.SetWriteDeadline(time.Now().Add(helloTimeout))
	if _, err := conn.Send(Reject{Code: code, Reason: reason}); err != nil {
		logf("reject send to %s: %v", conn.RemoteAddr(), err)
	}
	conn.Close()
}

// rejectBlacklisted refuses a blacklisted worker's handshake with a
// typed Reject frame and counts the refusal.
func (s *ServerOf[T]) rejectBlacklisted(conn *Conn, u int) {
	s.src.blacklistRejections.Add(1)
	sendReject(conn, s.cfg.Logf, RejectBlacklisted, fmt.Sprintf("worker %d blacklisted by the detection layer", u))
}

// evalJob is one background evaluation request: the round it belongs to
// and a snapshot of the parameters after that round.
type evalJob[T linalg.Float] struct {
	round  int
	params []T
}

// Serve accepts the K workers, runs the configured number of rounds
// through the shared round core, and shuts the workers down, returning
// the final test accuracy. Workers whose report misses the round
// deadline are marked missing for the round but stay connected (their
// pump retires the late report on arrival); workers whose connection
// breaks are evicted and may rejoin at a later round boundary with
// their session token. Files below the replica quorum drop out of
// aggregation; training only fails when no file meets quorum.
// Accuracy/loss evaluation runs on parameter snapshots in a background
// goroutine, so workers never wait on it between rounds. Canceling ctx
// aborts the accept loop and any in-flight round promptly (by closing
// the listener and worker connections) and returns ctx.Err(); the
// evaluation history recorded up to that point remains available via
// History. On every exit path the reader pumps are joined before Serve
// returns — no goroutine outlives the call.
func (s *ServerOf[T]) Serve(ctx context.Context) (float64, error) {
	s.mu.Lock()
	s.serving = true
	s.mu.Unlock()
	defer func() {
		// Rounds are done (or aborted): the engine pool is idle, so it
		// is safe to release here; Engine.Close is idempotent and its
		// read-only accessors (Params, Evaluate) keep working after.
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
	defer s.listener.Close() // stop accepting once Serve unwinds

	// Deterministic teardown: whatever path Serve exits on, close every
	// worker connection and join every reader pump before returning.
	defer s.src.shutdown()

	// Join barrier: wait until all K workers have completed a first
	// handshake. joinedCh is pulsed per join; re-check the count.
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
	// The broadcast senders, one per worker slot, live until Serve
	// unwinds. Only this goroutine queues their jobs (Collect runs on it),
	// and every Collect waits out its round's sends, so when the deferred
	// stop closes the queues every sender is idle and exits at once —
	// before src.shutdown joins the pumps.
	s.src.startSenders()
	defer s.src.stopSenders()

	// Background evaluation: snapshots stream through evalCh in round
	// order; the goroutine appends to the history, so the serve loop
	// never blocks on model evaluation.
	evalCh := make(chan evalJob[T], 4)
	evalDone := make(chan struct{})
	go func() {
		defer close(evalDone)
		for job := range evalCh {
			evalStart := time.Now()
			loss := s.eng.EvalLossParams(job.params)
			acc := s.eng.EvaluateParams(job.params)
			evalDur := time.Since(evalStart)
			s.eng.ObservePhase(obs.PhaseEval, evalDur)
			if s.cfg.Tracer != nil {
				// Traces carry the 0-based iteration; eval jobs the
				// 1-based display round.
				s.cfg.Tracer.AttachEval(job.round-1, evalDur, loss, acc)
			}
			s.histMu.Lock()
			s.history.Add(job.round, loss, acc)
			s.histMu.Unlock()
			s.cfg.Logf("round %d: loss=%.4f acc=%.4f", job.round, loss, acc)
		}
	}()
	drainEval := func() {
		close(evalCh)
		<-evalDone
	}

	for t := 0; t < s.cfg.Spec.Rounds; t++ {
		if err := ctx.Err(); err != nil {
			drainEval()
			return 0, err
		}
		stats, err := s.eng.StepOnce(ctx)
		if err != nil {
			drainEval()
			return 0, fmt.Errorf("transport: round %d: %w", t, ctxErr(ctx, err))
		}
		if len(stats.MissingWorkers) > 0 {
			s.cfg.Logf("round %d: missing workers %v (%d degraded, %d dropped files)",
				t, stats.MissingWorkers, stats.DegradedFiles, stats.DroppedFiles)
		}
		if stats.AggregatorDegraded {
			s.cfg.Logf("round %d: aggregator below feasibility floor, degraded to median", t)
		}
		// Detection verdicts: tear down newly blacklisted workers'
		// connections and revoke their rejoin tokens before the next
		// round broadcasts.
		for _, u := range stats.BlacklistedWorkers {
			s.src.blacklist(u)
		}
		// Publish the round's reputation scores to the fleet table (K
		// atomic stores; the engine accessor is lock-free).
		for u := 0; u < k; u++ {
			s.fleet.SetReputation(u, s.eng.Reputation(u))
		}
		if s.cfg.OnRound != nil {
			s.cfg.OnRound(stats)
		}
		if (t+1)%s.cfg.EvalEvery == 0 || t == s.cfg.Spec.Rounds-1 {
			evalCh <- evalJob[T]{round: t + 1, params: s.eng.Params()}
		}
	}
	drainEval()
	final := s.eng.Evaluate()
	sendShutdown(s.src.shutdownConns(), final, s.cfg.Logf)
	// Join the pumps without force-closing connections: closing a socket
	// with unread data resets it, which would destroy the buffered
	// Shutdown before a lagging worker reads it. The deferred
	// src.shutdown() then finds every pump gone and every connection
	// already closed by its own pump exit.
	s.src.drain()
	return final, nil
}

// sendShutdown tells every connected worker the run is over. Each pump
// keeps draining its connection until the worker has read the Shutdown
// and hung up (EOF); the read deadline bounds that drain, so joining the
// pumps afterwards is deterministic.
func sendShutdown(conns []*Conn, final float64, logf func(string, ...any)) {
	for _, c := range conns {
		c.SetWriteDeadline(time.Now().Add(helloTimeout))
		if _, err := c.Send(Shutdown{FinalAccuracy: final}); err != nil {
			logf("shutdown send: %v", err)
			c.Close()
			continue
		}
		c.SetReadDeadline(time.Now().Add(shutdownDrainTimeout))
	}
}

// workerEntry is one worker's connection-lifecycle state, guarded by
// wireSource.mu.
type workerEntry struct {
	// conn is the live connection (nil before the first join and while
	// the worker is down).
	conn *Conn
	// pending is a validated rejoin connection awaiting admission at
	// the next round boundary.
	pending *Conn
	// token is the session token rejoins must present.
	token uint64
	// joined records that the worker completed a first handshake.
	joined bool
	// blacklisted records that the detection layer evicted the worker
	// permanently: its token stays on file but every handshake is
	// refused with Reject{RejectBlacklisted}.
	blacklisted bool
	// lastAck is the last iteration for which the worker returned a
	// valid report (implying it received and applied that round's
	// parameter broadcast); -1 after (re)join forces a full broadcast.
	lastAck int
}

// pumpItemKind tags inbox entries.
type pumpItemKind int

const (
	// pumpReport: a validated current-round gradient report, already
	// decoded into the engine's arena buffers.
	pumpReport pumpItemKind = iota
	// pumpSkip: an explicit empty report — alive, no gradients.
	pumpSkip
	// pumpDeath: the pump exited (connection broke or misbehaved).
	pumpDeath
)

// pumpItem is one parsed event flowing from a reader pump to the
// collection loop.
type pumpItem struct {
	kind pumpItemKind
	u    int
	conn *Conn
	iter int
	// wireBytes/rawBytes are the report's actual frame size and its
	// raw-equivalent size (pumpReport only).
	wireBytes, rawBytes int
	err                 error
}

// pump is one connection's dedicated reader: it blocks on the socket,
// decodes every deliverable report the moment it arrives, and forwards
// it to the collection inbox. Stale reports — duplicates, or reports
// that missed their round's deadline — are counted and dropped unread
// (uplink frames are self-contained, so skipping one costs the next
// nothing). The pump never sets read deadlines: the round loop's single
// collection timer is the only clock on the hot path.
type pump[T linalg.Float] struct {
	ws   *wireSource[T]
	u    int
	conn *Conn
	dec  wire.UplinkDecoderOf[T]
	// frame is the decode target; its Grads point at the engine's arena
	// buffers.
	frame wire.GradFrameOf[T]
	// deliveredIter/delivered bound the inbox: at most one report frame
	// (or skip) enters it per (connection, round), which keeps a
	// duplicate frame from being decoded into an arena buffer the engine
	// is reading. delivered marks deliveredIter's frame as forwarded.
	deliveredIter int
	delivered     bool
}

// run pumps frames until the connection dies or misbehaves.
func (p *pump[T]) run() {
	defer p.ws.pumps.Done()
	for {
		typ, body, err := p.conn.next()
		if err == nil {
			err = p.handleFrame(typ, body)
		}
		if err != nil {
			p.ws.evict(p.u, p.conn, err)
			p.notifyDeath(err)
			return
		}
	}
}

// handleFrame decodes one frame into a stack GradientReport and handles
// it. Any other frame type is a protocol violation: the error names it
// (or is the decode error of a frame that is not even well formed).
func (p *pump[T]) handleFrame(typ byte, body []byte) error {
	if typ != msgGradientReport {
		msg, err := decodeMessage(typ, body)
		if err != nil {
			return err
		}
		return fmt.Errorf("expected GradientReport, got %T", msg)
	}
	var rep GradientReport
	if err := rep.decodePayload(body); err != nil {
		return err
	}
	return p.handle(&rep)
}

// handle processes one gradient report frame in stream order.
func (p *pump[T]) handle(rep *GradientReport) error {
	ws := p.ws
	if rep.WorkerID != p.u {
		return fmt.Errorf("report claims worker %d", rep.WorkerID)
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
		// Too late for its round, or a duplicate frame: retire it
		// unread.
		ws.staleFrames.Add(1)
		return nil
	}
	p.delivered = true
	if len(rep.Frame) == 0 {
		// Explicit skip: alive, no gradients this round.
		p.push(pumpItem{kind: pumpSkip, u: p.u, conn: p.conn, iter: it})
		return nil
	}
	// Arena decodes for one worker are serialized, and liveness is
	// re-checked under that lock: after a rejoin displaces this
	// connection, the new pump owns the worker's arena slots, and a
	// superseded pump that already passed the round checks must not race
	// it — its report is retired unread.
	wf := ws.files[p.u]
	ws.arenaMu[p.u].Lock()
	if ws.liveConn(p.u) != p.conn {
		ws.arenaMu[p.u].Unlock()
		ws.staleFrames.Add(1)
		return nil
	}
	err := p.decode(rep.Frame)
	ws.arenaMu[p.u].Unlock()
	if err != nil {
		return fmt.Errorf("%w: %w", ErrBadReport, err)
	}
	p.push(pumpItem{
		kind: pumpReport, u: p.u, conn: p.conn, iter: it,
		wireBytes: len(rep.Frame),
		rawBytes:  wire.UplinkRawSizeOf[T](len(wf), ws.dim),
	})
	return nil
}

// decode runs one report frame through the uplink decoder into the
// worker's arena buffers and validates its structure against the
// worker's static file assignment and the model dimension.
func (p *pump[T]) decode(frameBytes []byte) error {
	ws := p.ws
	wf := ws.files[p.u]
	p.frame.Grads = p.arenaBufs()
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
// this worker — delivering a report frame is decoding it in place.
func (p *pump[T]) arenaBufs() [][]T {
	ws := p.ws
	wf := ws.files[p.u]
	if cap(p.frame.Grads) < len(wf) {
		p.frame.Grads = make([][]T, len(wf))
	}
	bufs := p.frame.Grads[:len(wf)]
	for j := range wf {
		// The full slice expression caps the target at the row's end: a
		// hostile frame declaring a wider dimension makes the decoder
		// allocate instead of scribbling past the row into the arena's
		// next buffer, and the width check above then evicts.
		bufs[j] = ws.eng.GradBuffer(p.u, j)[:ws.dim:ws.dim]
	}
	return bufs
}

// push forwards an item to the collection inbox, giving up when the
// source shuts down (the only state in which the inbox can stay full).
func (p *pump[T]) push(item pumpItem) {
	select {
	case p.ws.inbox <- item:
	case <-p.ws.stopCh:
	}
}

// notifyDeath posts a death notice so an in-flight collection stops
// waiting for this worker immediately instead of running out the
// deadline.
func (p *pump[T]) notifyDeath(err error) {
	p.push(pumpItem{kind: pumpDeath, u: p.u, conn: p.conn, err: err})
}

// sendJob is one worker slot's RoundStart send of a round: the
// connection the round's snapshot found live, the round, and the
// worker's broadcast acknowledgement at the snapshot.
type sendJob struct {
	conn       *Conn
	t, lastAck int
}

// wireSource is the network GradientSource: it broadcasts RoundStart
// (full parameters or XOR deltas, by acknowledgement state) to the
// connected workers through one sender goroutine per worker slot, then
// collects their gradient reports from the reader pumps' inbox under a
// single round deadline. Reports are already parsed and decoded into the
// engine's arena buffers when they reach the collection loop; absent or
// misbehaving workers are marked missing so the round core's quorum rule
// decides the fate of their files.
type wireSource[T linalg.Float] struct {
	timeout   time.Duration
	fullEvery int
	logf      func(format string, args ...any)

	eng *cluster.EngineOf[T]
	dim int

	// fleet is the per-worker status table (set by NewServer, never
	// nil): handshake/eviction/blacklist flip the state rows, the
	// collection loop stamps report arrivals. All updates are single
	// atomic stores.
	fleet *obs.FleetTable

	// uplink is the run's codec tier (ServerConfig.Uplink), named in
	// every Welcome.
	uplink wire.UplinkTier

	mu          sync.Mutex
	workers     []workerEntry
	joinedCount int
	joinedCh    chan struct{}
	// closing marks shutdown: no new pumps may start, and pump exits
	// stop counting as evictions. Guarded by mu (set exactly once).
	closing bool
	// serveDone is the Serve context's Done channel, set before Serve
	// starts the first goroutine that can evict (see isClosed).
	serveDone <-chan struct{}

	// inbox is the bounded fan-in of every reader pump. Capacity covers
	// the worst case of one report per worker per round (the pumps'
	// delivered guard), leftovers of one previous round, and a death
	// notice per worker, plus a worker's worth of margin (4·K + 8), so
	// pumps block only when the collector is about to drain.
	inbox  chan pumpItem
	stopCh chan struct{}
	// pumps joins every reader goroutine at shutdown. Adds happen under
	// mu with closing false; shutdown flips closing under mu before
	// waiting, so Wait cannot race a late Add.
	pumps sync.WaitGroup

	// curRound is the iteration being collected; retireBelow the bound
	// under which the pumps retire reports as stale. During collection
	// retireBelow == curRound; the moment collection closes it advances
	// to curRound+1, so a report landing mid-aggregation is retired on
	// arrival rather than discovered next round.
	curRound    atomic.Int64
	retireBelow atomic.Int64

	// Cumulative lifecycle counters (see Counters).
	joins, rejoins, evictions, staleFrames atomic.Int64
	blacklistRejections                    atomic.Int64
	// lastEvictions/lastStaleFrames are the totals at the end of the
	// previous collection, so each round reports the delta — including
	// events that landed between rounds.
	lastEvictions, lastStaleFrames int64

	// files[u] is worker u's assigned file list in slot order.
	files [][]int
	// arenaMu[u] serializes decodes into worker u's arena buffers: an
	// old pump superseded by a rejoin must never write them
	// concurrently with (or after) the replacement connection's pump.
	arenaMu []sync.Mutex
	// Per-round collection scratch: the connection each worker was
	// served by this round, its broadcast-ack state, and whether it has
	// been accounted for.
	roundConns []*Conn
	roundAcks  []int
	done       []bool
	// prevParams is the parameter vector broadcast last round (the
	// delta base); prevIter the iteration it belongs to (-1 = none).
	prevParams []T
	prevIter   int
	// fullFrame/deltaFrame are the round's two RoundStart frames, complete
	// and encoded once — the whole vector, and (empty when no worker can
	// use it) the XOR delta against prevParams — shared read-only by
	// every slot sender while the round's sends are in flight.
	fullFrame, deltaFrame []byte

	// sendQ[u] is worker slot u's 1-deep broadcast queue, read by the
	// slot's sender goroutine (startSenders). Collect is its only writer
	// and queues at most one job per slot per round; stopSenders closes
	// the queues. senders joins the sender goroutines; sends joins one
	// round's sends and bcastBytes sums their bytes (both reset every
	// round).
	sendQ      []chan sendJob
	senders    sync.WaitGroup
	sends      sync.WaitGroup
	bcastBytes atomic.Int64

	// collectTimer is the reused collection deadline timer; it is
	// stopped and drained before every Reset so a tick left over from
	// an earlier round — fired after that round's deadline path stopped
	// selecting, or still pending when the round completed early — can
	// never end a later round's collection prematurely.
	collectTimer *time.Timer
}

// newWireSource prepares the per-worker state tables.
func newWireSource[T linalg.Float](asn *assign.Assignment, timeout time.Duration, fullEvery int, logf func(string, ...any)) *wireSource[T] {
	ws := &wireSource[T]{
		timeout:    timeout,
		fullEvery:  fullEvery,
		logf:       logf,
		workers:    make([]workerEntry, asn.K),
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

// startPump launches worker u's reader goroutine for conn. Callers
// must hold ws.mu (which is what orders the pumps.Add against
// shutdown's closing check).
func (ws *wireSource[T]) startPump(u int, conn *Conn) {
	if ws.closing {
		return
	}
	ws.pumps.Add(1)
	p := &pump[T]{ws: ws, u: u, conn: conn, deliveredIter: -1, dec: wire.UplinkDecoderOf[T]{Tier: ws.uplink}}
	go p.run()
}

// startSenders starts one broadcast sender per worker slot. A slot
// outlives its connections, so a sender needs no lifecycle of its own
// across evictions, rejoins or blacklisting: each job names the
// connection to write.
func (ws *wireSource[T]) startSenders() {
	ws.sendQ = make([]chan sendJob, len(ws.workers))
	for u := range ws.sendQ {
		ws.sendQ[u] = make(chan sendJob, 1)
		ws.senders.Add(1)
		go ws.sender(u, ws.sendQ[u])
	}
}

// stopSenders closes the broadcast queues and joins the senders. The
// senders do not watch stopCh: one that quit with a job still queued
// would leave Collect waiting on its round's sends forever.
func (ws *wireSource[T]) stopSenders() {
	for _, q := range ws.sendQ {
		close(q)
	}
	ws.senders.Wait()
}

// sender writes slot u's RoundStart of every round queued to it. A
// failed or partial send poisons the outbound stream — unlike reads it
// cannot be resumed — so the worker is evicted (its pump notices the
// closed conn and posts the death notice).
func (ws *wireSource[T]) sender(u int, q <-chan sendJob) {
	defer ws.senders.Done()
	for job := range q {
		n, err := sendRoundStart(job.conn, ws.timeout, job.t, job.lastAck, ws.fullFrame, ws.deltaFrame)
		if err != nil {
			ws.evict(u, job.conn, fmt.Errorf("send: %w", err))
		} else {
			ws.bcastBytes.Add(int64(n))
		}
		ws.sends.Done()
	}
}

// liveConn returns worker u's current live connection (nil when down).
func (ws *wireSource[T]) liveConn(u int) *Conn {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	return ws.workers[u].conn
}

// joinedWorkers reports how many workers have completed a first join.
func (ws *wireSource[T]) joinedWorkers() int {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	return ws.joinedCount
}

// shutdownConns returns the currently connected workers' connections
// for the final Shutdown message, admitting any still-pending rejoins
// first (with pumps, so their streams drain) — a worker that came back
// after the last round still hears the shutdown. It also flips the
// source into closing mode before returning, so workers hanging up
// after reading the Shutdown are not miscounted as evictions (the flip
// must precede the Shutdown sends, or a fast worker's EOF races it).
func (ws *wireSource[T]) shutdownConns() []*Conn {
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

// markClosingLocked flips the source into closing mode exactly once: no
// new pumps start, pump exits stop counting as evictions, and blocked
// inbox pushes release. Callers hold ws.mu.
func (ws *wireSource[T]) markClosingLocked() {
	if !ws.closing {
		ws.closing = true
		close(ws.stopCh)
	}
}

// drain marks shutdown and joins the pumps without force-closing
// connections — each exits on its worker's EOF or its read deadline,
// so workers get to read the final Shutdown.
func (ws *wireSource[T]) drain() {
	ws.mu.Lock()
	ws.markClosingLocked()
	ws.mu.Unlock()
	ws.pumps.Wait()
}

// shutdown closes every worker connection and joins every reader pump.
// It runs on every Serve exit path, making teardown deterministic: no
// pump goroutine outlives Serve.
func (ws *wireSource[T]) shutdown() {
	ws.closeConns()
	ws.pumps.Wait()
}

// closeConns marks the source closing and closes every worker's live and
// parked connection, clearing the slots.
func (ws *wireSource[T]) closeConns() {
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
}

// admitPending moves validated rejoin connections into the live slots —
// the "next round boundary" of the rejoin handshake — and starts their
// reader pumps. Re-admitted workers have lastAck reset so this round
// sends them the full vector. Returns how many workers were admitted.
func (ws *wireSource[T]) admitPending(t int) int {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	admitted := 0
	for u := range ws.workers {
		w := &ws.workers[u]
		if w.pending == nil {
			continue
		}
		if w.blacklisted {
			w.pending.Close()
			w.pending = nil
			continue
		}
		if w.conn != nil {
			w.conn.Close()
		}
		w.conn, w.pending = w.pending, nil
		w.lastAck = -1
		ws.startPump(u, w.conn)
		ws.rejoins.Add(1)
		ws.fleet.SetState(u, obs.WorkerLive)
		ws.fleet.IncRejoins(u)
		ws.fleet.Touch(u, time.Now())
		admitted++
		ws.logf("round %d: worker %d re-admitted", t, u)
	}
	return admitted
}

// Collect implements cluster.GradientSourceOf over TCP: broadcast
// RoundStart to every live worker (through the slot senders, in
// parallel), then drain the pumps' inbox under one deadline timer until
// every live worker is accounted for — delivered, explicitly skipping,
// or dead. The pumps have already decoded deliverable reports into the
// engine's arena, so this loop only attributes results; it never
// touches a socket.
func (ws *wireSource[T]) Collect(ctx context.Context, rd *cluster.RoundOf[T]) (cluster.CollectStats, error) {
	t := rd.Iteration()
	rejoins := ws.admitPending(t)
	// Open the round for the pumps: reports for t are deliverable,
	// anything older is retired on arrival.
	ws.curRound.Store(int64(t))
	ws.retireBelow.Store(int64(t))
	if err := ws.prepareBroadcast(t, rd.Params()); err != nil {
		return cluster.CollectStats{}, err
	}
	start := time.Now()

	// Snapshot the fleet for the round.
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

	// Parallel broadcast: each live worker's send goes to its slot's
	// sender, so one slow socket holds one sender for a write deadline
	// and costs the round that deadline, not a serial sum. Every queue is
	// empty here — last round's sends were waited out — so no queueing
	// blocks.
	bcastStart := time.Now()
	ws.bcastBytes.Store(0)
	for u, conn := range ws.roundConns {
		if conn != nil {
			ws.sends.Add(1)
			ws.sendQ[u] <- sendJob{conn: conn, t: t, lastAck: ws.roundAcks[u]}
		}
	}
	ws.sends.Wait()
	bcastDur := time.Since(bcastStart)

	// Collection: a single select over the inbox and one deadline
	// timer. No per-worker socket reads, no per-worker deadlines.
	var reportBytes, rawBytes int64
	handleItem := func(item pumpItem) {
		u := item.u
		if ws.roundConns[u] != item.conn || ws.done[u] {
			// A previous connection's leftovers, or events for a
			// worker already accounted this round.
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
				if err := rd.Deliver(u, j, ws.eng.GradBuffer(u, j)); err != nil {
					ws.evict(u, item.conn, err)
					rd.MarkMissing(u)
					ws.done[u] = true
					outstanding--
					return
				}
			}
			ws.ack(u, t)
			ws.fleet.ObserveRound(u, t)
			ws.fleet.Touch(u, time.Now())
		case pumpSkip:
			if item.iter != t {
				ws.staleFrames.Add(1)
				return
			}
			// Explicit skip: alive, no gradients this round — but the
			// round's parameters were received and applied, so the
			// skip still acknowledges the broadcast.
			ws.logf("worker %d skipped round %d", u, t)
			ws.ack(u, t)
			ws.fleet.Touch(u, time.Now())
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
			// Deadline. A report that beat the deadline but lost the
			// select race is already parsed and queued — drain the
			// inbox non-blocking before marking anyone missing, so an
			// on-time report is never discarded by scheduling jitter.
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
	// Close the round: from here every report for t is stale and the
	// pumps retire it the moment it arrives — draining overlaps with
	// aggregation instead of eating the next collection window.
	ws.retireBelow.Store(int64(t + 1))

	// Roll the delta base forward: next round's deltas patch this
	// round's vector.
	if ws.prevParams == nil {
		ws.prevParams = make([]T, len(rd.Params()))
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
		BroadcastBytes: ws.bcastBytes.Load(),
		Rejoins:        rejoins,
		Evictions:      int(ev - ws.lastEvictions),
		StaleFrames:    int(st - ws.lastStaleFrames),
	}
	ws.lastEvictions, ws.lastStaleFrames = ev, st
	return stats, nil
}

// armTimer (re)arms a reused timer for d and returns its channel; nil —
// never ready — when d is not positive (a collection with no deadline).
// Whoever used the timer last may have left it running (it stopped
// waiting early) or its tick pending (it fired after they stopped
// selecting): stop and drain before Reset, so a stale tick cannot end
// this wait prematurely.
func armTimer(timer **time.Timer, d time.Duration) <-chan time.Time {
	if d <= 0 {
		return nil
	}
	t := *timer
	if t == nil {
		t = time.NewTimer(d)
		*timer = t
		return t.C
	}
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	t.Reset(d)
	return t.C
}

// prepareBroadcast encodes this round's two RoundStart frames: the one
// carrying the full vector (always needed for unacknowledged or refresh
// rounds) and the one carrying the delta against the previous round's
// vector when any worker can use it. Both buffers are read-only for the
// round.
func (ws *wireSource[T]) prepareBroadcast(t int, params []T) error {
	b, at := beginRoundStart(ws.fullFrame[:0], t, 0)
	b, err := wire.AppendParamsFullOf(b, params)
	if err == nil {
		ws.fullFrame, err = endRoundStart(b, at)
	}
	ws.deltaFrame = ws.deltaFrame[:0]
	if err == nil && !refreshRound(t, ws.fullEvery) && ws.prevIter == t-1 {
		b, at = beginRoundStart(ws.deltaFrame, t, t-1)
		if b, err = wire.AppendParamsDeltaOf(b, ws.prevParams, params); err == nil {
			ws.deltaFrame, err = endRoundStart(b, at)
		}
	}
	if err != nil {
		return fmt.Errorf("transport: broadcast: %w", err)
	}
	return nil
}

// refreshRound reports whether round t is a full-broadcast refresh under
// the cadence fullEvery.
func refreshRound(t, fullEvery int) bool {
	return t == 0 || fullEvery <= 1 || t%fullEvery == 0
}

// sendRoundStart sends one worker round t's RoundStart and returns the
// bytes written: the round's delta frame when there is one and the
// worker acknowledged round t-1, the full frame otherwise, under the
// round timeout as the write deadline.
func sendRoundStart(conn *Conn, timeout time.Duration, t, lastAck int, full, delta []byte) (int, error) {
	if timeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(timeout))
		defer conn.SetWriteDeadline(time.Time{})
	}
	if len(delta) > 0 && lastAck == t-1 {
		return conn.raw.Write(delta)
	}
	return conn.raw.Write(full)
}

// ack records that worker u applied round t's parameter broadcast.
func (ws *wireSource[T]) ack(u, t int) {
	ws.mu.Lock()
	ws.workers[u].lastAck = t
	ws.mu.Unlock()
}

// blacklist evicts worker u permanently on the detection layer's
// verdict: any live or pending connection is closed and every later
// handshake — even with the valid session token — is refused with a
// typed Reject. The closed connection's pump exit is not double-counted
// as an eviction (the slot is already cleared).
func (ws *wireSource[T]) blacklist(u int) {
	ws.mu.Lock()
	w := &ws.workers[u]
	w.blacklisted = true
	conn, pending := w.conn, w.pending
	w.conn, w.pending = nil, nil
	ws.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
	if pending != nil {
		pending.Close()
	}
	ws.fleet.SetState(u, obs.WorkerBlacklisted)
	ws.logf("worker %d blacklisted: connection closed, rejoin token revoked", u)
}

// isClosed reports whether done is closed. evict asks it of the Serve
// context's Done channel: workers sharing that context hang up on their
// own the moment it is cancelled, so their EOFs can reach the pumps
// before teardown has marked the source closing — and a connection that
// breaks after the cancel is shutdown, not an eviction.
func isClosed(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// evict tears down a connection whose stream broke or misbehaved: it
// is closed, and if it was still the worker's live connection the slot
// is cleared and the eviction counted, so later rounds mark the worker
// missing up front — until it rejoins with its session token. During
// shutdown the same path runs silently (pump exits are expected).
// Safe for concurrent calls on distinct or identical workers.
func (ws *wireSource[T]) evict(u int, conn *Conn, err error) {
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
func (ws *wireSource[T]) evicted(u int, err error) {
	ws.evictions.Add(1)
	if ws.fleet.State(u) != obs.WorkerBlacklisted {
		ws.fleet.SetState(u, obs.WorkerDown)
	}
	ws.logf("round %d: evicting worker %d: %v", ws.curRound.Load(), u, err)
}
