// The parameter server's run: its configuration, round engine,
// listener, evaluation history and serving flag, all owned by ServerOf.
// The state of the worker fleet lives in the source (slots.go) and is
// changed only by the code in handshake.go, slots.go, collect.go and
// broadcast.go.

package transport

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

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

// shutdownDrainTimeout bounds how long the reader pumps keep draining
// a worker's connection after Shutdown is sent. Closing a socket with
// unread data resets it, which would destroy the buffered Shutdown
// before a lagging worker reads it; pumping until the worker closes
// its end hands every straggler its final accuracy, and the deadline
// guarantees the pump goroutines join even if a worker never hangs up.
const shutdownDrainTimeout = 10 * time.Second

// ServerConfig configures the TCP parameter server at either value
// width: NewServerOf[T] runs it over width-T frames and kernels.
// Nothing in it names a width.
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
//
// ServerOf holds no connection: every connection of the run, from
// accept to close, is in the source's registry (slots.go).
type ServerOf[T linalg.Float] struct {
	cfg      ServerConfig
	listener net.Listener
	eng      *cluster.EngineOf[T]
	src      *wireSource[T]

	histMu  sync.Mutex
	history trainer.History

	// mu guards serving: Close releases the engine only when no Serve is
	// in flight.
	mu      sync.Mutex
	serving bool
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
	src := newWireSource[T](asn, mdl.NumParams(), &cfg)
	// Workers inject their own faults; the PS only sees who is missing.
	engCfg.Fault = nil
	engCfg.Source, engCfg.Metrics, engCfg.Tracer = src, cfg.Metrics, cfg.Tracer
	eng, err := cluster.NewOf(engCfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		eng.Close()
		return nil, err
	}
	s := &ServerOf[T]{cfg: cfg, listener: ln, eng: eng, src: src}
	if cfg.Metrics != nil {
		s.registerInstruments(cfg.Metrics)
	}
	return s, nil
}

// Fleet returns the server's per-worker status table — the backing
// store of /statusz and the worker-labeled /metrics series.
func (s *ServerOf[T]) Fleet() *obs.FleetTable { return s.src.fleet }

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

// teardown closes the listener, then every connection the source holds
// — handshaking, live and parked — unblocking any in-flight
// Accept/Send/Recv. The source is marked closing before its connections
// close, so the pump exits the teardown provokes are not miscounted as
// evictions — cancellation is a deliberate shutdown.
func (s *ServerOf[T]) teardown() {
	s.listener.Close()
	s.src.closeConns()
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
// History. On every exit path the accept loop, the handshakes and the
// reader pumps are joined before Serve returns — no goroutine outlives
// the call.
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

	// acceptDone carries the accept loop's error, then closes.
	acceptDone := make(chan error, 1)
	go func() {
		acceptDone <- s.acceptLoop(ctx)
		close(acceptDone)
	}()

	// Deterministic teardown, whatever path Serve exits on: close the
	// listener and join the accept loop, so no handshake can start after;
	// then close every connection and join every reader pump and
	// handshake.
	defer func() {
		s.listener.Close()
		<-acceptDone
		s.src.shutdown()
	}()

	// Join barrier: the handshake that completes the K-th first join
	// closes allJoined.
	select {
	case <-s.src.allJoined:
	case err := <-acceptDone:
		return 0, fmt.Errorf("transport: accept: %w", ctxErr(ctx, err))
	case <-ctx.Done():
		return 0, ctx.Err()
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

	fleet := s.src.fleet
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
		for u := 0; u < fleet.Size(); u++ {
			fleet.SetReputation(u, s.eng.Reputation(u))
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
	s.sendShutdown(final)
	// Join the pumps without force-closing connections: closing a socket
	// with unread data resets it, which would destroy the buffered
	// Shutdown before a lagging worker reads it. The deferred
	// src.shutdown() then finds every pump gone and every connection
	// already closed by its own pump exit.
	s.src.pumps.Wait()
	return final, nil
}

// sendShutdown tells every connected worker the run is over. Each pump
// keeps draining its connection until the worker has read the Shutdown
// and hung up (EOF); the read deadline bounds that drain, so joining the
// pumps afterwards is deterministic. A failed send evicts the
// connection, which the source, already closing, does not count.
func (s *ServerOf[T]) sendShutdown(final float64) {
	for u, c := range s.src.shutdownConns() {
		if c == nil {
			continue
		}
		c.SetWriteDeadline(time.Now().Add(helloTimeout))
		if _, err := c.Send(Shutdown{FinalAccuracy: final}); err != nil {
			s.cfg.Logf("shutdown send: %v", err)
			s.src.evict(u, c, err)
			continue
		}
		c.SetReadDeadline(time.Now().Add(shutdownDrainTimeout))
	}
}
