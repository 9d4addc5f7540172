package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	"byzshield/internal/assign"
	"byzshield/internal/attack"
	"byzshield/internal/data"
	"byzshield/internal/fault"
	"byzshield/internal/linalg"
	"byzshield/internal/model"
	"byzshield/internal/obs"
	"byzshield/internal/wire"
)

// ErrInjectedCrash is returned by RunWorker when the Spec's fault model
// schedules this worker to crash: the process stops participating and
// the parameter server continues over the survivors (or re-admits the
// worker if it is restarted with the session token).
var ErrInjectedCrash = errors.New("transport: worker crashed by fault injection")

// ErrBlacklisted is returned by RunWorker when the parameter server
// refuses the handshake with Reject{RejectBlacklisted}: the detection
// layer revoked this worker's session permanently, so reconnecting can
// never help.
var ErrBlacklisted = errors.New("transport: worker blacklisted by the parameter server")

// DefaultReconnectAttempts is the number of automatic reconnect
// attempts a worker makes after losing its connection mid-run, when
// WorkerConfig.ReconnectAttempts is zero.
const DefaultReconnectAttempts = 5

// defaultReconnectDelay is the base backoff between reconnect attempts
// (doubled per consecutive failure).
const defaultReconnectDelay = 100 * time.Millisecond

// WorkerConfig configures a worker process, at either value width
// (RunWorker, RunWorker32).
type WorkerConfig struct {
	ID int
	// Attack makes this worker Byzantine: instead of its files' gradients
	// it reports what the attack crafts for them (nil = honest). The
	// adversary is the engine's omniscient one (attack.AdversaryOf), so
	// the worker computes the honest gradient of every file of the round
	// itself — F of them instead of its own — from its replica of the
	// run's batch stream and the round's parameters.
	Attack attack.Attack
	// Coalition lists the workers running Attack together, this one
	// included (nil = this worker alone). Every member must be started
	// with the same Attack and Coalition; they then craft bit-identical
	// vectors for the files they share without exchanging a byte.
	Coalition []int
	// ReconnectAttempts bounds the automatic rejoin attempts after the
	// connection to the PS breaks mid-run: 0 selects
	// DefaultReconnectAttempts, negative disables reconnecting (any
	// connection loss is fatal, matching protocol v1). Each successful
	// rejoin resets the budget.
	ReconnectAttempts int
	// ResumeToken, when nonzero, makes the very first Hello a rejoin
	// attempt with this session token — how a restarted worker process
	// re-enters a run it was evicted from (byzworker -resume-token).
	ResumeToken uint64
	// Metrics, when non-nil, receives the worker-side metric families
	// (byzworker_* counters: rounds, report bytes, skips, reconnects,
	// rejections, plus the current-round and tier gauges and the local
	// compute-time histogram) — the mirror of the PS registry a fleet
	// operator scrapes per worker process (byzworker -metrics-addr).
	Metrics *obs.Registry
	// Shared, when non-nil, supplies the heavyweight Spec-derived state
	// (dataset, model, fault plan, assignment) from a pool shared by
	// every worker in the process — what lets a loopback fleet run
	// thousands of workers without K copies of the training set. It must
	// be built (NewSharedWorkerState) from the same Spec the server
	// serves; the models' gradient scratch is sync.Pool-backed, so
	// concurrent SumGradient calls across workers are safe.
	Shared *SharedWorkerState
	// Logf receives progress lines; nil disables logging.
	Logf func(format string, args ...any)
}

// SharedWorkerState is the read-only (or concurrency-safe) per-Spec
// state many in-process workers can share; see WorkerConfig.Shared.
type SharedWorkerState struct {
	mdl   model.Model
	train *data.Dataset
	flt   fault.Fault
	asn   *assign.Assignment
	// bind32 is the float32 binding of mdl over train — the narrowed copy
	// of the training set — built by the first float32 worker to ask and
	// shared by the rest; a float64 fleet never pays for it.
	bind32 func() (model.Bound[float32], error)
}

// NewSharedWorkerState builds the shareable worker state for spec.
func NewSharedWorkerState(spec Spec) (*SharedWorkerState, error) {
	b, err := spec.Build()
	if err != nil {
		return nil, err
	}
	s := &SharedWorkerState{mdl: b.Model, train: b.Train, flt: b.Fault, asn: b.Assignment}
	s.bind32 = sync.OnceValues(func() (model.Bound[float32], error) {
		return model.BindOf[float32](s.mdl, s.train)
	})
	return s, nil
}

// sharedBound is model.BindOf over the shared training set, reusing the
// one narrowed copy at float32.
func sharedBound[T linalg.Float](sh *SharedWorkerState) (model.Bound[T], error) {
	if linalg.Width[T]() == 8 {
		return model.BindOf[T](sh.mdl, sh.train)
	}
	b, err := sh.bind32()
	if err != nil {
		return model.Bound[T]{}, err
	}
	return any(b).(model.Bound[T]), nil
}

// workerStateOf is the durable cross-connection state of one worker
// process: everything a rejoin must not lose.
type workerStateOf[T linalg.Float] struct {
	cfg  WorkerConfig
	spec Spec
	// mdl and train are the Spec's model and training set, kern their
	// kernels at width T (model.BindOf). The float64 kernels read train in
	// place; a float32 worker lets go of it once kern holds the narrowed
	// copy.
	mdl   model.Model
	train *data.Dataset
	kern  model.Bound[T]
	flt   fault.Fault
	// token is the session token the last Welcome assigned.
	token uint64
	// params is the worker's copy of the model vector, patched in place
	// by delta broadcasts; lastApplied is the iteration whose broadcast
	// it reflects (-1 before any).
	params      []T
	lastApplied int
	// enc is the uplink encoder in the tier the last Welcome named, and
	// frame the report's encode scratch.
	enc   wire.UplinkEncoderOf[T]
	frame []byte
	// filesStatic is this worker's assignment in static slot order and
	// stream its own replica of the run's file→samples table — the PS
	// sends neither — both set, with asn, by the first handshake.
	// nextRound is one past the last round this process was started on,
	// on whichever connection: the stream cannot go back below it.
	filesStatic []int
	stream      *data.FileStream
	nextRound   int
	// grads is the per-round report scratch, reused across rounds.
	grads [][]T
	asn   *assign.Assignment
	// adv is the adversary a Byzantine worker crafts through (nil when
	// honest), from trueGrads: every file's honest gradient this round.
	adv       *attack.AdversaryOf[T]
	trueGrads [][]T
	// ins is the worker-side metric state (nil with metrics disabled;
	// every method is nil-safe).
	ins *workerInstruments
}

// RunWorkerOf connects to the PS at addr and participates in training at
// value width T — it offers only T's precision bit, so a server of the
// other width refuses it with a typed Reject instead of a codec mismatch
// mid-run — until Shutdown, returning the final accuracy reported by the PS. If
// the connection breaks mid-run the worker automatically reconnects
// with its session token (bounded by ReconnectAttempts) and resumes at
// the next round boundary; an injected crash fault is terminal and
// returns ErrInjectedCrash. Canceling ctx aborts the dial or any
// blocked send/receive promptly (by closing the connection) and returns
// ctx.Err().
func RunWorkerOf[T linalg.Float](ctx context.Context, addr string, cfg WorkerConfig) (float64, error) {
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	st := &workerStateOf[T]{cfg: cfg, token: cfg.ResumeToken}
	if cfg.Metrics != nil {
		st.ins = newWorkerInstruments(cfg.Metrics)
	}
	return reconnectLoop(ctx, cfg.ID, cfg.ReconnectAttempts, cfg.Logf, st.ins.reconnecting,
		func() (float64, error) { return runWorkerConn(ctx, addr, st) })
}

// reconnectLoop runs one connection's lifetime after another (run) until
// a session ends cleanly, fails with an error reconnecting cannot fix, ctx
// is cancelled, or `attempts` consecutive retryable failures are spent (0
// selects DefaultReconnectAttempts, negative never gives up). Backoff
// doubles per consecutive failure; retrying is called once per retry.
func reconnectLoop(ctx context.Context, id, attempts int, logf func(string, ...any), retrying func(), run func() (float64, error)) (float64, error) {
	if attempts == 0 {
		attempts = DefaultReconnectAttempts
	}
	failures := 0
	// One reused backoff timer for the whole loop: a bare time.After here
	// would leak a live timer per attempt whenever ctx wins the select.
	var backoff *time.Timer
	defer func() {
		if backoff != nil {
			backoff.Stop()
		}
	}()
	for {
		final, err := run()
		var re retryableErr
		switch {
		case err == nil:
			return final, nil
		case !errors.As(err, &re):
			return 0, err
		case ctx.Err() != nil:
			return 0, ctx.Err()
		case attempts >= 0 && failures >= attempts:
			return 0, fmt.Errorf("transport: worker %d: gave up after %d reconnect attempts: %w",
				id, failures, re.err)
		}
		failures++
		retrying()
		delay := defaultReconnectDelay << min(failures-1, 5)
		logf("worker %d: connection lost (%v); reconnecting in %v (attempt %d)", id, re.err, delay, failures)
		select {
		case <-armTimer(&backoff, delay):
		case <-ctx.Done():
			return 0, ctx.Err()
		}
	}
}

// retryableErr wraps connection-level failures that a reconnect can
// recover from (everything protocol-fatal — bad version, injected
// crash, unexpected messages — is returned unwrapped).
type retryableErr struct{ err error }

func (e retryableErr) Error() string { return e.err.Error() }
func (e retryableErr) Unwrap() error { return e.err }

// retryable marks err as recoverable by reconnecting.
func retryable(err error) error { return retryableErr{err: err} }

// runWorkerConn runs one connection's lifetime: dial, Hello/Welcome
// (resuming with the session token when st already has one), then
// rounds until Shutdown or a connection failure. On a successful
// session (Shutdown received) it returns the final accuracy.
func runWorkerConn[T linalg.Float](ctx context.Context, addr string, st *workerStateOf[T]) (float64, error) {
	cfg := st.cfg
	var dialer net.Dialer
	raw, err := dialer.DialContext(ctx, "tcp", addr)
	if err != nil {
		return 0, retryable(fmt.Errorf("transport: dial %s: %w", addr, ctxErr(ctx, err)))
	}
	conn := newHandshakeConn(raw)
	defer conn.Close()
	stop := closeOnCancel(ctx, conn)
	defer stop()

	resume := st.token != 0
	if _, err := conn.Send(Hello{
		WorkerID:   cfg.ID,
		Version:    wire.ProtocolVersion,
		Token:      st.token,
		Resume:     resume,
		Precisions: wire.PrecisionOf[T]().Mask(),
	}); err != nil {
		return 0, retryable(ctxErr(ctx, err))
	}
	msg, err := conn.Recv()
	if err != nil {
		return 0, retryable(ctxErr(ctx, err))
	}
	if rej, ok := msg.(Reject); ok {
		st.ins.rejected()
		if rej.Code == RejectBlacklisted {
			return 0, fmt.Errorf("transport: worker %d: %s: %w", cfg.ID, rej.Reason, ErrBlacklisted)
		}
		return 0, fmt.Errorf("transport: worker %d rejected: %s", cfg.ID, rej.Reason)
	}
	welcome, ok := msg.(Welcome)
	if !ok {
		return 0, fmt.Errorf("transport: expected Welcome, got %T", msg)
	}
	if welcome.Version != wire.ProtocolVersion {
		return 0, fmt.Errorf("transport: server speaks protocol %d, want %d", welcome.Version, wire.ProtocolVersion)
	}
	if !welcome.Uplink.Valid() {
		return 0, fmt.Errorf("transport: server named unknown uplink tier %d", welcome.Uplink)
	}
	if prec := wire.PrecisionOf[T](); welcome.Precision != prec {
		return 0, fmt.Errorf("transport: server negotiated precision %s, this worker offered only %s",
			welcome.Precision, prec)
	}
	if err := st.adopt(welcome); err != nil {
		return 0, err
	}
	// The handshake is over: from here the PS sends this worker nothing
	// larger than a RoundStart of this Spec.
	conn.setPayloadLimit(roundPayloadLimit[T](len(st.params)))
	// The session token is logged on every (re)join — the server
	// rotates it per handshake, so a restarted process must present the
	// latest one (byzworker -resume-token).
	if resume {
		cfg.Logf("worker %d: rejoined (%s; session token %#x)", cfg.ID, st.spec.Scheme, st.token)
	} else {
		cfg.Logf("worker %d: joined (%s, %d rounds; session token %#x)",
			cfg.ID, st.spec.Scheme, st.spec.Rounds, st.token)
	}

	// One reused fault-delay timer for the connection's lifetime: a bare
	// time.After per delayed round would leak a live timer whenever ctx
	// wins the select.
	var delayTimer *time.Timer
	defer func() {
		if delayTimer != nil {
			delayTimer.Stop()
		}
	}()
	for {
		msg, err := conn.Recv()
		if errors.Is(err, ErrBadRoundStart) {
			return 0, fmt.Errorf("transport: worker %d recv: %w", cfg.ID, err)
		}
		if err != nil {
			return 0, retryable(fmt.Errorf("transport: worker %d recv: %w", cfg.ID, ctxErr(ctx, err)))
		}
		switch m := msg.(type) {
		case RoundStart:
			if err := st.startRound(m.Iteration); err != nil {
				return 0, err
			}
			st.ins.roundStarted(m.Iteration)
			if err := st.applyParams(&m); err != nil {
				// A delta against a base this worker does not hold means
				// the broadcast state diverged; reconnecting fetches a
				// full vector.
				return 0, retryable(err)
			}
			// Self-injected faults: the Spec's fault model decides per
			// round whether this worker crashes, delays, or skips —
			// exercised against the server's real deadline and quorum
			// handling, not simulated on the PS side.
			d := st.flt.Plan(m.Iteration, cfg.ID)
			if d.Crash {
				cfg.Logf("worker %d: injected crash at round %d", cfg.ID, m.Iteration)
				return 0, fmt.Errorf("worker %d round %d: %w", cfg.ID, m.Iteration, ErrInjectedCrash)
			}
			if d.Delay > 0 {
				select {
				case <-armTimer(&delayTimer, d.Delay):
				case <-ctx.Done():
					return 0, ctx.Err()
				}
			}
			if d.Skip {
				cfg.Logf("worker %d: injected skip at round %d", cfg.ID, m.Iteration)
				if _, err := conn.Send(GradientReport{WorkerID: cfg.ID, Iteration: m.Iteration}); err != nil {
					return 0, retryable(ctxErr(ctx, err))
				}
				st.ins.skipSent()
				continue
			}
			computeStart := time.Now()
			rep, err := st.computeReport(m.Iteration)
			if err != nil {
				return 0, err
			}
			st.ins.computeObserved(time.Since(computeStart).Seconds())
			if _, err := conn.Send(rep); err != nil {
				return 0, retryable(ctxErr(ctx, err))
			}
			st.ins.reportSent(len(rep.Frame))
		case Shutdown:
			cfg.Logf("worker %d: shutdown, final accuracy %.4f", cfg.ID, m.FinalAccuracy)
			return m.FinalAccuracy, nil
		case Reject:
			if m.Code == RejectBlacklisted {
				return 0, fmt.Errorf("transport: worker %d: %s: %w", cfg.ID, m.Reason, ErrBlacklisted)
			}
			return 0, fmt.Errorf("transport: worker %d rejected: %s", cfg.ID, m.Reason)
		default:
			return 0, fmt.Errorf("transport: worker %d: unexpected message %T", cfg.ID, msg)
		}
	}
}

// adopt takes a validated Welcome into the worker's state: on the first
// one it builds everything the Spec determines; on every one it takes
// the named uplink tier and starts the broadcast state afresh.
func (st *workerStateOf[T]) adopt(welcome Welcome) error {
	var err error
	st.token = welcome.Token
	st.enc.Tier = welcome.Uplink
	st.ins.tierNamed(int32(welcome.Uplink))
	if st.mdl == nil {
		// First successful handshake: adopt the process-shared state, or
		// build this worker's own from the Spec the Welcome carried.
		// Rejoins keep it (same Spec, same run).
		st.spec = welcome.Spec
		sh := st.cfg.Shared
		if sh == nil {
			if sh, err = NewSharedWorkerState(st.spec); err != nil {
				return err
			}
		}
		st.mdl, st.train, st.flt, st.asn = sh.mdl, sh.train, sh.flt, sh.asn
		if st.kern, err = sharedBound[T](sh); err != nil {
			return err
		}
		st.filesStatic = st.asn.WorkerFiles(st.cfg.ID)
		if st.stream, err = data.NewFileStream(st.train.Len(), st.spec.BatchSize, st.spec.Seed, st.asn.F); err != nil {
			return err
		}
		if linalg.Width[T]() != 8 {
			st.train = nil
		}
		st.params = make([]T, st.mdl.NumParams())
		if st.cfg.Attack != nil {
			if err := st.initAdversary(); err != nil {
				return err
			}
		}
	}
	// A (re)connected worker holds no acknowledged vector: the server
	// sends a full broadcast first, so stale params are never patched.
	st.lastApplied = -1
	return nil
}

// applyParams patches the worker's copy of the model vector — reflecting
// iteration lastApplied — with the round's broadcast frame: a full frame
// overwrites it, a delta frame XORs onto the base iteration it names,
// which must be exactly what the worker holds.
func (st *workerStateOf[T]) applyParams(m *RoundStart) error {
	if len(m.ParamsFrame) == 0 {
		return fmt.Errorf("transport: round %d carried no parameter frame", m.Iteration)
	}
	// Validate the delta base before any bits are patched: a delta
	// against a vector this worker does not hold must not touch params.
	if int(m.ParamsFrame[0]) == wire.ParamsDelta && m.BaseIteration != st.lastApplied {
		return fmt.Errorf("transport: round %d delta against iteration %d, but worker holds %d",
			m.Iteration, m.BaseIteration, st.lastApplied)
	}
	_, consumed, err := wire.DecodeParamsOf(m.ParamsFrame, st.params)
	if err != nil {
		return fmt.Errorf("transport: round %d params: %w", m.Iteration, err)
	}
	if consumed != len(m.ParamsFrame) {
		return fmt.Errorf("transport: round %d params frame has %d trailing bytes",
			m.Iteration, len(m.ParamsFrame)-consumed)
	}
	st.lastApplied = m.Iteration
	return nil
}

// startRound admits the round a RoundStart names before anything is
// sought, patched or computed for it: a round of this run, and a later
// one than any this process was started on — the only rounds an honest
// server starts a worker on, whatever connection they arrive over.
func (st *workerStateOf[T]) startRound(iter int) error {
	if iter >= st.spec.Rounds || iter < st.nextRound {
		return fmt.Errorf("%w: worker %d: round %d of %d started after round %d",
			ErrBadRoundStart, st.cfg.ID, iter, st.spec.Rounds, st.nextRound-1)
	}
	st.nextRound = iter + 1
	return nil
}

// computeReport produces the worker's gradients for one round — of its
// files' samples, which it draws from its own stream, when honest; what
// the adversary crafts for its files when Byzantine — as one report
// encoded in the named uplink tier. The returned report's Frame aliases
// the state's scratch and is valid until the next computeReport call.
func (st *workerStateOf[T]) computeReport(iter int) (GradientReport, error) {
	cfg := st.cfg
	files := st.filesStatic
	dim := st.mdl.NumParams()
	// The stream is positional: rounds this worker sat out (disconnected,
	// or skipped by a fault) still consume their batches, so round r
	// always sees the engine's batch r.
	samples, err := st.stream.Round(iter)
	if err != nil {
		return GradientReport{}, err
	}
	if cap(st.grads) < len(files) {
		st.grads = make([][]T, len(files))
	}
	grads := st.grads[:len(files)]
	st.grads = grads
	if st.adv != nil {
		crafted := st.craft(iter, samples)
		for i, v := range files {
			grads[i] = crafted[v]
		}
	} else {
		for i, v := range files {
			if cap(grads[i]) < dim {
				grads[i] = make([]T, dim)
			}
			g := grads[i][:dim]
			grads[i] = g
			clear(g)
			st.kern.SumGradient(st.params, samples[v], g)
		}
	}
	frame, _, _, err := st.enc.Encode(st.frame[:0], cfg.ID, files, grads)
	if err != nil {
		return GradientReport{}, err
	}
	st.frame = frame
	return GradientReport{WorkerID: cfg.ID, Iteration: iter, Frame: frame}, nil
}

// initAdversary builds the adversary of a Byzantine worker, once the
// first Welcome has said what the run is.
func (st *workerStateOf[T]) initAdversary() error {
	cfg, dim := st.cfg, len(st.params)
	coalition := cfg.Coalition
	if coalition == nil {
		coalition = []int{cfg.ID}
	}
	if !slices.Contains(coalition, cfg.ID) {
		return fmt.Errorf("transport: worker %d is not in its own coalition %v", cfg.ID, coalition)
	}
	var err error
	if st.adv, err = attack.NewAdversaryOf[T](cfg.Attack, st.asn, coalition, dim, st.spec.Seed, st.spec.BatchSize); err != nil {
		return fmt.Errorf("transport: worker %d: %w", cfg.ID, err)
	}
	flat := make([]T, st.asn.F*dim)
	st.trueGrads = make([][]T, st.asn.F)
	for v := range st.trueGrads {
		st.trueGrads[v] = flat[v*dim : (v+1)*dim]
	}
	cfg.Logf("worker %d: byzantine: %s with coalition %v (computing all %d files a round)",
		cfg.ID, cfg.Attack.Name(), st.adv.Coalition, st.asn.F)
	return nil
}

// craft is a Byzantine worker's round: everything the engine's adversary
// reads off the engine — the round's file table, every file's honest
// gradient — is a deterministic function of the Spec and the round's
// parameters, the same determinism the honest replicas' vote relies on,
// so the worker replays it locally and crafts through the same
// attack.AdversaryOf. Every coalition member does, and so they agree with
// each other and with the engine bit for bit. st.params must already
// reflect the round's broadcast, which the call order guarantees.
func (st *workerStateOf[T]) craft(round int, samples [][]int) [][]T {
	for v, g := range st.trueGrads {
		clear(g)
		st.kern.SumGradient(st.params, samples[v], g)
	}
	return st.adv.Craft(round, st.trueGrads)
}
