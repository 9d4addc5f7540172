package transport

import (
	"context"
	"fmt"
	"net"

	"byzshield/internal/data"
	"byzshield/internal/model"
	"byzshield/internal/wire"
)

// WorkerConfig32 configures a float32-precision worker process: the
// peer of Server32. It is deliberately narrower than WorkerConfig — no
// Byzantine behaviors, fault injection, or adversary sidecar — because
// the f32 tier is the performance envelope, not the attack surface.
type WorkerConfig32 struct {
	// ID is this worker's 0-based id.
	ID int
	// ReconnectAttempts bounds automatic reconnects after a broken
	// connection (0 = default; negative disables reconnecting).
	ReconnectAttempts int
	// ResumeToken, when nonzero, resumes a previous session after a
	// process restart.
	ResumeToken uint64
	// Tiers is the bitmask of uplink codec tiers this worker offers in
	// its Hello (0 = all tiers).
	Tiers uint8
	// Logf receives progress lines; nil disables logging.
	Logf func(format string, args ...any)
}

// workerState32 is the state that survives reconnects within one
// RunWorker32 call: the deterministic local rebuild of the experiment
// (model, dataset, parameter vector) plus the per-connection codec
// state that each fresh handshake resets.
type workerState32 struct {
	cfg         WorkerConfig32
	spec        Spec
	mdl         model.Model32
	train32     *data.Dataset32
	token       uint64
	params      []float32
	lastApplied int
	nfiles      int // files this worker is assigned (sizes the frame bound)

	files       []int
	sampleLists [][]int
	grads       [][]float32
	enc         wire.UplinkEncoder32
	frame       []byte
}

// RunWorker32 connects to the f32 PS at addr and participates in
// training until Shutdown, returning the final accuracy reported by the
// PS. It holds the same reconnect contract as RunWorker: a broken
// connection retries with the session token under exponential backoff,
// protocol-fatal errors return unwrapped, and canceling ctx aborts any
// blocked dial or I/O promptly.
func RunWorker32(ctx context.Context, addr string, cfg WorkerConfig32) (float64, error) {
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	st := &workerState32{cfg: cfg, token: cfg.ResumeToken, lastApplied: -1}
	return reconnectLoop(ctx, cfg.ID, cfg.ReconnectAttempts, cfg.Logf, func() {},
		func() (float64, error) { return runWorkerConn32(ctx, addr, st) })
}

// runWorkerConn32 runs one connection's lifetime: dial, Hello/Welcome
// with the f32 precision bit, then rounds until Shutdown or a
// connection failure.
func runWorkerConn32(ctx context.Context, addr string, st *workerState32) (float64, error) {
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
	tiers := cfg.Tiers
	if tiers == 0 {
		tiers = wire.AllTiersMask
	}
	if _, err := conn.Send(Hello{
		WorkerID: cfg.ID,
		Version:  wire.ProtocolVersion,
		Token:    st.token,
		Resume:   resume,
		Tiers:    tiers,
		// This worker computes at float32 only: offering just the f32
		// bit makes an accidental f64 pairing a typed reject instead of
		// a codec mismatch mid-run.
		Precisions: wire.PrecisionF32.Mask(),
	}); err != nil {
		return 0, retryable(ctxErr(ctx, err))
	}
	msg, err := conn.Recv()
	if err != nil {
		return 0, retryable(ctxErr(ctx, err))
	}
	if rej, ok := msg.(Reject); ok {
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
		return 0, fmt.Errorf("transport: server negotiated unknown uplink tier %d", welcome.Uplink)
	}
	if tiers&welcome.Uplink.Mask() == 0 {
		return 0, fmt.Errorf("transport: server negotiated uplink tier %s outside the offered mask %#x",
			welcome.Uplink, tiers)
	}
	if welcome.Precision != wire.PrecisionF32 {
		return 0, fmt.Errorf("transport: server negotiated precision %s outside the offered f32-only mask",
			welcome.Precision)
	}
	if welcome.Shards > 1 {
		return 0, fmt.Errorf("transport: server announced %d report shards; the f32 tier is unsharded", welcome.Shards)
	}
	if welcome.Pipeline {
		return 0, fmt.Errorf("transport: server announced pipelining; the f32 tier is self-contained per round")
	}
	st.token = welcome.Token
	if st.mdl == nil {
		// First successful handshake: build the deterministic local
		// state from the Spec. Rejoins keep it (same Spec, same run).
		st.spec = welcome.Spec
		if st.mdl, err = st.spec.BuildModel32(); err != nil {
			return 0, err
		}
		train, _, err := st.spec.BuildData()
		if err != nil {
			return 0, err
		}
		st.train32 = train.To32()
		st.params = make([]float32, st.mdl.NumParams())
		asn, err := st.spec.BuildAssignment()
		if err != nil {
			return 0, err
		}
		st.nfiles = len(asn.WorkerFiles(cfg.ID))
	}
	// The handshake is over: from here the PS sends this worker nothing
	// larger than a RoundStart of this Spec.
	conn.setPayloadLimit(roundPayloadLimit[float32](st.nfiles, len(st.params), st.spec.BatchSize))
	// A fresh connection means a fresh uplink stream: the server's
	// decoder holds no codec state, so the encoder must not either, and
	// the tier is per connection — a rejoin may renegotiate.
	st.enc.Reset()
	st.enc.Tier = welcome.Uplink
	// No acknowledged vector on a (re)connect: the server sends a full
	// broadcast first.
	st.lastApplied = -1
	if resume {
		cfg.Logf("worker %d: rejoined at f32 (%s; session token %#x)", cfg.ID, st.spec.Scheme, st.token)
	} else {
		cfg.Logf("worker %d: joined at f32 (%s, %d rounds; session token %#x)",
			cfg.ID, st.spec.Scheme, st.spec.Rounds, st.token)
	}

	for {
		msg, err := conn.Recv()
		if err != nil {
			return 0, retryable(fmt.Errorf("transport: worker %d recv: %w", cfg.ID, ctxErr(ctx, err)))
		}
		switch m := msg.(type) {
		case RoundStart:
			files, samples, err := st.roundWork32(&m)
			if err != nil {
				return 0, err
			}
			if err := applyParamsFrame(&m, st.params, &st.lastApplied); err != nil {
				// A delta against a base this worker does not hold means
				// the broadcast state diverged; reconnecting fetches a
				// full vector.
				return 0, retryable(err)
			}
			frame, err := st.computeReport32(files, samples)
			if err != nil {
				return 0, err
			}
			rep := GradientReport{WorkerID: cfg.ID, Iteration: m.Iteration, Frame: frame}
			if _, err := conn.Send(rep); err != nil {
				return 0, retryable(ctxErr(ctx, err))
			}
		case Shutdown:
			cfg.Logf("worker %d: shutdown, final accuracy %.4f", cfg.ID, m.FinalAccuracy)
			return m.FinalAccuracy, nil
		case Reject:
			return 0, fmt.Errorf("transport: worker %d rejected: %s", cfg.ID, m.Reason)
		default:
			return 0, fmt.Errorf("transport: worker %d: unexpected message %T", cfg.ID, msg)
		}
	}
}

// roundWork32 resolves a RoundStart into the worker's file list (static
// slot order) and per-file sample lists. Every f32 round is
// self-contained: the Files map is required.
func (st *workerState32) roundWork32(m *RoundStart) (files []int, samples [][]int, err error) {
	if len(m.Files) == 0 {
		return nil, nil, fmt.Errorf("transport: worker %d: round %d carried no files", st.cfg.ID, m.Iteration)
	}
	st.files, st.sampleLists = filesInSlotOrder(m.Files, st.files, st.sampleLists)
	return st.files, st.sampleLists, nil
}

// computeReport32 produces the worker's honest f32 file gradients for
// one round and encodes them through the connection's uplink codec. The
// returned frame aliases the state's scratch and is valid until the
// next call.
func (st *workerState32) computeReport32(files []int, samples [][]int) ([]byte, error) {
	dim := st.mdl.NumParams()
	if cap(st.grads) < len(files) {
		st.grads = make([][]float32, len(files))
	}
	st.grads = st.grads[:len(files)]
	for j := range st.grads {
		if cap(st.grads[j]) < dim {
			st.grads[j] = make([]float32, dim)
		}
		g := st.grads[j][:dim]
		clear(g)
		st.mdl.SumGradient32(st.params, st.train32, samples[j], g)
		st.grads[j] = g
	}
	frame, _, _, err := st.enc.Encode(st.frame[:0], st.cfg.ID, files, st.grads)
	if err != nil {
		return nil, fmt.Errorf("transport: worker %d report: %w", st.cfg.ID, err)
	}
	st.frame = frame
	return frame, nil
}
