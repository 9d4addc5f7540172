package byzshield

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"

	"byzshield/internal/checkpoint"
	"byzshield/internal/cluster"
	"byzshield/internal/distort"
	"byzshield/internal/trainer"
)

// PhaseTimes is the per-phase wall-clock split of one or more protocol
// rounds (compute / communication / aggregation / detection, plus exact
// serialized bytes). A Session runs in process, where nothing is sent:
// its communication time and byte counts are zero.
type PhaseTimes = cluster.PhaseTimes

// Checkpoint is the complete restartable training state of a Session:
// model parameters, optimizer momentum, iteration counter, recorded
// history, and free-form metadata identifying the experiment. It is the
// serialization format of internal/checkpoint (gob with a versioned
// magic header); persist it with Session.SaveCheckpoint or
// checkpoint-level Write, and reload with LoadCheckpoint.
type Checkpoint = checkpoint.State

// ErrSessionClosed is returned by operations on a closed Session.
var ErrSessionClosed = errors.New("byzshield: session closed")

// ErrRestoreDetector is returned by Session.Restore on a session that
// runs a detector; see Restore.
var ErrRestoreDetector = cluster.ErrRestoreDetector

// RoundResult reports one executed protocol round.
type RoundResult struct {
	// Round is the number of completed rounds after this step (1-based,
	// matching History iteration numbering).
	Round int
	// LR is the learning rate the round's update used.
	LR float64
	// DistortedFiles counts the file votes the Byzantines won this
	// round — the per-round realization of ε̂·f.
	DistortedFiles int
	// MissingWorkers lists the workers that did not participate this
	// round (crashed or skipped under the configured Fault), sorted
	// ascending; nil on full-participation rounds.
	MissingWorkers []int
	// DegradedFiles counts files voted over fewer than r surviving
	// replicas (quorum still met); DroppedFiles counts files excluded
	// from aggregation because their survivors fell below the quorum.
	DegradedFiles int
	DroppedFiles  int
	// AggregatorDegraded reports that dropped files pushed the
	// configured Byzantine-aware aggregation rule below its feasibility
	// floor this round, so the round fell back to coordinate-wise
	// median instead of erroring.
	AggregatorDegraded bool
	// MeanReputation is the fleet-wide mean reputation after this round
	// (1 when detection is off); FlaggedWorkers counts the workers the
	// detector flagged this round. BlacklistedWorkers lists the workers
	// newly blacklisted this round (nil otherwise); Blacklisted is the
	// cumulative blacklist size.
	MeanReputation     float64
	FlaggedWorkers     int
	BlacklistedWorkers []int
	Blacklisted        int
	// Times is the round's phase wall-clock split.
	Times PhaseTimes
	// Evaluated reports whether this round hit the evaluation cadence;
	// Loss and Accuracy are only meaningful when it is true.
	Evaluated bool
	Loss      float64
	Accuracy  float64
}

// Session is an incremental, observable, cancelable training run — the
// stateful counterpart of the fire-and-forget Train. A Session is
// created by Open, advanced one protocol round at a time by Step (or in
// batches by Run), observed through History, OnRound callbacks, and
// Events channels, and persisted/resumed via Checkpoint and Restore.
//
// All methods are safe for concurrent use; rounds themselves execute
// serially. A Session owns the engine's persistent worker-pool
// goroutines — Close releases them, marks the session closed, and
// closes event channels, so always Close a session when done with it.
type Session struct {
	mu         sync.Mutex
	cfg        TrainConfig // normalized: all defaults applied
	eng        *cluster.Engine
	byzantines []int
	history    trainer.History
	callbacks  []func(RoundResult)
	subs       map[int]chan RoundResult
	nextSub    int
	closed     bool
}

// Open validates the configuration, selects the worst-case Byzantine
// set when Q is given (bounded by SearchBudget and cancelable through
// ctx), and returns a Session positioned before round 1. See
// TrainConfig for the validation rules and documented defaults.
func Open(ctx context.Context, cfg TrainConfig) (*Session, error) {
	norm, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	byz := norm.Byzantines
	if len(byz) == 0 && norm.Q > 0 {
		an := distort.NewAnalyzer(norm.Assignment)
		sctx, cancel := context.WithTimeout(ctx, norm.SearchBudget)
		byz = an.MaxDistorted(sctx, norm.Q).Byzantines
		cancel()
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	eng, err := cluster.New(cluster.Config{
		Assignment:   norm.Assignment,
		Model:        norm.Model,
		Train:        norm.Train,
		Test:         norm.Test,
		BatchSize:    norm.BatchSize,
		Attack:       norm.Attack,
		Byzantines:   byz,
		Aggregator:   norm.Aggregator,
		Schedule:     norm.Schedule,
		Momentum:     norm.Momentum,
		Seed:         norm.Seed,
		Parallelism:  norm.Parallelism,
		Fault:        norm.Fault,
		Quorum:       norm.Quorum,
		Detector:     norm.Detector,
		Distribution: norm.Distribution,
	})
	if err != nil {
		return nil, err
	}
	if err := eng.CheckFeasible(); err != nil {
		eng.Close()
		return nil, fmt.Errorf("byzshield: %w", err)
	}
	return &Session{
		cfg:        norm,
		eng:        eng,
		byzantines: byz,
		subs:       make(map[int]chan RoundResult),
	}, nil
}

// Step executes one protocol round. It returns promptly with ctx.Err()
// if ctx is canceled before the round starts; the session then still
// sits at a round boundary and remains usable (resumable, checkpoint-
// able). Evaluation (loss + accuracy) happens when the completed-round
// count hits the EvalEvery cadence or the Iterations horizon, and is
// recorded in History.
func (s *Session) Step(ctx context.Context) (RoundResult, error) {
	res, _, err := s.step(ctx, 0)
	return res, err
}

// step executes one round unless horizon > 0 and the session has
// already completed that many rounds; the horizon check is atomic with
// the step, so concurrent Run callers cannot overshoot. stepped
// reports whether a round actually ran.
func (s *Session) step(ctx context.Context, horizon int) (res RoundResult, stepped bool, err error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return RoundResult{}, false, ErrSessionClosed
	}
	if horizon > 0 && s.eng.Iteration() >= horizon {
		s.mu.Unlock()
		return RoundResult{}, false, nil
	}
	stats, err := s.eng.StepOnce(ctx)
	if err != nil {
		s.mu.Unlock()
		return RoundResult{}, false, err
	}
	res = RoundResult{
		Round:              stats.Iteration + 1,
		LR:                 stats.LR,
		DistortedFiles:     stats.DistortedFiles,
		MissingWorkers:     stats.MissingWorkers,
		DegradedFiles:      stats.DegradedFiles,
		DroppedFiles:       stats.DroppedFiles,
		AggregatorDegraded: stats.AggregatorDegraded,
		MeanReputation:     stats.MeanReputation,
		FlaggedWorkers:     stats.FlaggedWorkers,
		BlacklistedWorkers: stats.BlacklistedWorkers,
		Blacklisted:        stats.Blacklisted,
		Times:              stats.Times,
	}
	if res.Round%s.cfg.EvalEvery == 0 || res.Round == s.cfg.Iterations {
		res.Evaluated = true
		res.Loss = s.eng.EvalLoss()
		res.Accuracy = s.eng.Evaluate()
		s.history.Add(res.Round, res.Loss, res.Accuracy)
	}
	// Stream to subscribers under the lock (non-blocking, drop-oldest
	// when a buffer is full) so channels cannot be closed mid-send.
	for _, ch := range s.subs {
		select {
		case ch <- res:
		default:
			select {
			case <-ch:
			default:
			}
			select {
			case ch <- res:
			default:
			}
		}
	}
	callbacks := append([]func(RoundResult){}, s.callbacks...)
	s.mu.Unlock()
	// Callbacks run outside the lock: they may call Session methods.
	for _, cb := range callbacks {
		cb(res)
	}
	return res, true, nil
}

// Run executes n rounds (or, when n <= 0, the rounds remaining to the
// configured Iterations horizon) and returns the recorded history. On
// cancellation or error the partial history is returned together with
// the error, so callers always observe the progress made. The horizon
// check is atomic with each step, so interleaved Run calls partition
// the remaining rounds between themselves without overshooting.
func (s *Session) Run(ctx context.Context, n int) (*History, error) {
	if n > 0 {
		for i := 0; i < n; i++ {
			if _, err := s.Step(ctx); err != nil {
				return s.History(), err
			}
		}
		return s.History(), nil
	}
	for {
		_, stepped, err := s.step(ctx, s.cfg.Iterations)
		if err != nil {
			return s.History(), err
		}
		if !stepped {
			return s.History(), nil
		}
	}
}

// Config returns the session's normalized configuration — the caller's
// TrainConfig with every documented default applied. Useful to inspect
// what a zero-valued field resolved to.
func (s *Session) Config() TrainConfig { return s.cfg }

// Round returns the number of completed rounds.
func (s *Session) Round() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eng.Iteration()
}

// History returns a copy of the evaluation series recorded so far.
func (s *Session) History() *History {
	s.mu.Lock()
	defer s.mu.Unlock()
	return &History{Points: append([]trainer.Point(nil), s.history.Points...)}
}

// Params returns a copy of the current model parameter vector.
func (s *Session) Params() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eng.Params()
}

// Times returns the accumulated per-phase wall-clock times.
func (s *Session) Times() PhaseTimes {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eng.Times()
}

// Byzantines returns the corrupted worker set of this run (explicit
// from the config, or the worst-case set selected by Open).
func (s *Session) Byzantines() []int {
	return append([]int(nil), s.byzantines...)
}

// Epsilon returns the realized distortion fraction ε̂ = |corruptible|/f.
func (s *Session) Epsilon() float64 {
	return s.eng.DistortionFraction()
}

// CorruptibleFiles returns the files whose majority votes the run's
// Byzantine set controls — the static upper bound on the per-round
// DistortedFiles count.
func (s *Session) CorruptibleFiles() []int {
	return s.eng.CorruptibleFiles()
}

// OnRound registers a callback invoked after every completed round,
// outside the session lock. Callbacks from one round complete before
// the next Step returns.
func (s *Session) OnRound(fn func(RoundResult)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.callbacks = append(s.callbacks, fn)
}

// Events subscribes to the per-round metric stream. The returned
// channel is buffered (default 16 when buffer < 1); when a consumer
// falls behind, the oldest pending result is dropped rather than
// blocking training. The cancel function unsubscribes and closes the
// channel; Close does the same for all remaining subscriptions. On an
// already-closed session the returned channel is already closed.
func (s *Session) Events(buffer int) (<-chan RoundResult, func()) {
	if buffer < 1 {
		buffer = 16
	}
	ch := make(chan RoundResult, buffer)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		close(ch)
		return ch, func() {}
	}
	id := s.nextSub
	s.nextSub++
	s.subs[id] = ch
	s.mu.Unlock()
	cancel := func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		if sub, ok := s.subs[id]; ok {
			delete(s.subs, id)
			close(sub)
		}
	}
	return ch, cancel
}

// Checkpoint captures the complete restartable state: parameters,
// optimizer momentum, iteration counter, and history, plus metadata
// identifying the experiment (scheme, attack, aggregator, seed).
func (s *Session) Checkpoint() *Checkpoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	params, velocity, iter := s.eng.Snapshot()
	meta := map[string]string{
		"scheme":     string(s.cfg.Assignment.Scheme),
		"attack":     s.cfg.Attack.Name(),
		"aggregator": s.cfg.Aggregator.Name(),
		"seed":       strconv.FormatInt(s.cfg.Seed, 10),
	}
	if s.cfg.Fault != nil {
		meta["fault"] = s.cfg.Fault.Name()
	}
	return &Checkpoint{
		Params:     params,
		Velocity:   velocity,
		Iteration:  iter,
		History:    trainer.History{Points: append([]trainer.Point(nil), s.history.Points...)},
		Byzantines: append([]int(nil), s.byzantines...),
		Meta:       meta,
	}
}

// Restore rewinds (or fast-forwards) the session to a checkpointed
// state. The batch-sampler stream is reconstructed deterministically
// from the seed, so a restore into a freshly Opened session with the
// same TrainConfig continues bit-identically to the interrupted run —
// no round replay required. The checkpoint's history becomes the
// session's history.
//
// A checkpoint does not carry the detection layer's state (reputations,
// feature windows, the blacklist), so a session Opened with a
// TrainConfig.Detector other than NoDetector refuses to Restore with
// ErrRestoreDetector instead of resuming with evicted workers voting
// again.
//
// When the checkpoint records a Byzantine set, it must match the
// session's: a session Opened with Q > 0 re-runs the budget-bounded
// worst-case search, which may select a different set on different
// hardware — pass the checkpoint's set explicitly
// (TrainConfig.Byzantines = st.Byzantines) for an exact resume.
func (s *Session) Restore(st *Checkpoint) error {
	if st == nil {
		return fmt.Errorf("byzshield: nil checkpoint")
	}
	if err := st.Validate(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrSessionClosed
	}
	if st.Byzantines != nil && !equalInts(st.Byzantines, s.byzantines) {
		return fmt.Errorf("byzshield: checkpoint Byzantine set %v != session's %v; "+
			"Open with TrainConfig.Byzantines set to the checkpoint's for an exact resume",
			st.Byzantines, s.byzantines)
	}
	if err := s.eng.Restore(st.Params, st.Velocity, st.Iteration); err != nil {
		return err
	}
	s.history = trainer.History{Points: append([]trainer.Point(nil), st.History.Points...)}
	return nil
}

// SaveCheckpoint atomically persists the current state to path.
func (s *Session) SaveCheckpoint(path string) error {
	return checkpoint.Save(path, s.Checkpoint())
}

// LoadCheckpoint reads a checkpoint previously written by
// SaveCheckpoint (or internal/checkpoint.Save), verifying its header
// and internal consistency.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	return checkpoint.Load(path)
}

// equalInts reports element-wise equality.
func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Close releases the engine's worker-pool goroutines, marks the session
// closed, and closes all event channels. Further Step/Restore calls
// fail with ErrSessionClosed; read-only accessors keep working. Close
// is idempotent.
func (s *Session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	s.eng.Close()
	for id, ch := range s.subs {
		delete(s.subs, id)
		close(ch)
	}
	return nil
}
