// Package cluster implements the synchronous parameter-server training
// protocol of Algorithm 1 as a shared round core: per round, the PS
// samples a batch, partitions it into files according to the assignment
// graph, a GradientSource supplies each worker's file gradient sums
// (computed in process by the engine's own pool, or received over TCP
// by internal/transport's parameter server), the PS majority-votes each
// file's surviving replicas (Eq. 3) under a quorum rule, applies a
// robust aggregation rule to the vote winners, and updates the model
// with momentum SGD. Both execution paths — in-process and wire — run
// the identical core, so they produce bit-identical parameter
// trajectories for a fixed seed.
//
// The engine is a steady-state machine: a persistent worker goroutine
// pool executes the compute, vote, and (for coordinate-wise rules)
// aggregation phases, and a preallocated gradient arena is reused across
// rounds, so the hot path performs no gradient-sized allocation (see
// DESIGN.md "Performance architecture"). The serial engine
// (Parallelism = 1) and the pooled engine produce bit-identical
// parameter trajectories for a fixed seed. In process the honest
// replicas of a file are bit-identical, so the engine computes each
// file once, into one arena buffer every honest holder reports; the
// r-fold cost of replication is measured where replicas really move, on
// the wire. Nothing is sent in process, so the in-process source reports
// no communication time: Figure 12's split is taken on loopback fleets
// (internal/experiments).
//
// Rounds tolerate partial participation: a fault model (internal/fault)
// or a network source may remove workers mid-run; files whose surviving
// replica count still meets the quorum are voted over the survivors,
// files below quorum are dropped from aggregation, and RoundStats
// reports the missing workers and degraded/dropped file counts.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"byzshield/internal/aggregate"
	"byzshield/internal/assign"
	"byzshield/internal/attack"
	"byzshield/internal/data"
	"byzshield/internal/detect"
	"byzshield/internal/fault"
	"byzshield/internal/linalg"
	"byzshield/internal/model"
	"byzshield/internal/obs"
	"byzshield/internal/trainer"
	"byzshield/internal/vote"
	"byzshield/internal/wire"
)

// ErrClosed is returned by StepOnce after Close.
var ErrClosed = errors.New("cluster: engine closed")

// ErrRestoreDetector is returned by Restore on an engine with a live
// detector: a snapshot carries no detection state (reputations, feature
// windows, the blacklist), so evicted workers would vote again.
var ErrRestoreDetector = errors.New("cluster: restore with a live detector: snapshots do not carry detection state")

// ConfigOf assembles one training experiment for the engine of element
// width T (Config and Config32 are its two instantiations). Only Source
// names the width — the float32 engine takes the float32 kernels of
// Model and Aggregator (model.Model32, aggregate.ChunkAggregator32, which
// embed the interfaces named here) and narrows Train and Test once at
// construction, so both tiers of one experiment load data a single time
// and draw the identical batch stream.
type ConfigOf[T linalg.Float] struct {
	Assignment *assign.Assignment
	Model      model.Model
	Train      *data.Dataset
	Test       *data.Dataset
	BatchSize  int
	// Distribution switches the batch stream to non-IID sampling: the
	// distributor splits the training set into F per-file sample pools
	// once at construction, and each round's batch draws file v's share
	// from pool v (data.PoolSampler), so per-file gradients reflect the
	// configured label heterogeneity. nil keeps the default IID
	// reshuffling sampler, whose sample stream is unchanged by this
	// knob's existence.
	Distribution data.Distributor
	// Attack crafts Byzantine payloads; Benign{} for attack-free runs.
	Attack attack.Attack
	// Byzantines lists the corrupted worker ids (chosen worst-case by
	// the caller, typically via distort.WorstCaseByzantines).
	Byzantines []int
	// Aggregator is applied to the vote winners (or directly to worker
	// gradients when the assignment has r = 1). Under aggregate.SignSGD
	// the voted sign vector is applied directly, scaled only by the
	// learning rate; every other rule's output is rescaled to per-sample
	// magnitude first.
	Aggregator aggregate.Aggregator
	Schedule   trainer.Schedule
	Momentum   float64
	Seed       int64
	// UplinkTier pins the in-process engine to one worker→PS codec tier
	// (wire.UplinkTier). The lossless TierRaw, the zero value, is a
	// no-op here, but a lossy tier (TierSign, TierInt8) makes every
	// collected gradient row pass through the exact quantize→dequantize
	// float operations of the wire codec, so the engine reproduces a
	// lossy-tier TCP run bit-for-bit (the loopback==engine pinning the
	// transport tests rely on). Mutually exclusive with Source (a
	// network source's workers quantize on their own side of the wire).
	UplinkTier wire.UplinkTier
	// Parallelism is the width of the engine's persistent goroutine
	// pool: 0 selects GOMAXPROCS, 1 runs every phase serially on the
	// calling goroutine. Any width produces bit-identical parameter
	// trajectories for a fixed seed.
	Parallelism int
	// Shards is inert: nothing reads it. It sized the sharded
	// aggregation plane protocol v10 deleted, and stays only because
	// bench/adapter_engine.go sets it and that module is not this
	// package's to edit; ROADMAP item 1a deletes it with the names.go
	// aliases.
	Shards int
	// Fault injects worker participation faults (crash, flaky skips)
	// into the in-process source; nil runs fault-free. Incompatible with
	// Source, which owns participation itself.
	Fault fault.Fault
	// Quorum is the minimum surviving replicas a file needs to be voted
	// this round: files with fewer live replicas than Quorum are dropped
	// from aggregation, files with at least Quorum but fewer than R are
	// voted over the survivors (a degraded vote). 0 selects the majority
	// of the nominal replication, R/2 + 1.
	Quorum int
	// Detector enables the PS-side Byzantine detection and reputation
	// layer (internal/detect): after every collection the engine sums
	// each live worker's replicas into a report, derives robust history
	// features, and lets the detector flag outliers; persistently
	// flagged workers are blacklisted out of all later rounds. nil (or
	// detect.None) disables the pipeline entirely. Unlike the in-process
	// attack knobs, detection is a PS-side behavior and composes with
	// Source.
	Detector detect.Detector
	// Source overrides how gradients enter the round: nil selects the
	// in-process compute source (Algorithm 1's simulated cluster); the
	// TCP parameter server installs its network collector here. When
	// Source is set, the in-process-only knobs (Attack, Byzantines,
	// Fault, UplinkTier) must be unset —
	// in a real deployment those behaviors belong to the workers, not
	// the PS.
	Source GradientSourceOf[T]
	// Metrics, when non-nil, registers the engine's instruments (round
	// counter, per-phase latency histograms, file-outcome counters,
	// arena occupancy, a per-round heap-allocation guard) at
	// construction. Every hot-path update is an atomic store into that
	// preallocated state, so enabling metrics does not move the
	// steady-state allocation budget (pinned by
	// TestSteadyStateAllocsPerRound) and cannot perturb trajectories.
	Metrics *obs.Registry
	// Tracer, when non-nil, records one obs.RoundTrace per round —
	// phase spans, byte counts, and the missing/flagged/blacklisted
	// worker sets — into its bounded ring (and JSONL sink, when set).
	// Recording reuses ring-owned storage, so it is alloc-free in
	// steady state too.
	Tracer *obs.Tracer
}

// PhaseTimes accumulates wall-clock time per protocol phase, plus the
// exact number of serialized worker→PS bytes (deterministic, unlike the
// wall-clock figures).
type PhaseTimes struct {
	// Compute is the source's compute span: in process, one gradient
	// per file (f of them), since honest replicas are bit-identical.
	Compute       time.Duration
	Communication time.Duration
	Aggregation   time.Duration
	// Detect is the detection/reputation pass (report summing, feature
	// extraction, the detector verdict) between collection and
	// aggregation; zero when no detector is configured. Kept separate
	// from Aggregation so the Figure-12 phase split stays honest.
	Detect time.Duration
	// ReportBytes counts the serialized worker→PS gradient-report bytes
	// a network source received, in the uplink tier's frames; zero for
	// the in-process source.
	ReportBytes int64
	// ReportRawBytes is what the same reports would have cost as raw
	// frames; ReportBytes/ReportRawBytes is the realized uplink
	// compression ratio (1.0 on the raw tier).
	ReportRawBytes int64
	// BroadcastBytes counts the serialized PS→worker parameter
	// broadcast (full or delta frames) a network source sent; zero for
	// the in-process source.
	BroadcastBytes int64
}

// Add accumulates other into t.
func (t *PhaseTimes) Add(other PhaseTimes) {
	t.Compute += other.Compute
	t.Communication += other.Communication
	t.Aggregation += other.Aggregation
	t.Detect += other.Detect
	t.ReportBytes += other.ReportBytes
	t.ReportRawBytes += other.ReportRawBytes
	t.BroadcastBytes += other.BroadcastBytes
}

// RoundStats reports one protocol round.
type RoundStats struct {
	Iteration      int
	LR             float64
	DistortedFiles int // files whose vote the Byzantines won this round
	// MissingWorkers lists the workers that did not participate this
	// round (crashed, skipped, or past the collection deadline), sorted
	// ascending; nil on full-participation rounds.
	MissingWorkers []int
	// DegradedFiles counts files voted over fewer than R surviving
	// replicas (quorum still met).
	DegradedFiles int
	// DroppedFiles counts files excluded from aggregation: surviving
	// replicas below the quorum, or a degraded vote that ended in a tie
	// (no strict plurality among the survivors).
	DroppedFiles int
	// AggregatorDegraded reports that dropped files pushed the
	// configured Byzantine-aware rule (Krum family, trimmed mean, …)
	// below its feasibility floor this round, so the round aggregated
	// with coordinate-wise median instead of erroring out.
	AggregatorDegraded bool
	// Rejoins counts workers re-admitted at this round's boundary
	// (network sources only).
	Rejoins int
	// Evictions counts worker connections torn down during this round
	// (broken streams, protocol violations; network sources only).
	Evictions int
	// StaleFrames counts gradient reports that arrived too late for
	// their round and were retired without entering any vote (network
	// sources only; the reader pumps retire them the moment they land).
	StaleFrames int
	// MeanReputation is the fleet-wide mean reputation after this
	// round's detection pass; 1 when detection is off.
	MeanReputation float64
	// FlaggedWorkers counts workers the detector flagged this round.
	FlaggedWorkers int
	// BlacklistedWorkers lists workers newly blacklisted this round,
	// ascending; nil on rounds without a fresh blacklisting.
	BlacklistedWorkers []int
	// Blacklisted is the cumulative blacklist size after this round.
	Blacklisted int
	Times       PhaseTimes
}

// EngineOf executes the protocol at element width T.
type EngineOf[T linalg.Float] struct {
	cfg ConfigOf[T]
	// train, test, agg and median are the per-width binding between the
	// round core and the components whose method sets name an element
	// type: the model over the (at float32, narrowed) training and test
	// sets, the configured aggregation rule, and the coordinate-wise
	// median a feasibility-degraded round falls back to. Bound once at
	// construction (model.BindOf, aggregate.BindOf) and called per file
	// and per chunk, never per coordinate.
	train, test model.Bound[T]
	agg, median aggregate.Bound[T]
	src         GradientSourceOf[T]
	params      []T
	opt         *trainer.SGDOf[T]
	stream      *data.FileStream
	corruptible []int // files with ≥ r' Byzantine replicas (static per run)
	quorum      int   // minimum surviving replicas for a file vote
	iter        int
	times       PhaseTimes
	pool        *pool // nil when Parallelism == 1
	width       int   // pool width (1 when serial)
	arena       *roundArena[T]
	// rd is the persistent Round view handed to the source each
	// iteration; files is the round's file→samples table, owned by stream.
	rd    RoundOf[T]
	files [][]int
	// adv crafts the Byzantine workers' payloads (nil without any): the
	// same adversary every Byzantine worker process of a TCP fleet runs.
	adv *attack.AdversaryOf[T]
	// det and detSt are the detection/reputation layer; both nil when
	// detection is off (detect.None or unset).
	det   detect.Detector
	detSt *detect.State
	// ins holds the preallocated metric instruments (nil when
	// Config.Metrics is unset); tracer and trace are the round tracer
	// and its engine-owned scratch record (trace's worker-set slices are
	// preallocated at cap K so filling them never allocates).
	ins    *engineInstruments
	tracer *obs.Tracer
	trace  obs.RoundTrace
	// phase holds the pool task bodies; the agg* fields are the
	// per-round inputs the aggregate body reads (the rule, its operands,
	// the chunk length and the per-chunk error slots).
	phase      phases
	aggRule    *aggregate.Bound[T]
	aggWinners [][]T
	aggPer     int
	aggErrs    []error
	closeOnce  sync.Once
	closed     bool
	// signStep is set when the rule is aggregate.SignSGD: the voted sign
	// vector is the update, stepped by the learning rate alone, so the
	// per-sample rescale is skipped.
	signStep bool
}

// NewOf validates the configuration and initializes the engine of width
// T, including its gradient arena and worker pool. Callers that create
// many engines should Close each one to release the pool goroutines.
func NewOf[T linalg.Float](cfg ConfigOf[T]) (*EngineOf[T], error) {
	if cfg.Assignment == nil || cfg.Model == nil || cfg.Train == nil || cfg.Test == nil {
		return nil, fmt.Errorf("cluster: assignment, model, train and test are required")
	}
	if err := cfg.Assignment.Validate(); err != nil {
		return nil, err
	}
	if cfg.Aggregator == nil {
		return nil, fmt.Errorf("cluster: aggregator is required")
	}
	if cfg.Source != nil {
		if cfg.Attack != nil || len(cfg.Byzantines) > 0 ||
			cfg.Fault != nil || cfg.UplinkTier != wire.TierRaw {
			return nil, fmt.Errorf("cluster: Attack/Byzantines/Fault/UplinkTier " +
				"are in-process source knobs; they must be unset when Source is provided")
		}
	}
	if !cfg.UplinkTier.Valid() {
		return nil, fmt.Errorf("cluster: unknown uplink tier %d", cfg.UplinkTier)
	}
	if cfg.Attack == nil {
		cfg.Attack = attack.Benign{}
	}
	if cfg.BatchSize < cfg.Assignment.F {
		return nil, fmt.Errorf("cluster: batch size %d smaller than file count %d", cfg.BatchSize, cfg.Assignment.F)
	}
	if err := cfg.Train.Validate(); err != nil {
		return nil, fmt.Errorf("cluster: train set: %w", err)
	}
	if err := cfg.Test.Validate(); err != nil {
		return nil, fmt.Errorf("cluster: test set: %w", err)
	}
	if cfg.Parallelism < 0 {
		return nil, fmt.Errorf("cluster: parallelism %d < 0", cfg.Parallelism)
	}
	quorum := cfg.Quorum
	if quorum == 0 {
		quorum = cfg.Assignment.R/2 + 1
	}
	if quorum < 1 || quorum > cfg.Assignment.R {
		return nil, fmt.Errorf("cluster: quorum %d outside [1,%d]", cfg.Quorum, cfg.Assignment.R)
	}
	dim := cfg.Model.NumParams()
	var adv *attack.AdversaryOf[T]
	var corruptible []int
	if len(cfg.Byzantines) > 0 {
		var err error
		if adv, err = attack.NewAdversaryOf[T](cfg.Attack, cfg.Assignment, cfg.Byzantines, dim, cfg.Seed, cfg.BatchSize); err != nil {
			return nil, fmt.Errorf("cluster: %w", err)
		}
		corruptible = adv.Corruptible
	}
	train, err := model.BindOf[T](cfg.Model, cfg.Train)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	test, err := model.BindOf[T](cfg.Model, cfg.Test)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	agg, err := aggregate.BindOf[T](cfg.Aggregator)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	median, err := aggregate.BindOf[T](aggregate.Median{})
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	stream, err := data.NewRunStream(cfg.Train, cfg.BatchSize, cfg.Seed, cfg.Assignment.F, cfg.Distribution)
	if err != nil {
		return nil, err
	}
	opt, err := trainer.NewSGDOf[T](cfg.Schedule, cfg.Momentum, dim)
	if err != nil {
		return nil, err
	}
	width := cfg.Parallelism
	if width == 0 {
		width = runtime.GOMAXPROCS(0)
	}
	e := &EngineOf[T]{
		cfg:         cfg,
		train:       train,
		test:        test,
		agg:         agg,
		median:      median,
		params:      model.InitParamsOf[T](cfg.Model, cfg.Seed),
		opt:         opt,
		stream:      stream,
		corruptible: corruptible,
		adv:         adv,
		quorum:      quorum,
		width:       width,
	}
	_, e.signStep = cfg.Aggregator.(aggregate.SignSGD)
	if !detect.IsNone(cfg.Detector) {
		e.det = cfg.Detector
		e.detSt = detect.NewState(cfg.Assignment.K, dim)
	}
	e.arena = newRoundArena[T](cfg.Assignment, dim, cfg.Source == nil, width)
	e.aggErrs = make([]error, width)
	e.rd = RoundOf[T]{eng: e}
	// Probe indices are initialized eagerly so snapshot evaluation
	// (EvalLossParams) is safe from a background goroutine while the
	// serve loop keeps stepping rounds.
	e.arena.probe = data.ProbeIndices(cfg.Train.Len())
	if width > 1 {
		e.pool = newPool(width)
	}
	e.src = cfg.Source
	if e.src == nil {
		e.src = localSource[T]{e: e}
	}
	e.bindPhases()
	if cfg.Metrics != nil {
		e.ins = newEngineInstruments(cfg.Metrics, e.arena.workerFiles)
		if e.detSt != nil {
			e.detSt.SetInstruments(detect.NewInstruments(cfg.Metrics))
		}
	}
	if cfg.Tracer != nil {
		e.tracer = cfg.Tracer
		e.trace.Missing = make([]int, 0, cfg.Assignment.K)
		e.trace.Flagged = make([]int, 0, cfg.Assignment.K)
		e.trace.Blacklisted = make([]int, 0, cfg.Assignment.K)
	}
	return e, nil
}

// Close releases the engine's worker pool goroutines. The engine must
// not be stepped concurrently with Close; StepOnce afterwards returns
// ErrClosed. Close is idempotent.
func (e *EngineOf[T]) Close() error {
	e.closeOnce.Do(func() {
		e.closed = true
		if e.pool != nil {
			e.pool.close()
		}
	})
	return nil
}

// runPhase executes fn(worker, task) for task in [0, n): inline on the
// calling goroutine for the serial engine, across the persistent pool
// otherwise. Tasks must be independent, which is also what makes the two
// execution modes bit-identical.
func (e *EngineOf[T]) runPhase(n int, fn func(worker, task int)) {
	if e.pool == nil {
		for t := 0; t < n; t++ {
			fn(0, t)
		}
		return
	}
	e.pool.run(n, fn)
}

// CorruptibleFiles returns the files whose votes the Byzantines control.
func (e *EngineOf[T]) CorruptibleFiles() []int {
	return append([]int(nil), e.corruptible...)
}

// DistortionFraction returns ε̂ = |corruptible| / f for this run.
func (e *EngineOf[T]) DistortionFraction() float64 {
	return float64(len(e.corruptible)) / float64(e.cfg.Assignment.F)
}

// Params returns the current model parameters (a copy).
func (e *EngineOf[T]) Params() []T {
	out := make([]T, len(e.params))
	copy(out, e.params)
	return out
}

// Times returns accumulated per-phase wall-clock times.
func (e *EngineOf[T]) Times() PhaseTimes { return e.times }

// Iteration returns the next iteration index to execute.
func (e *EngineOf[T]) Iteration() int { return e.iter }

// Snapshot captures the restartable training state (parameters,
// momentum, iteration) for checkpointing.
func (e *EngineOf[T]) Snapshot() (params, velocity []T, iteration int) {
	return e.Params(), e.opt.Velocity(), e.iter
}

// Restore resumes from a snapshot taken by Snapshot. Dimensions must
// match the engine's model. The file stream is rebuilt from the engine's
// seed and the next round seeks it to the snapshot iteration, so a
// restore into a freshly constructed engine continues the exact sample
// stream of the interrupted run — no round replay is needed. An engine
// with a live detector refuses with ErrRestoreDetector.
func (e *EngineOf[T]) Restore(params, velocity []T, iteration int) error {
	if e.detSt != nil {
		return ErrRestoreDetector
	}
	if len(params) != len(e.params) {
		return fmt.Errorf("cluster: restore params length %d, want %d", len(params), len(e.params))
	}
	if iteration < 0 {
		return fmt.Errorf("cluster: restore iteration %d < 0", iteration)
	}
	if len(velocity) > 0 {
		if err := e.opt.SetVelocity(velocity); err != nil {
			return err
		}
	}
	// The stream is rebuilt exactly as NewOf built it, so a restored
	// engine continues the interrupted run's stream.
	stream, err := data.NewRunStream(e.cfg.Train, e.cfg.BatchSize, e.cfg.Seed, e.cfg.Assignment.F, e.cfg.Distribution)
	if err != nil {
		return err
	}
	e.stream = stream
	copy(e.params, params)
	e.iter = iteration
	return nil
}

// CheckFeasible verifies that the configured aggregator's Byzantine
// preconditions hold for this run's operand count and worst-case
// corruption — the applicability constraints the paper runs into
// ("Bulyan cannot be paired with DETOX for q ≥ 1 ...").
func (e *EngineOf[T]) CheckFeasible() error {
	ba, ok := e.cfg.Aggregator.(aggregate.ByzAware)
	if !ok {
		return nil
	}
	n := e.cfg.Assignment.F // operands after voting
	c := len(e.corruptible)
	return ba.Feasible(n, c)
}

// RunRound executes one protocol round and returns its statistics.
func (e *EngineOf[T]) RunRound() (RoundStats, error) {
	return e.StepOnce(context.Background())
}

// StepOnce executes one protocol round under the given context.
// Cancellation is checked at the round boundary — a canceled context
// returns before any state (file stream, optimizer, iteration counter)
// mutates, so the engine always sits exactly between rounds and can be
// resumed or checkpointed after a cancellation. (A network source may
// additionally fail mid-collection, e.g. on cancellation while blocked
// on sockets; such a round is aborted without an optimizer step and the
// error is surfaced. Its batch is spent: the file stream does not
// rewind, so a later StepOnce fails too until a Restore rebuilds it.)
func (e *EngineOf[T]) StepOnce(ctx context.Context) (RoundStats, error) {
	if err := ctx.Err(); err != nil {
		return RoundStats{}, err
	}
	if e.closed {
		return RoundStats{}, ErrClosed
	}
	a := e.cfg.Assignment
	ar := e.arena

	for u := range ar.missing {
		ar.missing[u] = false
	}
	// Blacklisted workers are out of the protocol for good: marked
	// missing before collection so no source computes for (or waits on)
	// them.
	if e.detSt != nil {
		for _, u := range e.detSt.Blacklist() {
			ar.missing[u] = true
		}
	}

	// --- Prep: this round's file→samples table, derived from the seed
	// (after a Restore, by seeking the fresh stream to the round).
	obsOn := e.ins != nil || e.tracer != nil
	var prepStart time.Time
	if obsOn {
		prepStart = time.Now()
	}
	var err error
	if e.files, err = e.stream.Round(e.iter); err != nil {
		return RoundStats{}, err
	}
	var prepDur time.Duration
	var collectStart time.Time
	if obsOn {
		collectStart = time.Now()
		prepDur = collectStart.Sub(prepStart)
	}

	// --- Collection: the source computes (in process) or gathers (off
	// the wire) every participating worker's per-file gradient sums into
	// the arena and marks the workers that did not make it.
	cs, err := e.src.Collect(ctx, &e.rd)
	if err != nil {
		return RoundStats{}, err
	}
	var collectDur time.Duration
	if obsOn {
		collectDur = time.Since(collectStart)
	}

	// --- Detection: between collection and aggregation, sum each live
	// worker's replicas into its report row (spread across the pool;
	// each task owns one row, so any width observes identical features),
	// derive the round's robust features, and let the detector update
	// reputations. Workers blacklisted this round are removed before
	// their replicas can enter any vote.
	var detTime time.Duration
	if e.detSt != nil {
		detStart := time.Now()
		e.detSt.BeginRound()
		e.runPhase(a.K, e.phase.report)
		e.detSt.Observe(e.det)
		for _, u := range e.detSt.NewlyBlacklisted() {
			ar.missing[u] = true
		}
		detTime = time.Since(detStart)
	}

	// --- Aggregation phase: per-file majority votes over the surviving
	// replicas, spread across the pool, then the robust aggregation
	// rule over the winners (coordinate-wise rules reduce in parallel
	// chunks). Files below the survivor quorum are dropped; files
	// between quorum and R vote degraded over the survivors.
	aggStart := time.Now()
	for w := 0; w < e.width; w++ {
		ar.distorted[w] = 0
		ar.degraded[w] = 0
		ar.dropped[w] = 0
		ar.voteErrs[w] = nil
	}
	e.runPhase(a.F, e.phase.vote)
	// voteDur splits the aggregation span for the tracer/metrics; the
	// accumulated Times.Aggregation keeps its historical meaning
	// (vote + aggregate + scale).
	var voteDur time.Duration
	if obsOn {
		voteDur = time.Since(aggStart)
	}
	distorted, degraded, dropped := 0, 0, 0
	for w := 0; w < e.width; w++ {
		if ar.voteErrs[w] != nil {
			return RoundStats{}, ar.voteErrs[w]
		}
		distorted += ar.distorted[w]
		degraded += ar.degraded[w]
		dropped += ar.dropped[w]
	}
	live := ar.live[:0]
	for v := 0; v < a.F; v++ {
		if ar.winners[v] != nil {
			live = append(live, ar.winners[v])
		}
	}
	if len(live) == 0 {
		return RoundStats{}, fmt.Errorf("cluster: round %d: no file met the survivor quorum %d", e.iter, e.quorum)
	}
	// Feasibility under shrinkage: when dropped files push a
	// Byzantine-aware rule below its floor (Krum's n ≥ 2c+3 and kin) on
	// a round that would have been feasible at full participation,
	// degrade this round to coordinate-wise median instead of erroring —
	// a long-degraded run keeps training. A configuration that is
	// infeasible even at full strength still fails loudly.
	agg := &e.agg
	aggDegraded := false
	if ba, ok := e.cfg.Aggregator.(aggregate.ByzAware); ok && len(live) < a.F {
		c := len(e.corruptible)
		if ba.Feasible(len(live), c) != nil && ba.Feasible(a.F, c) == nil {
			agg = &e.median
			aggDegraded = true
		}
	}
	if err := e.aggregate(agg, live); err != nil {
		return RoundStats{}, fmt.Errorf("cluster: aggregation: %w", err)
	}
	if !e.signStep {
		// Winners are gradient sums over ~batch/f samples; normalize to
		// per-sample scale for the update (Algorithm 1, line 17). The
		// factor is narrowed to T once, so every coordinate sees the same
		// multiplier.
		scale := T(data.PerSampleScale(a.F, e.cfg.BatchSize))
		for i := range ar.update {
			ar.update[i] *= scale
		}
	}
	aggTime := time.Since(aggStart)

	lr := e.cfg.Schedule.At(e.iter)
	e.opt.Step(e.params, ar.update, e.iter)

	var missing []int
	for u := 0; u < a.K; u++ {
		if ar.missing[u] {
			missing = append(missing, u)
		}
	}
	stats := RoundStats{
		Iteration:          e.iter,
		LR:                 lr,
		DistortedFiles:     distorted,
		MissingWorkers:     missing,
		DegradedFiles:      degraded,
		DroppedFiles:       dropped,
		AggregatorDegraded: aggDegraded,
		Rejoins:            cs.Rejoins,
		Evictions:          cs.Evictions,
		StaleFrames:        cs.StaleFrames,
		MeanReputation:     1,
		Times: PhaseTimes{
			Compute:        cs.Compute,
			Communication:  cs.Communication,
			Aggregation:    aggTime,
			Detect:         detTime,
			ReportBytes:    cs.ReportBytes,
			ReportRawBytes: cs.ReportRawBytes,
			BroadcastBytes: cs.BroadcastBytes,
		},
	}
	if e.detSt != nil {
		stats.MeanReputation = e.detSt.MeanReputation()
		stats.FlaggedWorkers = len(e.detSt.Flagged())
		if nb := e.detSt.NewlyBlacklisted(); len(nb) > 0 {
			stats.BlacklistedWorkers = append([]int(nil), nb...)
		}
		stats.Blacklisted = e.detSt.BlacklistCount()
	}
	e.times.Add(stats.Times)
	if e.ins != nil {
		e.ins.observeRound(&stats, prepDur, collectDur, voteDur, aggTime, cs.Broadcast)
	}
	if e.tracer != nil {
		e.recordTrace(&stats, prepDur, collectDur, voteDur, aggTime, cs.Broadcast)
	}
	e.iter++
	return stats, nil
}

// recordTrace fills the engine-owned trace scratch from the round's
// stats and hands it to the tracer. The worker-set slices were
// preallocated at cap K, so this is alloc-free in steady state.
func (e *EngineOf[T]) recordTrace(stats *RoundStats, prep, collect, vote, aggTotal time.Duration, broadcast time.Duration) {
	rt := &e.trace
	rt.Round = stats.Iteration
	rt.PhaseNS[obs.PhasePrep] = int64(prep)
	rt.PhaseNS[obs.PhaseBroadcast] = int64(broadcast)
	rt.PhaseNS[obs.PhaseCollect] = int64(collect)
	rt.PhaseNS[obs.PhaseVote] = int64(vote)
	rt.PhaseNS[obs.PhaseAggregate] = int64(aggTotal - vote)
	rt.PhaseNS[obs.PhaseDetect] = int64(stats.Times.Detect)
	rt.PhaseNS[obs.PhaseEval] = 0
	rt.ReportBytes = stats.Times.ReportBytes
	rt.ReportRawBytes = stats.Times.ReportRawBytes
	rt.BroadcastBytes = stats.Times.BroadcastBytes
	rt.DistortedFiles = stats.DistortedFiles
	rt.DegradedFiles = stats.DegradedFiles
	rt.DroppedFiles = stats.DroppedFiles
	rt.Rejoins = stats.Rejoins
	rt.Evictions = stats.Evictions
	rt.StaleFrames = stats.StaleFrames
	rt.MeanReputation = stats.MeanReputation
	rt.Missing = append(rt.Missing[:0], stats.MissingWorkers...)
	rt.Flagged = rt.Flagged[:0]
	if e.detSt != nil {
		rt.Flagged = append(rt.Flagged, e.detSt.Flagged()...)
	}
	rt.Blacklisted = append(rt.Blacklisted[:0], stats.BlacklistedWorkers...)
	e.tracer.Record(rt)
}

// voteFile runs the exact serial majority vote for file v using the
// width-w scratch rows, writing the winner and the per-slot
// degraded/dropped/distorted counters. It is the vote phase's task body.
func (e *EngineOf[T]) voteFile(w, v int) {
	ar := e.arena
	repl := ar.replicas[w][:0]
	workers := ar.replWorkers[w][:0]
	for _, ref := range ar.fileReplicas[v] {
		if ar.missing[ref.worker] {
			continue
		}
		repl = append(repl, ar.cur[ref.worker][ref.slot])
		workers = append(workers, ref.worker)
	}
	if len(repl) < e.quorum {
		ar.winners[v] = nil
		ar.dropped[w]++
		return
	}
	degradedVote := len(repl) < len(ar.fileReplicas[v])
	res := vote.ResultOf[T]{Winner: repl[0], Count: 1, Unanimous: true}
	var vErr error
	if len(repl) > 1 {
		res, vErr = vote.MajorityOf(repl)
	}
	if vErr != nil {
		if ar.voteErrs[w] == nil {
			ar.voteErrs[w] = fmt.Errorf("cluster: vote on file %d: %w", v, vErr)
		}
		return
	}
	if degradedVote {
		if res.Tied && e.detSt != nil {
			// Reputation-weighted runoff: with a detection layer the
			// PS knows how much it trusts each supporter, so a tied
			// degraded vote elects the candidate whose supporters
			// carry strictly more total reputation — recovering files
			// that would otherwise drop once the attackers' scores
			// have collapsed.
			if win, ok := e.resolveDegradedTie(repl, workers); ok {
				res.Winner = win
				res.Tied = false
			}
		}
		if res.Tied {
			// A degraded vote with no strict plurality is
			// indistinguishable from an attacker-controlled one:
			// losing one honest replica of a [byz, honest, honest]
			// file leaves a 1–1 tie whose deterministic index
			// tie-break could elect the crafted payload every round.
			// Drop the file instead of guessing.
			ar.winners[v] = nil
			ar.dropped[w]++
			return
		}
		ar.degraded[w]++
	}
	ar.winners[v] = res.Winner
	// A winner that differs from the file's true gradient is a vote the
	// Byzantines won. Under a lossy tier both sides went through the
	// same quantizer (the file's one buffer is the honest replicas'
	// report), so the count holds at every tier. A network source has
	// no true gradient to compare with.
	if ar.trueGrads != nil && !linalg.EqualBits(res.Winner, ar.trueGrads[v]) {
		ar.distorted[w]++
	}
}

// resolveDegradedTie elects among a tied degraded vote's replicas by
// supporter reputation: candidates are grouped by bit-exact equality,
// each group scored with the summed reputation of its supporters, and
// the strictly best group wins. A reputation tie keeps the vote tied
// (the caller drops the file). Replica counts are at most R, so the
// quadratic grouping is trivial.
func (e *EngineOf[T]) resolveDegradedTie(repl [][]T, workers []int) ([]T, bool) {
	best := -1
	bestRep := 0.0
	unique := false
	for i := range repl {
		dup := false
		for j := 0; j < i; j++ {
			if linalg.EqualBits(repl[j], repl[i]) {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		sum := 0.0
		for j := i; j < len(repl); j++ {
			if linalg.EqualBits(repl[i], repl[j]) {
				sum += e.detSt.Reputation(workers[j])
			}
		}
		switch {
		case best < 0 || sum > bestRep:
			best, bestRep, unique = i, sum, true
		case sum == bestRep:
			unique = false
		}
	}
	if best >= 0 && unique {
		return repl[best], true
	}
	return nil, false
}

// MeanReputation returns the fleet-wide mean reputation (1 when
// detection is off).
func (e *EngineOf[T]) MeanReputation() float64 {
	if e.detSt == nil {
		return 1
	}
	return e.detSt.MeanReputation()
}

// Reputation returns worker u's current reputation score (1 when
// detection is off). The TCP server mirrors it into the fleet table
// after every round.
func (e *EngineOf[T]) Reputation(u int) float64 {
	if e.detSt == nil {
		return 1
	}
	return e.detSt.Reputation(u)
}

// ObservePhase feeds a phase-latency observation into the engine's
// metric instruments and is safe to call with metrics disabled (no-op).
// The TCP server uses it for spans the engine cannot see itself — the
// asynchronous held-out evaluation.
func (e *EngineOf[T]) ObservePhase(p obs.Phase, d time.Duration) {
	if e.ins != nil {
		e.ins.phase[p].Observe(d.Seconds())
	}
}

// aggregate reduces the vote winners into the arena's update vector
// with the given rule (the configured aggregator, or the median
// fallback on feasibility-degraded rounds). Coordinate-wise rules
// reduce in parallel chunks across the pool — bit-identical to a serial
// pass because every coordinate is reduced independently; other rules
// run their ordinary whole-vector reduction.
func (e *EngineOf[T]) aggregate(agg *aggregate.Bound[T], winners [][]T) error {
	ar := e.arena
	if agg.Chunk == nil {
		update, err := agg.Whole(winners)
		if err != nil {
			return err
		}
		copy(ar.update, update)
		return nil
	}
	if e.pool == nil {
		return agg.Chunk(winners, ar.update, 0, ar.dim)
	}
	// The pooled engine cuts [0, dim) into one chunk per pool goroutine.
	// Errors are recorded per chunk index, not per pool worker: the
	// pool's worker→chunk mapping is scheduling-dependent, so keying by
	// worker slot would surface a different error run to run. Keying by
	// chunk and scanning ascending makes serial and pooled failing runs
	// report the same (lowest-range) error.
	chunks := min(e.width, ar.dim)
	e.aggRule, e.aggWinners = agg, winners
	e.aggPer = (ar.dim + chunks - 1) / chunks
	errs := e.aggErrs[:chunks]
	clear(errs)
	e.runPhase(chunks, e.phase.aggregate)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// phases are the pool task bodies of a round, bound once at
// construction so a steady-state round allocates no closure (a method
// value or a capturing literal handed to the pool escapes to the heap).
// Each reads its per-round inputs from engine fields.
type phases struct {
	compute, report, vote, aggregate func(worker, task int)
}

// bindPhases builds the phase bodies the configuration can reach.
func (e *EngineOf[T]) bindPhases() {
	ar := e.arena
	e.phase.vote = e.voteFile
	e.phase.aggregate = func(_, c int) {
		lo, hi := c*e.aggPer, min((c+1)*e.aggPer, ar.dim)
		if lo < hi {
			e.aggErrs[c] = e.aggRule.Chunk(e.aggWinners, ar.update, lo, hi)
		}
	}
	if e.detSt != nil {
		// One task per worker, each owning one report row, so any pool
		// width observes identical features. Reports accumulate in
		// float64 at either engine width.
		e.phase.report = func(_, u int) {
			if ar.missing[u] {
				return
			}
			r := e.detSt.Report(u)
			for _, g := range ar.cur[u] {
				for i, x := range g {
					r[i] += float64(x)
				}
			}
		}
	}
	e.phase.compute = e.computeFile
}

// Run executes iterations rounds under ctx, evaluating test accuracy
// (and batch loss on a held-out probe) every evalEvery rounds plus at
// the end. The returned history contains one point per evaluation; on
// cancellation the partial history recorded so far is returned together
// with the context error.
func (e *EngineOf[T]) Run(ctx context.Context, iterations, evalEvery int) (*trainer.History, error) {
	var h trainer.History
	if iterations < 1 {
		return &h, fmt.Errorf("cluster: iterations %d < 1", iterations)
	}
	if evalEvery < 1 {
		evalEvery = 1
	}
	for t := 0; t < iterations; t++ {
		if _, err := e.StepOnce(ctx); err != nil {
			return &h, err
		}
		if (t+1)%evalEvery == 0 || t == iterations-1 {
			h.Add(t+1, e.EvalLoss(), e.Evaluate())
		}
	}
	return &h, nil
}

// Evaluate returns the current test accuracy.
func (e *EngineOf[T]) Evaluate() float64 {
	return e.EvaluateParams(e.params)
}

// EvalLoss returns the current training loss on the deterministic probe
// subset used for history reporting.
func (e *EngineOf[T]) EvalLoss() float64 {
	return e.EvalLossParams(e.params)
}

// EvaluateParams returns the test accuracy of an arbitrary parameter
// vector. Safe to call from a goroutine concurrent with StepOnce when
// params is a caller-owned snapshot (the TCP server evaluates off the
// serve loop this way so workers don't idle between rounds).
func (e *EngineOf[T]) EvaluateParams(params []T) float64 {
	return e.test.Accuracy(params)
}

// EvalLossParams returns the probe-subset training loss of an arbitrary
// parameter vector; the same concurrency contract as EvaluateParams.
func (e *EngineOf[T]) EvalLossParams(params []T) float64 {
	return e.train.Loss(params, e.arena.probe)
}

// quantizeUplink applies the configured lossy uplink tier's exact
// quantize→dequantize float operations to one full-dimension gradient
// row — whole, as a wire worker frames it, since every lossy row carries
// its own scale parameters. Not idempotent in floating point: callers
// apply it exactly once per distinct buffer.
func (e *EngineOf[T]) quantizeUplink(g []T) {
	if e.cfg.UplinkTier == wire.TierInt8 {
		wire.Int8QuantizeInPlaceOf(g)
		return
	}
	wire.SignQuantizeInPlaceOf(g)
}
