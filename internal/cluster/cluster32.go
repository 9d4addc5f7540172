package cluster

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"byzshield/internal/aggregate"
	"byzshield/internal/assign"
	"byzshield/internal/data"
	"byzshield/internal/model"
	"byzshield/internal/trainer"
	"byzshield/internal/vote"
	"byzshield/internal/wire"
)

// Config32 assembles one reduced-precision training experiment. The
// float32 tier runs the same synchronous protocol round as Config —
// batch → file partition → redundant compute → bit-exact per-file
// majority vote under the quorum rule → chunked robust aggregation →
// momentum SGD — with every gradient, parameter, and optimizer value at
// float32 width. It is the engine behind protocol v7's negotiated f32
// connections and the dimension-scaling benchmarks.
//
// The tier is deliberately narrower than the f64 config: the adversary
// research knobs (Attack, Byzantines, SignMessages, VoteTolerance,
// MeasureComm, Fault, Detector) stay f64-only. What the tier keeps is
// everything that shapes the numeric trajectory and the performance
// envelope: the worker pool, the sharded chunk ranges, the quorum rule,
// non-IID distributions, prepare-ahead pipelining, and the lossy uplink
// tiers (quantization at wire granularity, so an in-process lossy run
// is bit-identical to a TCP run on the same tier).
type Config32 struct {
	Assignment *assign.Assignment
	Model      model.Model32
	// Train and Test are the float64 source datasets; the engine narrows
	// them once at construction (data.Dataset.To32), so both precision
	// tiers of one experiment load data a single time.
	Train     *data.Dataset
	Test      *data.Dataset
	BatchSize int
	// Distribution is the optional non-IID sampler split (see
	// Config.Distribution); pools are drawn on the f64 set and index
	// into the narrowed copy identically.
	Distribution data.Distributor
	// Aggregator reduces the vote winners coordinate-wise at f32 width.
	Aggregator aggregate.ChunkAggregator32
	Schedule   trainer.Schedule
	Momentum   float64
	Seed       int64
	// UplinkTier mirrors Config.UplinkTier at f32: a lossy tier applies
	// the f32 wire codec's exact quantize→dequantize operations to every
	// collected gradient, per aggregation-shard coordinate range.
	// Mutually exclusive with Source.
	UplinkTier wire.UplinkTier
	// Parallelism is the pool width (see Config.Parallelism); any width
	// is bit-identical.
	Parallelism int
	// Shards splits the parameter vector into wire.ShardRange coordinate
	// ranges for aggregation and the optimizer step; any count is
	// bit-identical to serial (coordinate-wise operations only).
	Shards int
	// PrepareAhead draws round t+1's batch before round t's collection
	// opens (see Config.PrepareAhead).
	PrepareAhead bool
	// Quorum is the minimum surviving replicas per file vote (see
	// Config.Quorum); 0 selects R/2 + 1.
	Quorum int
	// Source overrides gradient collection (the f32 TCP parameter
	// server); nil selects the in-process compute source.
	Source GradientSource32
}

// GradientSource32 is the float32 tier's collection seam, under the
// exact contract of GradientSource.
type GradientSource32 interface {
	Collect(ctx context.Context, rd *Round32) (CollectStats, error)
}

// Round32 is the engine's view of one in-flight f32 round, mirroring
// Round method for method.
type Round32 struct {
	eng   *Engine32
	files [][]int
}

// Iteration returns the 0-based round index.
func (rd *Round32) Iteration() int { return rd.eng.iter }

// Params returns the live float32 parameter vector: read only.
func (rd *Round32) Params() []float32 { return rd.eng.params }

// Workers returns the cluster size K.
func (rd *Round32) Workers() int { return rd.eng.cfg.Assignment.K }

// WorkerFiles returns worker u's assigned file ids in slot order.
func (rd *Round32) WorkerFiles(u int) []int { return rd.eng.workerFiles[u] }

// FileSamples returns the training-sample indices of file v this round.
func (rd *Round32) FileSamples(v int) []int { return rd.files[v] }

// Buffer returns the engine-owned f32 gradient buffer for worker u's
// slot-th assigned file; decoding into it counts as delivering.
func (rd *Round32) Buffer(u, slot int) []float32 { return rd.eng.grads[u][slot] }

// GradBuffer32 is Round32.Buffer addressed from the engine, for network
// sources whose reader goroutines decode between Collect calls.
func (e *Engine32) GradBuffer32(u, slot int) []float32 { return e.grads[u][slot] }

// Deliver points the engine at g as worker u's slot-th gradient.
func (rd *Round32) Deliver(u, slot int, g []float32) error {
	if len(g) != rd.eng.dim {
		return fmt.Errorf("cluster: deliver worker %d slot %d: dim %d, want %d", u, slot, len(g), rd.eng.dim)
	}
	rd.eng.cur[u][slot] = g
	return nil
}

// MarkMissing declares worker u absent this round.
func (rd *Round32) MarkMissing(u int) { rd.eng.missing[u] = true }

// Shards returns the number of aggregation shard ranges (1 when
// sharding is off).
func (rd *Round32) Shards() int { return len(rd.eng.ranges) }

// Engine32 executes the protocol at float32 width.
type Engine32 struct {
	cfg     Config32
	src     GradientSource32
	params  []float32
	opt     *trainer.SGD32
	sampler batchSource
	train32 *data.Dataset32
	test32  *data.Dataset32
	quorum  int
	iter    int
	dim     int
	times   PhaseTimes
	pool    *pool
	width   int
	// ranges are the aggregation shard coordinate ranges ([lo, hi) per
	// shard; a single full-dimension range when sharding is off).
	ranges [][2]int
	rd     Round32

	// Per-round state, preallocated once (the f32 mirror of roundArena,
	// without the adversary planes).
	workerFiles  [][]int
	grads        [][][]float32
	cur          [][][]float32
	fileReplicas [][]slotRef
	winners      [][]float32
	live         [][]float32
	missing      []bool
	update       []float32
	replicas     [][][]float32
	degraded     []int
	dropped      []int
	voteErrs     []error
	aggErrs      []error
	files        [][]int

	// Prepare-ahead state (see the Engine fields of the same names).
	pendingFiles [][]int
	spareFiles   [][]int
	prepBatch    [2][]int
	prepFlip     int
	preparedIter int
	prepErr      error

	closeOnce sync.Once
	closed    bool
}

// New32 validates the configuration and initializes the f32 engine.
func New32(cfg Config32) (*Engine32, error) {
	if cfg.Assignment == nil || cfg.Model == nil || cfg.Train == nil || cfg.Test == nil {
		return nil, fmt.Errorf("cluster: assignment, model, train and test are required")
	}
	if err := cfg.Assignment.Validate(); err != nil {
		return nil, err
	}
	if cfg.Aggregator == nil {
		return nil, fmt.Errorf("cluster: aggregator is required")
	}
	if !cfg.UplinkTier.Valid() {
		return nil, fmt.Errorf("cluster: unknown uplink tier %d", cfg.UplinkTier)
	}
	if cfg.Source != nil && cfg.UplinkTier != wire.TierDelta {
		return nil, fmt.Errorf("cluster: UplinkTier is an in-process source knob; it must be unset when Source is provided")
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
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("cluster: shards %d < 0", cfg.Shards)
	}
	quorum := cfg.Quorum
	if quorum == 0 {
		quorum = cfg.Assignment.R/2 + 1
	}
	if quorum < 1 || quorum > cfg.Assignment.R {
		return nil, fmt.Errorf("cluster: quorum %d outside [1,%d]", cfg.Quorum, cfg.Assignment.R)
	}
	// The f32 batch stream is the f64 stream: same sampler type, same
	// seed, drawn in strict round order — the two tiers of one
	// experiment see identical sample indices every round.
	f64cfg := Config{
		Train:        cfg.Train,
		BatchSize:    cfg.BatchSize,
		Seed:         cfg.Seed,
		Distribution: cfg.Distribution,
		Assignment:   cfg.Assignment,
	}
	sampler, err := newBatchSource(&f64cfg)
	if err != nil {
		return nil, err
	}
	opt, err := trainer.NewSGD32(cfg.Schedule, cfg.Momentum, cfg.Model.NumParams())
	if err != nil {
		return nil, err
	}
	width := cfg.Parallelism
	if width == 0 {
		width = runtime.GOMAXPROCS(0)
	}
	a := cfg.Assignment
	dim := cfg.Model.NumParams()
	e := &Engine32{
		cfg:          cfg,
		params:       model.InitParams32(cfg.Model, cfg.Seed),
		opt:          opt,
		sampler:      sampler,
		train32:      cfg.Train.To32(),
		test32:       cfg.Test.To32(),
		quorum:       quorum,
		dim:          dim,
		width:        width,
		preparedIter: -1,
	}
	e.workerFiles = make([][]int, a.K)
	totalSlots := 0
	for u := 0; u < a.K; u++ {
		e.workerFiles[u] = a.WorkerFiles(u)
		totalSlots += len(e.workerFiles[u])
	}
	backing := make([]float32, totalSlots*dim)
	e.grads = make([][][]float32, a.K)
	e.cur = make([][][]float32, a.K)
	off := 0
	for u := 0; u < a.K; u++ {
		n := len(e.workerFiles[u])
		e.grads[u] = make([][]float32, n)
		e.cur[u] = make([][]float32, n)
		for j := 0; j < n; j++ {
			e.grads[u][j] = backing[off : off+dim : off+dim]
			off += dim
		}
	}
	e.fileReplicas = make([][]slotRef, a.F)
	for u := 0; u < a.K; u++ {
		for j, v := range e.workerFiles[u] {
			e.fileReplicas[v] = append(e.fileReplicas[v], slotRef{worker: u, slot: j})
		}
	}
	e.winners = make([][]float32, a.F)
	e.live = make([][]float32, 0, a.F)
	e.missing = make([]bool, a.K)
	e.update = make([]float32, dim)
	e.replicas = make([][][]float32, width)
	for w := range e.replicas {
		e.replicas[w] = make([][]float32, 0, a.R)
	}
	e.degraded = make([]int, width)
	e.dropped = make([]int, width)
	e.voteErrs = make([]error, width)
	e.files = make([][]int, a.F)
	n := wire.ShardCount(cfg.Shards, dim)
	e.ranges = make([][2]int, n)
	for s := 0; s < n; s++ {
		lo, hi := wire.ShardRange(dim, n, s)
		e.ranges[s] = [2]int{lo, hi}
	}
	e.aggErrs = make([]error, max(n, width))
	e.rd = Round32{eng: e}
	if width > 1 {
		e.pool = newPool(width)
	}
	e.src = cfg.Source
	if e.src == nil {
		e.src = localSource32{e: e}
	}
	return e, nil
}

// Close releases the pool goroutines; StepOnce afterwards returns
// ErrClosed. Idempotent.
func (e *Engine32) Close() error {
	e.closeOnce.Do(func() {
		e.closed = true
		if e.pool != nil {
			e.pool.close()
		}
	})
	return nil
}

// runPhase mirrors Engine.runPhase.
func (e *Engine32) runPhase(n int, fn func(worker, task int)) {
	if e.pool == nil {
		for t := 0; t < n; t++ {
			fn(0, t)
		}
		return
	}
	e.pool.run(n, fn)
}

// Params returns the current float32 parameters (a copy).
func (e *Engine32) Params() []float32 {
	out := make([]float32, len(e.params))
	copy(out, e.params)
	return out
}

// Times returns accumulated per-phase wall-clock times.
func (e *Engine32) Times() PhaseTimes { return e.times }

// Iteration returns the next iteration index to execute.
func (e *Engine32) Iteration() int { return e.iter }

// StepOnce executes one f32 protocol round under the cancellation
// contract of Engine.StepOnce.
func (e *Engine32) StepOnce(ctx context.Context) (RoundStats, error) {
	if err := ctx.Err(); err != nil {
		return RoundStats{}, err
	}
	if e.closed {
		return RoundStats{}, ErrClosed
	}
	if err := e.prepErr; err != nil {
		e.prepErr = nil
		return RoundStats{}, err
	}
	a := e.cfg.Assignment

	var files [][]int
	if e.pendingFiles != nil {
		files = e.pendingFiles
		e.pendingFiles = nil
		e.spareFiles, e.files = e.files, files
	} else {
		batch := e.sampler.Next()
		if e.cfg.PrepareAhead {
			batch = e.copyBatch(batch)
		}
		f, err := data.PartitionFilesInto(batch, a.F, e.files)
		if err != nil {
			return RoundStats{}, err
		}
		files = f
	}
	e.files = files

	clear(e.missing)
	e.rd.files = files
	e.prepareNext()

	cs, err := e.src.Collect(ctx, &e.rd)
	if err != nil {
		return RoundStats{}, err
	}

	// --- Aggregation phase: per-file majority votes over the surviving
	// replicas under the quorum rule, then the chunked robust rule over
	// the winners along the shard ranges.
	aggStart := time.Now()
	for w := 0; w < e.width; w++ {
		e.degraded[w] = 0
		e.dropped[w] = 0
		e.voteErrs[w] = nil
	}
	e.runPhase(a.F, e.voteFile)
	degraded, dropped := 0, 0
	for w := 0; w < e.width; w++ {
		if e.voteErrs[w] != nil {
			return RoundStats{}, e.voteErrs[w]
		}
		degraded += e.degraded[w]
		dropped += e.dropped[w]
	}
	live := e.live[:0]
	for v := 0; v < a.F; v++ {
		if e.winners[v] != nil {
			live = append(live, e.winners[v])
		}
	}
	e.live = live
	if len(live) == 0 {
		return RoundStats{}, fmt.Errorf("cluster: round %d: no file met the survivor quorum %d", e.iter, e.quorum)
	}
	// Feasibility under shrinkage, as in the f64 engine: a round whose
	// dropped files push a Byzantine-aware rule below its floor degrades
	// to coordinate-wise median instead of erroring.
	agg := e.cfg.Aggregator
	aggDegraded := false
	if ba, ok := agg.(aggregate.ByzAware); ok && len(live) < a.F {
		if ba.Feasible(len(live), 0) != nil && ba.Feasible(a.F, 0) == nil {
			agg = aggregate.Median{}
			aggDegraded = true
		}
	}
	if err := e.aggregate(agg, live); err != nil {
		return RoundStats{}, fmt.Errorf("cluster: aggregation: %w", err)
	}
	// Winners are gradient sums over ~batch/f samples; normalize to
	// per-sample scale, narrowed once so every coordinate sees the same
	// f32 multiplier.
	scale := float32(data.PerSampleScale(a.F, e.cfg.BatchSize))
	e.runPhase(len(e.ranges), func(_, s int) {
		for i := e.ranges[s][0]; i < e.ranges[s][1]; i++ {
			e.update[i] *= scale
		}
	})
	aggTime := time.Since(aggStart)

	lr := e.cfg.Schedule.At(e.iter)
	e.runPhase(len(e.ranges), func(_, s int) {
		e.opt.StepChunk(e.params, e.update, e.iter, e.ranges[s][0], e.ranges[s][1])
	})

	var missing []int
	for u := 0; u < a.K; u++ {
		if e.missing[u] {
			missing = append(missing, u)
		}
	}
	stats := RoundStats{
		Iteration:          e.iter,
		LR:                 lr,
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
			ReportBytes:    cs.ReportBytes,
			ReportRawBytes: cs.ReportRawBytes,
			BroadcastBytes: cs.BroadcastBytes,
		},
	}
	e.times.Add(stats.Times)
	e.iter++
	return stats, nil
}

// voteFile runs file v's majority vote with width-w scratch.
func (e *Engine32) voteFile(w, v int) {
	repl := e.replicas[w][:0]
	for _, ref := range e.fileReplicas[v] {
		if e.missing[ref.worker] {
			continue
		}
		repl = append(repl, e.cur[ref.worker][ref.slot])
	}
	e.replicas[w] = repl[:0]
	if len(repl) < e.quorum {
		e.winners[v] = nil
		e.dropped[w]++
		return
	}
	degradedVote := len(repl) < len(e.fileReplicas[v])
	var res vote.Result32
	var vErr error
	if len(repl) == 1 {
		res = vote.Result32{Winner: repl[0], Count: 1, Unanimous: true}
	} else {
		res, vErr = vote.Majority32(repl)
	}
	if vErr != nil {
		if e.voteErrs[w] == nil {
			e.voteErrs[w] = fmt.Errorf("cluster: vote on file %d: %w", v, vErr)
		}
		return
	}
	if degradedVote {
		if res.Tied {
			// A tied degraded vote is indistinguishable from an
			// attacker-controlled one; drop the file (see Engine.voteFile).
			e.winners[v] = nil
			e.dropped[w]++
			return
		}
		e.degraded[w]++
	}
	e.winners[v] = res.Winner
}

// aggregate reduces the winners into the update vector along the shard
// ranges (bit-identical to serial: every rule is coordinate-wise).
func (e *Engine32) aggregate(agg aggregate.ChunkAggregator32, winners [][]float32) error {
	n := len(e.ranges)
	for s := 0; s < n; s++ {
		e.aggErrs[s] = nil
	}
	e.runPhase(n, func(_, s int) {
		e.aggErrs[s] = agg.AggregateChunk32(winners, e.update, e.ranges[s][0], e.ranges[s][1])
	})
	for s := 0; s < n; s++ {
		if e.aggErrs[s] != nil {
			return e.aggErrs[s]
		}
	}
	return nil
}

// prepareNext mirrors Engine.prepareNext.
func (e *Engine32) prepareNext() {
	if !e.cfg.PrepareAhead || e.prepErr != nil || e.pendingFiles != nil {
		return
	}
	batch := e.copyBatch(e.sampler.Next())
	files, err := data.PartitionFilesInto(batch, e.cfg.Assignment.F, e.spareFiles)
	if err != nil {
		e.prepErr = err
		return
	}
	e.spareFiles = nil
	e.pendingFiles = files
	e.preparedIter = e.iter + 1
	if p, ok := e.src.(RoundPreparer); ok {
		p.PrepareNext(e.preparedIter, files)
	}
}

// copyBatch mirrors Engine.copyBatch.
func (e *Engine32) copyBatch(batch []int) []int {
	b := &e.prepBatch[e.prepFlip]
	e.prepFlip ^= 1
	*b = append((*b)[:0], batch...)
	return *b
}

// quantizeUplink applies the configured lossy f32 tier's exact
// quantize→dequantize operations per shard range (the wire's framing
// granularity); see Engine.quantizeUplink for why.
func (e *Engine32) quantizeUplink(g []float32) {
	quant := wire.SignQuantizeInPlace32
	if e.cfg.UplinkTier == wire.TierInt8 {
		quant = wire.Int8QuantizeInPlace32
	}
	for _, r := range e.ranges {
		quant(g[r[0]:r[1]])
	}
}

// Run executes iterations rounds, evaluating every evalEvery rounds
// plus at the end, under the contract of Engine.Run.
func (e *Engine32) Run(ctx context.Context, iterations, evalEvery int) (*trainer.History, error) {
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

// Evaluate returns the current test accuracy of the f32 parameters.
func (e *Engine32) Evaluate() float64 {
	return model.Accuracy32(e.cfg.Model, e.params, e.test32)
}

// EvalLoss returns the current training loss on the deterministic
// probe subset.
func (e *Engine32) EvalLoss() float64 {
	return e.cfg.Model.Loss32(e.params, e.train32, data.ProbeIndices(e.train32.Len()))
}

// localSource32 is the default f32 GradientSource32: every worker
// computes its file gradient sums in process across the engine's pool
// (the f32 tier has no adversary plane — all workers are honest).
type localSource32 struct {
	e *Engine32
}

// Collect implements GradientSource32.
func (s localSource32) Collect(_ context.Context, rd *Round32) (CollectStats, error) {
	e := s.e
	a := e.cfg.Assignment
	m := e.cfg.Model
	files := rd.files

	computeStart := time.Now()
	e.runPhase(a.K, func(_, u int) {
		for j, v := range e.workerFiles[u] {
			g := e.grads[u][j]
			clear(g)
			m.SumGradient32(e.params, e.train32, files[v], g)
			e.cur[u][j] = g
		}
	})
	// Lossy uplink tier, in place (see localSource.Collect): every
	// buffer is per-(worker, slot), so a single pass over all buffers
	// applies the codec operations exactly once each.
	if e.cfg.UplinkTier.Lossy() {
		e.runPhase(a.K, func(_, u int) {
			for _, g := range e.grads[u] {
				e.quantizeUplink(g)
			}
		})
	}
	return CollectStats{Compute: time.Since(computeStart)}, nil
}
