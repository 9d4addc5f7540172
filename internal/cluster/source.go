package cluster

import (
	"context"
	"fmt"
	"slices"
	"time"

	"byzshield/internal/linalg"
)

// CollectStats reports the measurable cost of one gradient collection:
// the compute and communication wall-clock split plus the exact number
// of serialized worker→PS bytes (when the source physically moves
// bytes).
type CollectStats struct {
	Compute       time.Duration
	Communication time.Duration
	// ReportBytes counts serialized worker→PS report bytes as they
	// moved (in the uplink tier's frames); ReportRawBytes what the same
	// reports would have cost raw. See PhaseTimes.
	ReportBytes    int64
	ReportRawBytes int64
	// BroadcastBytes counts serialized PS→worker parameter-broadcast
	// bytes (network sources only: the broadcast policy lives in
	// internal/transport, and the in-process source sends nothing).
	BroadcastBytes int64
	// Broadcast is the wall-clock time of the PS→worker parameter
	// broadcast sends (network sources only; a subset of
	// Communication). The tracer records it as its own phase span.
	Broadcast time.Duration
	// Rejoins/Evictions/StaleFrames report connection-lifecycle events
	// of network sources (see RoundStats).
	Rejoins     int
	Evictions   int
	StaleFrames int
}

// GradientSourceOf supplies one round's per-worker gradient replicas to
// the engine — the single seam between the shared round core (vote,
// quorum, robust aggregation, momentum step) and the two ways gradients
// come into existence: computed in process by the engine's own worker
// pool (the default source) or received over the network by the TCP
// parameter server (internal/transport).
//
// Collect must, for every worker u, either fill all of u's slot buffers
// for this round (Round.Deliver for each assigned file slot, typically
// of a report decoded into Engine.GradBuffer) or declare the worker
// absent with Round.MarkMissing. Partially delivered workers would vote
// stale buffers from an earlier round. Collect owns the round's compute
// and communication phases; the engine times everything after it (vote
// + aggregation) itself.
type GradientSourceOf[T linalg.Float] interface {
	Collect(ctx context.Context, rd *RoundOf[T]) (CollectStats, error)
}

// RoundOf is the engine's view of one in-flight protocol round, handed to
// the GradientSourceOf: the iteration number, the current parameters, and
// the preallocated arena buffers gradients land in. The round's
// file→samples table is not part of it: a network source's workers each
// derive their own (data.FileStream). Methods that address per-worker
// state (Buffer, Deliver, MarkMissing) are safe to call concurrently for
// distinct workers, which is how network sources collect from all workers
// in parallel.
type RoundOf[T linalg.Float] struct {
	eng *EngineOf[T]
}

// Iteration returns the 0-based round index.
func (rd *RoundOf[T]) Iteration() int { return rd.eng.iter }

// Params returns the current model parameters. The slice is the
// engine's live parameter vector: read (or serialize) it, never write.
func (rd *RoundOf[T]) Params() []T { return rd.eng.params }

// GradBuffer returns the engine-owned gradient buffer for worker u's
// slot-th assigned file. The buffers are stable for the engine's
// lifetime, so a network source's long-lived reader goroutines may cache
// and decode into them between Collect calls — only the worker's
// current-round deliverer may write a buffer the round might read.
func (e *EngineOf[T]) GradBuffer(u, slot int) []T { return e.arena.grads[u][slot] }

// Deliver points the engine at g as worker u's gradient for its slot-th
// assigned file this round. g must have the model dimension and stay
// untouched until the round completes; sources that reuse receive
// buffers per (worker, slot) satisfy this automatically.
func (rd *RoundOf[T]) Deliver(u, slot int, g []T) error {
	ar := rd.eng.arena
	if len(g) != ar.dim {
		return fmt.Errorf("cluster: deliver worker %d slot %d: dim %d, want %d", u, slot, len(g), ar.dim)
	}
	ar.cur[u][slot] = g
	return nil
}

// MarkMissing declares worker u absent this round: its replicas are
// excluded from every file vote, and the quorum rule decides whether
// affected files degrade or drop.
func (rd *RoundOf[T]) MarkMissing(u int) { rd.eng.arena.missing[u] = true }

// localSource is the default GradientSourceOf: the in-process cluster of
// Algorithm 1. Honest workers compute their file gradient sums across
// the engine's persistent pool, Byzantine workers substitute crafted
// payloads from the attack oracle, the optional fault model removes
// workers from the round, and measured-communication mode pushes every
// surviving message through the binary gradient-frame codec.
type localSource[T linalg.Float] struct {
	e *EngineOf[T]
}

// Collect implements GradientSourceOf.
func (s localSource[T]) Collect(context.Context, *RoundOf[T]) (CollectStats, error) {
	e := s.e
	a := e.cfg.Assignment
	ar := e.arena
	files := e.files

	// Fault plan: remove skipped and crashed workers before any compute
	// happens. Pure delays are a wire-transport phenomenon; in process
	// they are full participation.
	if e.cfg.Fault != nil {
		for u := 0; u < a.K; u++ {
			d := e.cfg.Fault.Plan(e.iter, u)
			if d.Skip || d.Crash {
				ar.missing[u] = true
			}
		}
	}

	// --- Compute phase: surviving honest workers compute file gradient
	// sums across the persistent pool. Redundancy is physically
	// executed: every worker computes every file it is assigned, into
	// its arena buffers.
	computeStart := time.Now()
	e.runPhase(len(e.honest), e.phase.compute)
	computeTime := time.Since(computeStart)

	// --- Attack oracle: true gradients for every file (reusing live
	// honest workers' results; computing any file whose live replicas
	// are all Byzantine or missing).
	for v := 0; v < a.F; v++ {
		ar.trueGrads[v] = nil
		for _, ref := range ar.fileReplicas[v] {
			if e.byzSet[ref.worker] || ar.missing[ref.worker] {
				continue
			}
			ar.trueGrads[v] = ar.grads[ref.worker][ref.slot]
			break
		}
		if ar.trueGrads[v] == nil {
			g := ar.oracle[v]
			clear(g)
			e.train.SumGradient(e.params, files[v], g)
			ar.trueGrads[v] = g
		}
	}

	// Byzantine payloads: the coalition crafts one vector per file it
	// holds, every round and whichever of its members a fault removed,
	// and each live member reports the vector of each of its files.
	var byzFiles []int
	var crafted [][]T
	if e.adv != nil {
		byzFiles = e.adv.Files
		crafted = e.adv.Craft(e.iter, ar.trueGrads)
		for _, u := range e.adv.Coalition {
			if ar.missing[u] {
				continue
			}
			for j, v := range ar.workerFiles[u] {
				ar.cur[u][j] = crafted[v]
			}
		}
	}

	// Optional sign compression (signSGD pipeline), in place: honest
	// buffers once per (worker, slot), crafted payloads once per file
	// (signing is idempotent, so payload sharing across replicas is
	// safe).
	if e.cfg.SignMessages {
		for _, u := range e.honest {
			if ar.missing[u] {
				continue
			}
			for _, g := range ar.grads[u] {
				signInPlace(g)
			}
		}
		for _, v := range byzFiles {
			signInPlace(crafted[v])
		}
	}

	// Lossy uplink tier, in place: apply the wire codec's exact
	// quantize→dequantize float operations to every surviving message
	// before any vote reads it, so the in-process trajectory is
	// bit-identical to a TCP run on the same tier. Unlike signInPlace,
	// quantization is NOT idempotent in floating point (re-encoding a
	// quantized row lands on different bits), so every distinct buffer
	// passes exactly once: honest buffers are per-(worker, slot), but
	// coordinated attacks may share one payload buffer across files,
	// hence the seen-pointer dedupe. Sharing stays consistent with the
	// wire because replicas quantizing identical input bits produce
	// identical output bits. Skipped under measured communication, where
	// the physical codec round-trip performs the same operations.
	if tier := e.cfg.UplinkTier; tier.Lossy() && !e.cfg.MeasureComm {
		for _, u := range e.honest {
			if ar.missing[u] {
				continue
			}
			for _, g := range ar.grads[u] {
				e.quantizeUplink(g)
			}
		}
		seen := ar.quantSeen[:0]
		for _, v := range byzFiles {
			g := crafted[v]
			if len(g) == 0 || slices.Contains(seen, &g[0]) {
				continue
			}
			seen = append(seen, &g[0])
			e.quantizeUplink(g)
		}
		ar.quantSeen = seen
	}

	// --- Communication phase: move every surviving worker's message to
	// the PS through the uplink gradient codec, so the realized ratio is
	// measured, not modelled. The decoded receive buffers become the PS's
	// working set, as bytes off a wire would.
	commStart := time.Now()
	var commBytes, rawBytes int64
	if e.cfg.MeasureComm {
		// One frame carries a worker's whole rows, as on the wire.
		for u := 0; u < a.K; u++ {
			if ar.missing[u] {
				continue
			}
			buf, _, rawSize, err := ar.upEnc.Encode(ar.encBuf[:0], u, ar.workerFiles[u], ar.cur[u])
			if err != nil {
				return CollectStats{}, fmt.Errorf("cluster: worker %d message: %w", u, err)
			}
			ar.encBuf = buf
			ar.rxFrame.Grads = ar.rx[u]
			if _, _, err := ar.upDec.Decode(buf, &ar.rxFrame); err != nil {
				return CollectStats{}, fmt.Errorf("cluster: worker %d message: %w", u, err)
			}
			commBytes += int64(len(buf))
			rawBytes += int64(rawSize)
			// Decode filled the rx buffers in place (capacities always
			// suffice); repoint the PS's view at them.
			copy(ar.cur[u], ar.rx[u])
		}
	}
	commTime := time.Since(commStart)

	return CollectStats{
		Compute:        computeTime,
		Communication:  commTime,
		ReportBytes:    commBytes,
		ReportRawBytes: rawBytes,
	}, nil
}

// computeWorker is the compute phase's pool task: honest worker
// e.honest[t] computes the gradient sum of every file it is assigned
// into its own arena buffers.
func (e *EngineOf[T]) computeWorker(_, t int) {
	ar := e.arena
	u := e.honest[t]
	if ar.missing[u] {
		return
	}
	for j, v := range ar.workerFiles[u] {
		g := ar.grads[u][j]
		clear(g)
		e.train.SumGradient(e.params, e.files[v], g)
		// Repoint the PS's view at the fresh compute buffer (a
		// measured-communication round leaves it on the rx side).
		ar.cur[u][j] = g
	}
}
