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
// of serialized worker→PS bytes (network sources only; the in-process
// source sends nothing).
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
// Collect must, for every worker u, either deliver a gradient for each
// of u's assigned file slots this round (Round.Deliver, typically of a
// report decoded into the source's own per-slot receive buffer) or
// declare the worker absent with Round.MarkMissing. Partially delivered
// workers would vote stale buffers from an earlier round. Collect owns
// the round's compute and communication phases; the engine times
// everything after it (vote + aggregation) itself.
type GradientSourceOf[T linalg.Float] interface {
	Collect(ctx context.Context, rd *RoundOf[T]) (CollectStats, error)
}

// RoundOf is the engine's view of one in-flight protocol round, handed to
// the GradientSourceOf: the iteration number, the current parameters, and
// the per-slot delivery and absence marks. The round's file→samples
// table is not part of it: a network source's workers each derive their
// own (data.FileStream). Methods that address per-worker state
// (Deliver, MarkMissing) are safe to call concurrently for
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
// Algorithm 1. Honest replicas of a file are bit-identical in process,
// so each file's gradient sum is computed once, across the engine's
// persistent pool, into the file's one arena buffer, which every honest
// holder reports. Byzantine workers substitute crafted payloads from the
// attack oracle, and the optional fault model removes workers from the
// round.
type localSource[T linalg.Float] struct {
	e *EngineOf[T]
}

// Collect implements GradientSourceOf.
func (s localSource[T]) Collect(context.Context, *RoundOf[T]) (CollectStats, error) {
	e := s.e
	a := e.cfg.Assignment
	ar := e.arena

	// Fault plan: remove skipped and crashed workers from the round.
	// Pure delays are a wire-transport phenomenon; in process they are
	// full participation.
	if e.cfg.Fault != nil {
		for u := 0; u < a.K; u++ {
			d := e.cfg.Fault.Plan(e.iter, u)
			if d.Skip || d.Crash {
				ar.missing[u] = true
			}
		}
	}

	// --- Compute phase: every file's gradient sum, once, across the
	// persistent pool. It is also the file's true gradient, the attack
	// oracle's view, whichever of its holders are live or honest.
	computeStart := time.Now()
	e.runPhase(a.F, e.phase.compute)
	computeTime := time.Since(computeStart)

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

	// Lossy uplink tier, in place: apply the wire codec's exact
	// quantize→dequantize float operations to every message before any
	// vote reads it, so the in-process trajectory is bit-identical to a
	// TCP run on the same tier. Quantization is NOT idempotent in
	// floating point (re-encoding a quantized row lands on different
	// bits), so every distinct buffer passes exactly once: each file
	// buffer once, and the crafted payloads through a seen-pointer
	// dedupe, because coordinated attacks may share one payload buffer
	// across files. Sharing stays consistent with the wire because
	// replicas quantizing identical input bits produce identical output
	// bits. The attack crafted from unquantized true gradients, as a wire
	// Byzantine does; the file buffers pass the quantizer only after, so
	// every file's true gradient is what an honest replica sends and the
	// distorted-file count holds at every tier.
	if e.cfg.UplinkTier.Lossy() {
		for _, g := range ar.trueGrads {
			e.quantizeUplink(g)
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

	// Nothing crosses a wire in process: no communication, no bytes.
	return CollectStats{Compute: computeTime}, nil
}

// computeFile is the compute phase's pool task: the gradient sum of file
// v at the round's parameters, into the file's one arena buffer.
func (e *EngineOf[T]) computeFile(_, v int) {
	g := e.arena.trueGrads[v]
	clear(g)
	e.train.SumGradient(e.params, e.files[v], g)
}
