package cluster

import (
	"byzshield/internal/assign"
	"byzshield/internal/linalg"
)

// slotRef addresses one (worker, slot) gradient buffer: worker u's
// slot-th assigned file.
type slotRef struct{ worker, slot int }

// roundArena owns every buffer the round loop touches, preallocated once
// at engine construction and reused across rounds so the steady-state
// hot path performs no gradient-sized allocation. All gradient buffers
// are views into flat backing arrays, which also keeps them cache-dense.
type roundArena[T linalg.Float] struct {
	dim int
	// workerFiles[u] caches assignment.WorkerFiles(u).
	workerFiles [][]int
	// cur[u][j] is the gradient the PS sees for (u, j) this round: in
	// process, the file's one buffer for honest workers and the crafted
	// payload for Byzantine workers; over the network, whatever the
	// source delivered.
	cur [][][]T
	// fileReplicas[v] lists the (worker, slot) pairs holding file v, in
	// assignment FileWorkers order.
	fileReplicas [][]slotRef
	// trueGrads[v] is file v's one gradient buffer in process (views
	// into one f × dim backing array): computed once per round, read by
	// every honest replica of the file, and the attack oracle's and the
	// distorted-vote count's view of the true gradient. Nil for a
	// network source.
	trueGrads [][]T
	// winners[v] is file v's vote winner this round (nil when the file
	// was dropped for lack of quorum).
	winners [][]T
	// live is the compacted winner list handed to the aggregator —
	// identical to winners on full-participation rounds.
	live [][]T
	// missing[u] marks worker u as not participating this round
	// (crashed, skipped, or past deadline); reset at every round start.
	missing []bool
	// update is the aggregated model update.
	update []T
	// replicas[w] is pool-goroutine w's replica gather scratch (cap R);
	// replWorkers[w] the matching replica-owner worker ids (consumed by
	// the reputation-weighted tie-break).
	replicas    [][][]T
	replWorkers [][]int
	// distorted[w], degraded[w], dropped[w], and voteErrs[w] accumulate
	// pool-goroutine w's distorted-vote / degraded-vote / dropped-file
	// counts and first vote error; summed/joined after the phase barrier.
	distorted []int
	degraded  []int
	dropped   []int
	voteErrs  []error
	// probe caches the deterministic loss-evaluation indices.
	probe []int
	// quantSeen dedupes shared Byzantine payload buffers inside the
	// lossy quantize-in-place pass (quantization is not idempotent, so
	// each distinct buffer must pass exactly once). Grows on first use.
	quantSeen []*T
}

// newRoundArena preallocates every per-round buffer for the given
// assignment, model dimension, and pool width. In process (inProcess),
// every replica of file v reads trueGrads[v], set once here; the
// in-process source repoints a live Byzantine's slots at its crafted
// payloads every round, and a network source's Deliver points cur at
// its own receive buffers.
func newRoundArena[T linalg.Float](a *assign.Assignment, dim int, inProcess bool, poolWidth int) *roundArena[T] {
	ar := &roundArena[T]{dim: dim}
	ar.workerFiles = make([][]int, a.K)
	ar.cur = make([][][]T, a.K)
	for u := 0; u < a.K; u++ {
		ar.workerFiles[u] = a.WorkerFiles(u)
		ar.cur[u] = make([][]T, len(ar.workerFiles[u]))
	}
	if inProcess {
		backing := make([]T, a.F*dim)
		ar.trueGrads = make([][]T, a.F)
		for v := range ar.trueGrads {
			ar.trueGrads[v] = backing[v*dim : (v+1)*dim : (v+1)*dim]
		}
		for u := 0; u < a.K; u++ {
			for j, v := range ar.workerFiles[u] {
				ar.cur[u][j] = ar.trueGrads[v]
			}
		}
	}

	ar.fileReplicas = make([][]slotRef, a.F)
	slotOf := make([]map[int]int, a.K)
	for u := 0; u < a.K; u++ {
		slotOf[u] = make(map[int]int, len(ar.workerFiles[u]))
		for j, v := range ar.workerFiles[u] {
			slotOf[u][v] = j
		}
	}
	maxR := 1
	for v := 0; v < a.F; v++ {
		holders := a.FileWorkers(v)
		refs := make([]slotRef, len(holders))
		for i, u := range holders {
			refs[i] = slotRef{worker: u, slot: slotOf[u][v]}
		}
		ar.fileReplicas[v] = refs
		if len(refs) > maxR {
			maxR = len(refs)
		}
	}

	ar.winners = make([][]T, a.F)
	ar.live = make([][]T, 0, a.F)
	ar.missing = make([]bool, a.K)
	ar.update = make([]T, dim)
	ar.replicas = make([][][]T, poolWidth)
	ar.replWorkers = make([][]int, poolWidth)
	for w := range ar.replicas {
		ar.replicas[w] = make([][]T, 0, maxR)
		ar.replWorkers[w] = make([]int, 0, maxR)
	}
	ar.distorted = make([]int, poolWidth)
	ar.degraded = make([]int, poolWidth)
	ar.dropped = make([]int, poolWidth)
	ar.voteErrs = make([]error, poolWidth)
	return ar
}
