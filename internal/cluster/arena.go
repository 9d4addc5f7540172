package cluster

import (
	"byzshield/internal/assign"
	"byzshield/internal/linalg"
	"byzshield/internal/wire"
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
	// grads[u][j] is worker u's compute buffer for its j-th assigned
	// file (views into one flat backing array).
	grads [][][]T
	// cur[u][j] is the gradient the PS sees for (u, j) this round:
	// worker u's own compute buffer for honest workers, the crafted
	// payload for Byzantine workers, or the decoded receive buffer when
	// communication measurement is on.
	cur [][][]T
	// rx[u][j] is the decode-side buffer of the measured communication
	// round-trip (allocated only when MeasureComm is set).
	rx [][][]T
	// fileReplicas[v] lists the (worker, slot) pairs holding file v, in
	// assignment FileWorkers order.
	fileReplicas [][]slotRef
	// trueGrads[v] points at the true (honest) gradient of file v this
	// round — the attack oracle's view.
	trueGrads [][]T
	// oracle[v] is a compute buffer for the files all of whose replicas
	// are Byzantine (nil elsewhere); static per run because the
	// Byzantine set is.
	oracle [][]T
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
	// encBuf and rxFrame are the communication round-trip scratch, and
	// upEnc/upDec the uplink codec pair every worker's frame passes
	// through (the codec is stateless, so one pair serves all workers).
	encBuf  []byte
	rxFrame wire.GradFrameOf[T]
	upEnc   wire.UplinkEncoderOf[T]
	upDec   wire.UplinkDecoderOf[T]
	// quantSeen dedupes shared Byzantine payload buffers inside the
	// lossy quantize-in-place pass (quantization is not idempotent, so
	// each distinct buffer must pass exactly once). Grows on first use.
	quantSeen []*T
}

// newRoundArena preallocates every per-round buffer for the given
// assignment, model dimension, Byzantine set, and pool width.
// fullOracle forces a true-gradient buffer for every file: required
// when worker faults are injected, because any file's live honest
// replicas can then vanish mid-run, leaving the attack oracle (and the
// distorted-vote count) without a borrowed honest buffer to point at.
func newRoundArena[T linalg.Float](a *assign.Assignment, dim int, byzSet map[int]bool, measureComm, fullOracle bool, poolWidth int) *roundArena[T] {
	ar := &roundArena[T]{dim: dim}
	ar.workerFiles = make([][]int, a.K)
	totalSlots := 0
	for u := 0; u < a.K; u++ {
		ar.workerFiles[u] = a.WorkerFiles(u)
		totalSlots += len(ar.workerFiles[u])
	}
	backing := make([]T, totalSlots*dim)
	carve := func() []T {
		b := backing[:dim:dim]
		backing = backing[dim:]
		return b
	}
	ar.grads = make([][][]T, a.K)
	ar.cur = make([][][]T, a.K)
	for u := 0; u < a.K; u++ {
		n := len(ar.workerFiles[u])
		ar.grads[u] = make([][]T, n)
		ar.cur[u] = make([][]T, n)
		for j := 0; j < n; j++ {
			ar.grads[u][j] = carve()
			if !byzSet[u] {
				// Honest workers always report their own buffer; the
				// pointer only changes under measured communication.
				ar.cur[u][j] = ar.grads[u][j]
			}
		}
	}
	if measureComm {
		rxBacking := make([]T, totalSlots*dim)
		ar.rx = make([][][]T, a.K)
		for u := 0; u < a.K; u++ {
			n := len(ar.workerFiles[u])
			ar.rx[u] = make([][]T, n)
			for j := 0; j < n; j++ {
				ar.rx[u][j] = rxBacking[:dim:dim]
				rxBacking = rxBacking[dim:]
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

	ar.oracle = make([][]T, a.F)
	needsOracle := func(v int) bool {
		return fullOracle || allByz(ar.fileReplicas[v], byzSet)
	}
	needOracle := 0
	for v := 0; v < a.F; v++ {
		if needsOracle(v) {
			needOracle++
		}
	}
	if needOracle > 0 {
		oracleBacking := make([]T, needOracle*dim)
		for v := 0; v < a.F; v++ {
			if needsOracle(v) {
				ar.oracle[v] = oracleBacking[:dim:dim]
				oracleBacking = oracleBacking[dim:]
			}
		}
	}

	ar.trueGrads = make([][]T, a.F)
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

// allByz reports whether every replica holder of the file is Byzantine.
func allByz(refs []slotRef, byzSet map[int]bool) bool {
	for _, ref := range refs {
		if !byzSet[ref.worker] {
			return false
		}
	}
	return true
}
