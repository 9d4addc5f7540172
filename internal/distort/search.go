package distort

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"byzshield/internal/assign"
)

// Analyzer computes exact worst-case distortion quantities for a
// concrete assignment. It is safe for concurrent use after construction.
type Analyzer struct {
	asn         *assign.Assignment
	workerFiles [][]int32 // workerFiles[u] = files of worker u
	rPrime      int
}

// NewAnalyzer builds an Analyzer for the assignment.
func NewAnalyzer(a *assign.Assignment) *Analyzer {
	wf := make([][]int32, a.K)
	for u := 0; u < a.K; u++ {
		files := a.WorkerFiles(u)
		row := make([]int32, len(files))
		for i, v := range files {
			row[i] = int32(v)
		}
		wf[u] = row
	}
	return &Analyzer{asn: a, workerFiles: wf, rPrime: MajorityThreshold(a.R)}
}

// Assignment returns the analyzed assignment.
func (an *Analyzer) Assignment() *assign.Assignment { return an.asn }

// DistortedCount returns the number of files whose majority vote is
// flipped when exactly the workers in byz are Byzantine: files with at
// least r' Byzantine replicas.
func (an *Analyzer) DistortedCount(byz []int) int {
	counts := make([]int16, an.asn.F)
	distorted := 0
	for _, u := range byz {
		for _, v := range an.workerFiles[u] {
			counts[v]++
			if int(counts[v]) == an.rPrime {
				distorted++
			}
		}
	}
	return distorted
}

// DistortedFiles returns the sorted list of files whose majority is
// flipped by the Byzantine set byz.
func (an *Analyzer) DistortedFiles(byz []int) []int {
	counts := make([]int16, an.asn.F)
	for _, u := range byz {
		for _, v := range an.workerFiles[u] {
			counts[v]++
		}
	}
	var out []int
	for v, c := range counts {
		if int(c) >= an.rPrime {
			out = append(out, v)
		}
	}
	return out
}

// SearchResult reports the outcome of a worst-case search.
type SearchResult struct {
	Q          int     // number of Byzantine workers
	CMax       int     // maximum number of distorted files found
	Epsilon    float64 // CMax / f
	Byzantines []int   // a maximizing Byzantine set (sorted)
	Nodes      int64   // search-tree nodes visited (exhaustive search only)
	Exact      bool    // true when the search proved optimality
}

// MaxDistortedGreedy finds a strong Byzantine set by greedy ascent:
// repeatedly add the worker that maximizes newly distorted files, with
// total coverage progress toward r' as tiebreak. Runs in O(q·K·l). The
// result is a lower bound on c_max(q) — used directly for large
// instances and as the initial incumbent for branch-and-bound.
func (an *Analyzer) MaxDistortedGreedy(q int) SearchResult {
	k := an.asn.K
	if q < 0 || q > k {
		panic(fmt.Sprintf("distort: q=%d out of range [0,%d]", q, k))
	}
	counts := make([]int16, an.asn.F)
	chosen := make([]bool, k)
	var byz []int
	distorted := 0
	for pick := 0; pick < q; pick++ {
		bestU, bestNew, bestProg := -1, -1, -1
		for u := 0; u < k; u++ {
			if chosen[u] {
				continue
			}
			newDist, prog := 0, 0
			for _, v := range an.workerFiles[u] {
				c := int(counts[v])
				if c+1 == an.rPrime {
					newDist++
				}
				if c < an.rPrime {
					prog++
				}
			}
			if newDist > bestNew || (newDist == bestNew && prog > bestProg) {
				bestU, bestNew, bestProg = u, newDist, prog
			}
		}
		chosen[bestU] = true
		byz = append(byz, bestU)
		for _, v := range an.workerFiles[bestU] {
			counts[v]++
			if int(counts[v]) == an.rPrime {
				distorted++
			}
		}
	}
	sort.Ints(byz)
	return SearchResult{
		Q: q, CMax: distorted, Epsilon: float64(distorted) / float64(an.asn.F),
		Byzantines: byz, Exact: false,
	}
}

// MaxDistorted computes the exact c_max(q) — the maximum number of files
// an omniscient adversary controlling q workers can distort — by
// parallel branch-and-bound over all C(K, q) worker subsets. The greedy
// solution seeds the incumbent; an admissible bound based on the
// cheapest remaining file completions prunes the tree. ctx cancels the
// search (the best incumbent found so far is returned with Exact=false).
func (an *Analyzer) MaxDistorted(ctx context.Context, q int) SearchResult {
	k := an.asn.K
	if q < 0 || q > k {
		panic(fmt.Sprintf("distort: q=%d out of range [0,%d]", q, k))
	}
	if q == 0 {
		return SearchResult{Q: 0, CMax: 0, Epsilon: 0, Exact: true}
	}
	// Upper bound on any solution: all files distorted.
	seed := an.MaxDistortedGreedy(q)

	shared := &sharedBest{best: seed.CMax, bestSet: append([]int(nil), seed.Byzantines...)}

	// Parallelize over the first chosen worker. Each task owns an
	// independent DFS state.
	numWorkers := runtime.GOMAXPROCS(0)
	if numWorkers > k {
		numWorkers = k
	}
	tasks := make(chan int, k)
	for first := 0; first <= k-q; first++ {
		tasks <- first
	}
	close(tasks)

	var wg sync.WaitGroup
	var nodes int64
	var nodesMu sync.Mutex

	for w := 0; w < numWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := an.newDFSState(q)
			defer func() {
				nodesMu.Lock()
				nodes += st.nodes
				nodesMu.Unlock()
			}()
			for first := range tasks {
				if ctx.Err() != nil {
					return
				}
				st.push(first)
				an.dfs(ctx, st, first+1, q-1, shared)
				st.pop()
			}
		}()
	}
	wg.Wait()

	best, bestSet := shared.snapshot()
	exact := ctx.Err() == nil
	if exact && best > seed.CMax {
		// Which of several maximizing sets the parallel search kept
		// depends on scheduling; name the canonical one instead.
		var extra int64
		bestSet, extra = an.firstMaximizer(q, best)
		nodes += extra
	}
	return SearchResult{
		Q: q, CMax: best, Epsilon: float64(best) / float64(an.asn.F),
		Byzantines: bestSet, Nodes: nodes, Exact: exact,
	}
}

// firstMaximizer returns the lexicographically first q-set of workers
// that distorts cmax files, the proved maximum, and the nodes it
// visited. It is one sequential depth-first search in lexicographic
// order whose bound prunes only the branches that cannot reach cmax
// (<, where branch-and-bound prunes ties with ≤), and it stops at the
// first set that reaches it.
func (an *Analyzer) firstMaximizer(q, cmax int) ([]int, int64) {
	st := an.newDFSState(q)
	k := an.asn.K
	var walk func(start, rem int) bool
	walk = func(start, rem int) bool {
		st.nodes++
		if rem == 0 {
			return st.distorted >= cmax
		}
		if st.distorted+an.optimisticExtra(st, rem) < cmax {
			return false
		}
		for next := start; next <= k-rem; next++ {
			st.push(next)
			st.pushFiles(an, next)
			if walk(next+1, rem-1) {
				return true
			}
			st.popFiles(an, next)
			st.pop()
		}
		return false
	}
	walk(0, q)
	return append([]int(nil), st.chosen...), st.nodes
}

// sharedBest is the cross-goroutine incumbent.
type sharedBest struct {
	mu      sync.Mutex
	best    int
	bestSet []int
}

func (s *sharedBest) read() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.best
}

func (s *sharedBest) offer(v int, set []int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if v > s.best {
		s.best = v
		s.bestSet = append(s.bestSet[:0], set...)
		sort.Ints(s.bestSet)
	}
}

func (s *sharedBest) snapshot() (int, []int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.best, append([]int(nil), s.bestSet...)
}

// dfsState is the per-goroutine mutable search state.
type dfsState struct {
	counts    []int16
	distorted int
	chosen    []int
	needHist  []int // scratch: histogram of remaining needs 1..r'
	nodes     int64
}

func (an *Analyzer) newDFSState(q int) *dfsState {
	return &dfsState{
		counts:   make([]int16, an.asn.F),
		chosen:   make([]int, 0, q),
		needHist: make([]int, an.rPrime+1),
	}
}

func (st *dfsState) pushFiles(an *Analyzer, u int) {
	for _, v := range an.workerFiles[u] {
		st.counts[v]++
		if int(st.counts[v]) == an.rPrime {
			st.distorted++
		}
	}
}

func (st *dfsState) popFiles(an *Analyzer, u int) {
	for _, v := range an.workerFiles[u] {
		if int(st.counts[v]) == an.rPrime {
			st.distorted--
		}
		st.counts[v]--
	}
}

// push/pop are bound to an Analyzer via closure-free helpers below; they
// exist on dfsState for the top-level task loop.
func (st *dfsState) push(u int) { st.chosen = append(st.chosen, u) }
func (st *dfsState) pop()       { st.chosen = st.chosen[:len(st.chosen)-1] }

// dfs explores worker choices start..K-1 with rem picks remaining.
// Precondition: st.chosen/st.counts reflect the current partial set
// EXCEPT the top-level first pick, which push() records without updating
// counts — so dfs applies file effects for the last chosen worker here.
func (an *Analyzer) dfs(ctx context.Context, st *dfsState, start, rem int, shared *sharedBest) {
	// Apply the most recent pick's file effects.
	u := st.chosen[len(st.chosen)-1]
	st.pushFiles(an, u)
	defer st.popFiles(an, u)
	st.nodes++

	if rem == 0 {
		if st.distorted > shared.read() {
			shared.offer(st.distorted, st.chosen)
		}
		return
	}
	if st.distorted+an.optimisticExtra(st, rem) <= shared.read() {
		return // prune: even best case cannot beat incumbent
	}
	if st.nodes%4096 == 0 {
		select {
		case <-ctx.Done():
			return
		default:
		}
	}
	k := an.asn.K
	for next := start; next <= k-rem; next++ {
		st.push(next)
		an.dfs(ctx, st, next+1, rem-1, shared)
		st.pop()
	}
}

// optimisticExtra returns an admissible upper bound on how many more
// files can be distorted with rem further picks: rem·l additional file
// placements, each file v needing r'−counts[v] more (and at most rem
// placements can land on one file). Cheapest completions are taken first.
func (an *Analyzer) optimisticExtra(st *dfsState, rem int) int {
	budget := rem * an.asn.L
	rp := an.rPrime
	hist := st.needHist
	for i := range hist {
		hist[i] = 0
	}
	for _, c := range st.counts {
		need := rp - int(c)
		if need >= 1 && need <= rem {
			hist[need]++
		}
	}
	extra := 0
	for need := 1; need <= rp && budget >= need; need++ {
		n := hist[need]
		if n == 0 {
			continue
		}
		can := budget / need
		if can > n {
			can = n
		}
		extra += can
		budget -= can * need
	}
	return extra
}

// WorstCaseByzantines returns a Byzantine set of size q achieving the
// exact maximum distortion (if exhaustive search completes within ctx)
// or the best set found. This is the omniscient adversary's choice used
// by the training experiments ("we chose the q Byzantines such that ε̂
// is maximized", Sec. 6.1).
func (an *Analyzer) WorstCaseByzantines(ctx context.Context, q int) []int {
	res := an.MaxDistorted(ctx, q)
	return res.Byzantines
}
