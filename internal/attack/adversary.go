package attack

import (
	"fmt"
	"math/rand"
	"slices"

	"byzshield/internal/assign"
	"byzshield/internal/linalg"
)

// AdversaryOf is the paper's omniscient adversary for one run at element
// width T: a coalition of workers that knows the assignment and every
// file's honest gradient, and returns one crafted vector per file it
// holds. Both execution planes craft through it — the in-process engine
// once per round for the whole coalition, every Byzantine worker process
// of a TCP fleet for itself — and because everything it reads is a
// deterministic function of the run's configuration and the round's
// parameters, all of them arrive at the same bits.
type AdversaryOf[T linalg.Float] struct {
	// Coalition is the Byzantine worker set, ascending.
	Coalition []int
	// Files is the ascending union of the coalition's files: the files a
	// round crafts, in the order it crafts them, which keeps an attack
	// that draws from the round's Rng per file deterministic.
	Files []int
	// Corruptible lists the files whose majority vote the coalition
	// controls (at least R/2+1 of the replicas), ascending.
	Corruptible []int

	attack Attack
	seed   int64
	ctx    Context
	scr    Scratch
	// Attacks read and write float64 at either width: wide is the
	// widened view of the true gradients and narrowed[v] the crafted
	// vector of file v narrowed back (both unused at T = float64, where
	// the views are the vectors themselves). crafted is Craft's result.
	wide     [][]float64
	narrowed [][]T
	crafted  [][]T
}

// NewAdversaryOf builds the adversary running atk from the workers in
// coalition, for a model of dim parameters trained on batches of
// batchSize samples. seed is the run's seed: round t's Rng is seeded
// with seed + 7919·t.
func NewAdversaryOf[T linalg.Float](atk Attack, asn *assign.Assignment, coalition []int, dim int, seed int64, batchSize int) (*AdversaryOf[T], error) {
	a := &AdversaryOf[T]{
		Coalition: slices.Clone(coalition),
		attack:    atk,
		seed:      seed,
		narrowed:  make([][]T, asn.F),
		crafted:   make([][]T, asn.F),
	}
	slices.Sort(a.Coalition)
	held := make([]int, asn.F)
	for i, u := range a.Coalition {
		if u < 0 || u >= asn.K {
			return nil, fmt.Errorf("attack: byzantine worker %d out of range [0,%d)", u, asn.K)
		}
		if i > 0 && u == a.Coalition[i-1] {
			return nil, fmt.Errorf("attack: byzantine worker %d listed twice", u)
		}
		for _, v := range asn.WorkerFiles(u) {
			held[v]++
		}
	}
	for v, n := range held {
		if n > 0 {
			a.Files = append(a.Files, v)
		}
		if n >= asn.R/2+1 {
			a.Corruptible = append(a.Corruptible, v)
		}
	}
	if a.wide = linalg.NewWideRows[T](asn.F, dim); a.wide != nil {
		flat := make([]T, len(a.Files)*dim)
		for i, v := range a.Files {
			a.narrowed[v] = flat[i*dim : (i+1)*dim : (i+1)*dim]
		}
	}
	a.ctx = Context{
		Dim:               dim,
		CorruptibleFiles:  a.Corruptible,
		Participants:      asn.K,
		ExpectedCorrupted: len(a.Coalition),
		FileSize:          float64(batchSize) / float64(asn.F),
		Rng:               rand.New(rand.NewSource(seed)),
		Scratch:           &a.scr,
	}
	return a, nil
}

// Craft returns round iter's crafted vectors indexed by file id (only
// the entries of Files are meaningful), given the honest gradient of
// every file. ALIE-style attacks see the worker-level population — n = K
// workers of which the coalition is Byzantine — matching the paper's
// attack model. Every member of the coalition reports crafted[v] for
// its file v, so colluding replicas agree bit for bit; a vector the
// attack shares between files narrows to the same bits in each. The
// result is valid until the next Craft and allocates nothing once warm.
func (a *AdversaryOf[T]) Craft(iter int, trueGrads [][]T) [][]T {
	// Reseeding resets the source and the normal-draw cache: the stream
	// is that of a generator freshly built for the round. It is left to
	// the round's first draw (Context.Rand), so an attack that never
	// draws never pays for it.
	a.ctx.seed, a.ctx.seedPending = a.seed+int64(iter)*7919, true
	a.ctx.Round = iter
	a.ctx.FileGradients = linalg.WidenRows(a.wide, trueGrads)
	craft := a.attack.BeginRound(&a.ctx)
	for _, v := range a.Files {
		a.crafted[v] = linalg.Narrow(a.narrowed[v], craft(v, a.ctx.FileGradients[v]))
	}
	return a.crafted
}
