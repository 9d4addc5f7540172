// Package attack implements the Byzantine attack models evaluated in
// Sec. 6.1 of the paper — ALIE (Baruch et al. 2019), Constant, and
// Reversed gradient — plus a random-Gaussian attack used for
// ablations. (The registry's "sign-flip" is Reversed at C = 1: negating
// every coordinate's sign is negating the gradient.) The omniscient
// worst-case *placement* of the Byzantines (which q workers to corrupt)
// is computed by internal/distort; this package decides what the
// corrupted workers send.
//
// All colluding Byzantines return bit-identical crafted vectors for a
// given file, which is optimal under majority voting: on files where
// they hold at least r' replicas the crafted value wins the vote; on all
// other files their value is discarded regardless.
package attack

import (
	"math/rand"

	"byzshield/internal/linalg"
)

// Context carries the omniscient view of a training round that attacks
// may exploit.
type Context struct {
	// Round is the iteration number.
	Round int
	// Dim is the gradient dimension.
	Dim int
	// FileGradients holds the true (honest) gradient sum of every file,
	// indexed by file id. Attacks must not modify these.
	FileGradients [][]float64
	// CorruptibleFiles lists the files whose majority vote the
	// Byzantine set controls this round.
	CorruptibleFiles []int
	// Participants is the number of operands the post-vote aggregator
	// will see (f for redundancy schemes, K for the baseline).
	Participants int
	// ExpectedCorrupted is how many of those operands the adversary
	// controls (c_max for redundancy schemes, q for the baseline).
	ExpectedCorrupted int
	// FileSize is the average number of samples per file, used to scale
	// constant payloads to gradient-sum magnitude.
	FileSize float64
	// Rng provides per-round deterministic randomness. Attacks draw
	// from it through Rand, which seeds it first when the round's owner
	// deferred the seeding (AdversaryOf does).
	Rng *rand.Rand
	// Scratch is where the round's crafted vectors are built. A caller
	// that keeps one across rounds pays no allocation per round; nil makes
	// BeginRound start a fresh one.
	Scratch *Scratch

	// seed, when seedPending, is the seed Rng takes before the round's
	// first draw.
	seed        int64
	seedPending bool
}

// Rand returns the round's random source, seeding it first if the
// round's seed is still pending. Only attacks that draw pay for the
// seeding; the stream is that of a generator freshly built for the
// round either way.
func (ctx *Context) Rand() *rand.Rand {
	if ctx.seedPending {
		ctx.seedPending = false
		ctx.Rng.Seed(ctx.seed)
	}
	return ctx.Rng
}

// scratch returns ctx.Scratch, starting one if the caller brought none.
func (ctx *Context) scratch() *Scratch {
	if ctx.Scratch == nil {
		ctx.Scratch = new(Scratch)
	}
	return ctx.Scratch
}

// Crafter maps a file id and its honest gradient to the adversarial
// vector the Byzantines return for that file. The vector is a view into
// the round's Scratch: it stays valid until the next BeginRound on that
// Scratch and must not be written.
type Crafter func(file int, honest []float64) []float64

// Attack is a Byzantine payload generator.
type Attack interface {
	// Name identifies the attack in reports.
	Name() string
	// BeginRound inspects the round context and returns the crafter
	// used for every Byzantine-held file this round.
	BeginRound(ctx *Context) Crafter
}

// Scratch holds the buffers crafted vectors live in — moment-estimation
// vectors, a payload shared by every file, per-file payloads — and the
// two crafters every attack is an instance of, built once. One Scratch
// serves one adversary (sharing it would race); once it is warm a round
// start allocates nothing.
type Scratch struct {
	mu, sigma, payload []float64
	fileBufs           map[int][]float64
	scale              float64
	shared, scaled     Crafter
}

// grow resizes *p to n, reusing capacity, and returns it.
func grow(p *[]float64, n int) []float64 {
	if cap(*p) < n {
		*p = make([]float64, n)
	}
	*p = (*p)[:n]
	return *p
}

// fileBuf returns a persistent per-file buffer of length n. The
// Byzantine file set is static per run, so after the first round every
// file hits its cached buffer.
func (s *Scratch) fileBuf(file, n int) []float64 {
	if s.fileBufs == nil {
		s.fileBufs = make(map[int][]float64)
	}
	b := s.fileBufs[file]
	if cap(b) < n {
		b = make([]float64, n)
	}
	b = b[:n]
	s.fileBufs[file] = b
	return b
}

// sharedPayload is the crafter of the attacks that ignore the honest
// gradient: every file gets s.payload, which the caller fills. Colluders
// returning one buffer is exactly the attack's optimum under majority
// voting — bit-identical replicas.
func (s *Scratch) sharedPayload() Crafter {
	if s.shared == nil {
		s.shared = func(int, []float64) []float64 { return s.payload }
	}
	return s.shared
}

// scaledHonest is the crafter of the attacks that are a multiple of the
// honest gradient: k·g into the file's own buffer.
func (s *Scratch) scaledHonest(k float64) Crafter {
	s.scale = k
	if s.scaled == nil {
		s.scaled = func(file int, honest []float64) []float64 {
			out := s.fileBuf(file, len(honest))
			for i, v := range honest {
				out[i] = s.scale * v
			}
			return out
		}
	}
	return s.scaled
}

// Benign is the no-attack control: Byzantine workers behave honestly.
type Benign struct{}

// Name implements Attack.
func (Benign) Name() string { return "benign" }

// BeginRound implements Attack.
func (Benign) BeginRound(ctx *Context) Crafter { return ctx.scratch().scaledHonest(1) }

// Reversed is the reversed-gradient attack: Byzantines return −C·g
// instead of the true gradient g. The paper calls it the weakest of the
// three evaluated attacks.
type Reversed struct {
	// C is the (positive) magnitude multiplier; 0 means 1.
	C float64
}

// Name implements Attack.
func (r Reversed) Name() string { return "reversed-gradient" }

// BeginRound implements Attack.
func (r Reversed) BeginRound(ctx *Context) Crafter {
	c := r.C
	if c == 0 {
		c = 1
	}
	return ctx.scratch().scaledHonest(-c)
}

// Constant sends a constant matrix with all elements equal to Value
// (scaled by the file size so the payload has gradient-sum magnitude).
type Constant struct {
	// Value is the per-element constant; 0 means −1 (a fixed wrong
	// direction, following the DETOX evaluation).
	Value float64
	// ScaleByFileSize multiplies the payload by the average samples per
	// file so its norm matches gradient sums rather than means.
	ScaleByFileSize bool
}

// Name implements Attack.
func (c Constant) Name() string { return "constant" }

// BeginRound implements Attack.
func (c Constant) BeginRound(ctx *Context) Crafter {
	v := c.Value
	if v == 0 {
		v = -1
	}
	if c.ScaleByFileSize && ctx.FileSize > 0 {
		v *= ctx.FileSize
	}
	s := ctx.scratch()
	payload := grow(&s.payload, ctx.Dim)
	for i := range payload {
		payload[i] = v
	}
	return s.sharedPayload()
}

// ALIE is "A Little Is Enough" (Baruch et al. 2019): the Byzantines
// estimate the per-coordinate mean µ and standard deviation σ of the
// honest operand population and send µ − z·σ, with z chosen as large as
// possible while remaining inside the range that defenders consider
// plausible. This shifts medians and defeats distance-based defenses
// without large norms — the paper calls it the most sophisticated
// centralized attack in the literature.
type ALIE struct {
	// ZOverride fixes z; when 0, z is derived from the population sizes
	// via the normal quantile as in the original attack.
	ZOverride float64
}

// Name implements Attack.
func (ALIE) Name() string { return "alie" }

// ZMax computes the original attack's z for n total operands of which m
// are Byzantine: s = ⌊n/2+1⌋ − m supporters needed from the honest side,
// z = Φ⁻¹((n−m−s)/(n−m)). The result is clamped to [0.3, 3.5] to keep
// the payload stealthy in degenerate regimes (m ≥ half, tiny n).
func ZMax(n, m int) float64 {
	if n <= m || n <= 0 {
		return 1
	}
	s := n/2 + 1 - m
	num := float64(n - m - s)
	den := float64(n - m)
	p := num / den
	z := 1.0
	if p > 0 && p < 1 {
		z = linalg.NormalQuantile(p)
	} else if p >= 1 {
		z = 3.5
	}
	if z < 0.3 {
		z = 0.3
	}
	if z > 3.5 {
		z = 3.5
	}
	return z
}

// BeginRound implements Attack: the moments of the omniscient view's
// file gradients, then µ − z·σ into the shared payload.
func (a ALIE) BeginRound(ctx *Context) Crafter {
	s := ctx.scratch()
	mu, sigma := grow(&s.mu, ctx.Dim), grow(&s.sigma, ctx.Dim)
	linalg.MomentsInto(mu, sigma, ctx.FileGradients)
	z := a.ZOverride
	if z == 0 {
		z = ZMax(ctx.Participants, ctx.ExpectedCorrupted)
	}
	payload := grow(&s.payload, ctx.Dim)
	for i := range payload {
		payload[i] = mu[i] - z*sigma[i]
	}
	return s.sharedPayload()
}

// RandomGaussian sends N(0, Scale²) noise, refreshed per round but
// deterministic given the context rng. Used in ablations.
type RandomGaussian struct {
	// Scale is the per-coordinate standard deviation; 0 means 1.
	Scale float64
}

// Name implements Attack.
func (RandomGaussian) Name() string { return "random-gaussian" }

// BeginRound implements Attack.
func (g RandomGaussian) BeginRound(ctx *Context) Crafter {
	scale := g.Scale
	if scale == 0 {
		scale = 1
	}
	if ctx.Rng == nil {
		panic("attack: RandomGaussian requires Context.Rng")
	}
	rng, s := ctx.Rand(), ctx.scratch()
	payload := grow(&s.payload, ctx.Dim)
	for i := range payload {
		payload[i] = rng.NormFloat64() * scale
	}
	return s.sharedPayload()
}
