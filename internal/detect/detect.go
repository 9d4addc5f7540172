// Package detect implements the parameter server's Byzantine detection
// and reputation layer: a subsystem that runs between gradient
// collection and aggregation, derives two per-worker features each
// round (report norm and cosine to the coordinate-wise median report),
// keeps their robust per-round z-scores in fixed ring buffers, and
// feeds those to a pluggable Detector. Flagged workers lose reputation
// through an exponential moving average; a worker whose reputation
// stays below the blacklist floor after enough observed rounds is
// blacklisted permanently — the engine then excludes it from every
// later round and the TCP server refuses its rejoin token with a typed
// rejection.
//
// The layer is deterministic and width-invariant: features derive only
// from the per-worker summed reports (each computed in fixed file
// order), the per-round statistics use medians and median absolute
// deviations (so Byzantine contamination cannot recenter the scale the
// way mean/std statistics would), and every buffer is preallocated for
// the cluster size — steady state allocates nothing. Serial, pooled,
// and TCP-loopback runs therefore observe bit-identical feature
// streams and make identical flagging decisions.
package detect

import (
	"math"
	"sort"
)

// The detection policy. It is fixed: a worker's history ring holds its
// last window rounds; its reputation is an EMA with the given decay
// toward 0 on a flagged round and toward 1 otherwise; it is blacklisted
// once it has been observed minRounds times with a reputation below
// blacklistBelow. A worker flagged on every round from its first
// observation drops below the floor on its 7th (0.9^7 ≈ 0.48) and is
// blacklisted on its 10th, when the minRounds gate opens. The zscore
// detector flags a window score above zscoreCutoff, the cluster
// detector a minority whose 2-means center lies more than
// kmeansSeparation from the majority's.
const (
	window           = 8
	minRounds        = 10
	decay            = 0.9
	blacklistBelow   = 0.5
	zscoreCutoff     = 3.0
	kmeansSeparation = 2.0
)

// Sample is one round's feature z-scores for one worker: the robust
// z-scores, across the live fleet, of its summed report's norm and of
// that report's cosine to the live fleet's coordinate-wise median
// report.
type Sample struct {
	NormZ, CosZ float64
}

// Detector flags suspicious workers from their history windows. live
// lists the worker ids observed this round (ascending); flags is
// indexed by worker id and pre-cleared — a detector only sets entries
// to true. Implementations must be deterministic and must not retain
// the slices.
type Detector interface {
	Name() string
	Flag(st *State, live []int, flags []bool)
}

// None is the detection-free control: nothing is ever flagged, every
// reputation stays 1, nobody is blacklisted.
type None struct{}

// Name implements Detector.
func (None) Name() string { return "none" }

// Flag implements Detector.
func (None) Flag(*State, []int, []bool) {}

// IsNone reports whether d is the detection-free control (or nil), so
// callers can skip the feature pipeline entirely.
func IsNone(d Detector) bool {
	if d == nil {
		return true
	}
	_, ok := d.(None)
	return ok
}

// State is the reputation layer's per-run state for a K-worker cluster
// with gradient dimension dim. All buffers are allocated once; Observe
// and the accessors allocate nothing.
type State struct {
	k, dim int

	reports [][]float64 // k × dim summed reports, views into one backing
	present []bool      // worker reported this round

	median []float64 // coordinate-wise median report of the live fleet
	col    []float64 // per-coordinate scratch column (≤ k values)

	hist    []Sample // k × window flat ring buffers
	histLen []int
	histPos []int
	rounds  []int // observations per worker

	rep     []float64
	flagged []bool
	black   []bool

	// per-round scratch, indexed parallel to live
	featNorm, featCos []float64
	featNZ, featCZ    []float64
	featScratch       []float64

	live        []int
	flaggedList []int
	newBlack    []int
	blackList   []int

	// 2-means scratch for the cluster detector
	kmPts    [][2]float64
	kmAssign []int

	// ins is the optional observability hook (see obs.go); nil when
	// metrics are off.
	ins *Instruments
}

// NewState allocates the reputation layer for k workers and gradient
// dimension dim.
func NewState(k, dim int) *State {
	s := &State{
		k: k, dim: dim,
		present:     make([]bool, k),
		median:      make([]float64, dim),
		col:         make([]float64, 0, k),
		hist:        make([]Sample, k*window),
		histLen:     make([]int, k),
		histPos:     make([]int, k),
		rounds:      make([]int, k),
		rep:         make([]float64, k),
		flagged:     make([]bool, k),
		black:       make([]bool, k),
		featNorm:    make([]float64, k),
		featCos:     make([]float64, k),
		featNZ:      make([]float64, k),
		featCZ:      make([]float64, k),
		featScratch: make([]float64, 0, k),
		live:        make([]int, 0, k),
		flaggedList: make([]int, 0, k),
		newBlack:    make([]int, 0, k),
		blackList:   make([]int, 0, k),
		kmPts:       make([][2]float64, 0, k),
		kmAssign:    make([]int, k),
	}
	backing := make([]float64, k*dim)
	s.reports = make([][]float64, k)
	for u := 0; u < k; u++ {
		s.reports[u] = backing[u*dim : (u+1)*dim : (u+1)*dim]
		s.rep[u] = 1
	}
	return s
}

// K returns the cluster size the state was allocated for.
func (s *State) K() int { return s.k }

// BeginRound resets the per-round presence marks. Call once before the
// workers' reports are summed in.
func (s *State) BeginRound() {
	for u := range s.present {
		s.present[u] = false
	}
}

// Report marks worker u present and returns its zeroed report buffer
// for the caller to sum file gradients into. Distinct workers' Report
// calls may run concurrently (each touches only its own row).
func (s *State) Report(u int) []float64 {
	s.present[u] = true
	r := s.reports[u]
	for i := range r {
		r[i] = 0
	}
	return r
}

// Observe runs one detection round: it computes the live fleet's median
// report and per-worker features, pushes them into the history rings,
// asks det to flag outliers, updates reputations, and blacklists
// persistent offenders. Call after every worker's Report is filled.
func (s *State) Observe(det Detector) {
	live := s.live[:0]
	for u := 0; u < s.k; u++ {
		if s.present[u] && !s.black[u] {
			live = append(live, u)
		}
	}
	s.live = live
	s.flaggedList = s.flaggedList[:0]
	s.newBlack = s.newBlack[:0]
	for u := range s.flagged {
		s.flagged[u] = false
	}
	if len(live) == 0 {
		return
	}

	for j := 0; j < s.dim; j++ {
		col := s.col[:0]
		for _, u := range live {
			col = append(col, s.reports[u][j])
		}
		s.col = col
		s.median[j] = medianInPlace(col)
	}

	medNorm := norm(s.median)
	for i, u := range live {
		r := s.reports[u]
		n := norm(r)
		cos := 1.0
		if n > 0 && medNorm > 0 {
			cos = dot(r, s.median) / (n * medNorm)
		}
		s.featNorm[i] = n
		s.featCos[i] = cos
	}
	s.robustZ(s.featNorm[:len(live)], s.featNZ)
	s.robustZ(s.featCos[:len(live)], s.featCZ)

	for i, u := range live {
		s.push(u, Sample{NormZ: s.featNZ[i], CosZ: s.featCZ[i]})
		s.rounds[u]++
	}

	det.Flag(s, live, s.flagged)

	for _, u := range live {
		target := 1.0
		if s.flagged[u] {
			target = 0
			s.flaggedList = append(s.flaggedList, u)
		}
		s.rep[u] = decay*s.rep[u] + (1-decay)*target
		if !s.black[u] && s.rounds[u] >= minRounds && s.rep[u] < blacklistBelow {
			s.black[u] = true
			s.newBlack = append(s.newBlack, u)
			s.blackList = append(s.blackList, u)
		}
	}
	s.observeInstruments()
}

// push appends a sample to worker u's ring.
func (s *State) push(u int, smp Sample) {
	s.hist[u*window+s.histPos[u]] = smp
	s.histPos[u] = (s.histPos[u] + 1) % window
	if s.histLen[u] < window {
		s.histLen[u]++
	}
}

// WindowLen returns how many samples worker u's ring currently holds.
func (s *State) WindowLen(u int) int { return s.histLen[u] }

// WindowScore returns the mean over worker u's window of
// max(|NormZ|, |CosZ|) — the scalar outlier score the zscore detector
// thresholds.
func (s *State) WindowScore(u int) float64 {
	n := s.histLen[u]
	if n == 0 {
		return 0
	}
	sum := 0.0
	for i := 0; i < n; i++ {
		smp := s.hist[u*window+i]
		v := math.Abs(smp.NormZ)
		if c := math.Abs(smp.CosZ); c > v {
			v = c
		}
		sum += v
	}
	return sum / float64(n)
}

// WindowMeans returns the window means of |NormZ| and |CosZ| for worker
// u — the 2-D feature point the cluster detector partitions.
func (s *State) WindowMeans(u int) (nz, cz float64) {
	n := s.histLen[u]
	if n == 0 {
		return 0, 0
	}
	for i := 0; i < n; i++ {
		smp := s.hist[u*window+i]
		nz += math.Abs(smp.NormZ)
		cz += math.Abs(smp.CosZ)
	}
	return nz / float64(n), cz / float64(n)
}

// Blacklisted reports whether worker u has been blacklisted.
func (s *State) Blacklisted(u int) bool { return s.black[u] }

// Reputation returns worker u's current reputation in [0, 1].
func (s *State) Reputation(u int) float64 { return s.rep[u] }

// MeanReputation returns the fleet-wide mean reputation (blacklisted
// workers included — their collapsed scores are the signal).
func (s *State) MeanReputation() float64 {
	sum := 0.0
	for _, r := range s.rep {
		sum += r
	}
	return sum / float64(s.k)
}

// Flagged returns the workers flagged in the last Observe, ascending.
// The slice is reused by the next Observe.
func (s *State) Flagged() []int { return s.flaggedList }

// NewlyBlacklisted returns the workers blacklisted by the last Observe,
// ascending. The slice is reused by the next Observe.
func (s *State) NewlyBlacklisted() []int { return s.newBlack }

// Blacklist returns every blacklisted worker in blacklisting order.
func (s *State) Blacklist() []int { return s.blackList }

// BlacklistCount returns the number of blacklisted workers.
func (s *State) BlacklistCount() int { return len(s.blackList) }

// ZCap winsorizes the per-round robust z-scores before they enter the
// history rings. MAD-based scores are unbounded when the fleet is
// tight — right after a blacklist shrinks the fleet, the MAD collapses
// and an honest worker's ordinary deviation can score in the hundreds —
// and one such spike would otherwise dominate its window mean for
// window rounds: enough consecutive flags to decay an honest
// reputation below the blacklist floor. Capped at ZCap, a single spike
// contributes at most ZCap/window = 1.25 to a full window's mean, under
// both detectors' cutoffs, while a persistent attacker still scores
// ZCap ≫ cutoff every round and is flagged on the same rounds as
// before.
const ZCap = 10

// robustZ writes median/MAD z-scores of vals into out[:len(vals)]: the
// deviation from the median, scaled by 1.4826 × the median absolute
// deviation (the consistency constant that makes the MAD estimate σ
// for Gaussian data), winsorized to [−ZCap, ZCap]. A degenerate scale
// (all values equal) yields zero scores rather than infinities, so
// unanimous fleets never flag.
func (s *State) robustZ(vals, out []float64) {
	sc := s.featScratch[:0]
	sc = append(sc, vals...)
	med := medianInPlace(sc)
	sc = sc[:0]
	for _, v := range vals {
		sc = append(sc, math.Abs(v-med))
	}
	mad := 1.4826 * medianInPlace(sc)
	s.featScratch = sc
	for i, v := range vals {
		if mad < 1e-12 {
			out[i] = 0
		} else {
			out[i] = math.Max(-ZCap, math.Min(ZCap, (v-med)/mad))
		}
	}
}

// medianInPlace sorts vals and returns the median (mean of the two
// middle values for even counts). The caller owns vals as scratch.
func medianInPlace(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	n := len(vals)
	if n%2 == 1 {
		return vals[n/2]
	}
	return 0.5 * (vals[n/2-1] + vals[n/2])
}

// norm returns the Euclidean norm of v.
func norm(v []float64) float64 {
	sum := 0.0
	for _, x := range v {
		sum += x * x
	}
	return math.Sqrt(sum)
}

// dot returns the inner product of a and b.
func dot(a, b []float64) float64 {
	sum := 0.0
	for i, x := range a {
		sum += x * b[i]
	}
	return sum
}
