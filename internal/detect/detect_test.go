package detect

import (
	"math"
	"slices"
	"testing"
)

// jitter is a deterministic hash-based perturbation in [-0.5, 0.5):
// varying per worker, coordinate, and round so the honest fleet spreads
// like noise rather than splitting into structured subgroups a robust
// z-score would flag once the scale tightens.
func jitter(u, j, round int) float64 {
	x := uint64(u)*2654435761 ^ uint64(j)*40503 ^ uint64(round)*9176
	x ^= x >> 13
	x *= 0x2545F4914F6CDD1D
	x ^= x >> 35
	return float64(x%1024)/1024 - 0.5
}

// fill sums a synthetic report for worker u into the state: a shared
// base direction with a small noisy perturbation, so the honest fleet
// is tightly aligned but not degenerate (a zero MAD would zero every
// z-score and mask attackers).
func fill(s *State, u, dim, round int, scale float64) {
	r := s.Report(u)
	for j := 0; j < dim; j++ {
		base := 1.0 + 0.1*float64(j)
		r[j] = scale * (base + 0.05*jitter(u, j, round))
	}
}

// TestDefaultsApplied: the fixed policy is the one every run has
// always used by default — an 8-round window, at least 10 observations
// before a blacklist, decay 0.9, floor 0.5, zscore cutoff 3 and 2-means
// separation 2 — and NewState sizes the rings for it.
func TestDefaultsApplied(t *testing.T) {
	if window != 8 || minRounds != 10 || decay != 0.9 || blacklistBelow != 0.5 ||
		zscoreCutoff != 3.0 || kmeansSeparation != 2.0 {
		t.Fatalf("policy (window %d, minRounds %d, decay %v, floor %v, cutoff %v, separation %v) moved",
			window, minRounds, decay, blacklistBelow, zscoreCutoff, kmeansSeparation)
	}
	s := NewState(4, 2)
	if s.K() != 4 {
		t.Fatalf("K() = %d, want 4", s.K())
	}
	if len(s.hist) != 4*window {
		t.Fatalf("%d ring slots, want %d", len(s.hist), 4*window)
	}
}

// TestIsNone: nil and None are the detection-free control; real
// detectors are not.
func TestIsNone(t *testing.T) {
	if !IsNone(nil) || !IsNone(None{}) {
		t.Error("nil and None{} must both be the detection-free control")
	}
	if IsNone(ZScore{}) || IsNone(KMeans{}) {
		t.Error("active detectors misreported as none")
	}
}

// TestUnanimousFleetNeverFlags: when every live worker reports the
// identical gradient, the MAD degenerates and the robust z-scores are
// defined to be zero — neither detector flags anybody and every
// reputation stays exactly 1.
func TestUnanimousFleetNeverFlags(t *testing.T) {
	const k, dim = 8, 4
	for _, det := range []Detector{ZScore{}, KMeans{}} {
		s := NewState(k, dim)
		for round := 0; round < 12; round++ {
			s.BeginRound()
			for u := 0; u < k; u++ {
				r := s.Report(u)
				for j := range r {
					r[j] = 1.5
				}
			}
			s.Observe(det)
			if len(s.Flagged()) != 0 {
				t.Fatalf("%s: round %d flagged %v on a unanimous fleet", det.Name(), round, s.Flagged())
			}
		}
		if s.BlacklistCount() != 0 {
			t.Errorf("%s: unanimous fleet blacklisted %v", det.Name(), s.Blacklist())
		}
		if got := s.MeanReputation(); got != 1 {
			t.Errorf("%s: mean reputation %v, want exactly 1", det.Name(), got)
		}
	}
}

// TestNoneNeverFlags: the control detector ignores even a wildly
// divergent worker.
func TestNoneNeverFlags(t *testing.T) {
	const k, dim = 6, 3
	s := NewState(k, dim)
	for round := 0; round < 15; round++ {
		s.BeginRound()
		for u := 0; u < k; u++ {
			scale := 1.0
			if u == 2 {
				scale = -50
			}
			fill(s, u, dim, round, scale)
		}
		s.Observe(None{})
	}
	if len(s.Flagged()) != 0 || s.BlacklistCount() != 0 {
		t.Errorf("None flagged %v / blacklisted %v", s.Flagged(), s.Blacklist())
	}
	if got := s.MeanReputation(); got != 1 {
		t.Errorf("mean reputation %v under None, want 1", got)
	}
}

// TestZScoreBlacklistsPersistentOutlier: a worker whose report is the
// fleet's reversed-and-scaled gradient every round is flagged from the
// first observation, but blacklisting waits for both the MinRounds
// gate and the reputation EMA to sink below the floor — with the
// defaults (Decay 0.9, floor 0.5, MinRounds 10) that is exactly the
// 10th observation. No honest worker loses any reputation.
func TestZScoreBlacklistsPersistentOutlier(t *testing.T) {
	const k, dim, byz = 8, 4, 3
	s := NewState(k, dim)
	blackAt := -1
	for round := 0; round < 12; round++ {
		s.BeginRound()
		for u := 0; u < k; u++ {
			scale := 1.0
			if u == byz {
				scale = -10
			}
			fill(s, u, dim, round, scale)
		}
		s.Observe(ZScore{})
		if !s.Blacklisted(byz) && !slices.Contains(s.Flagged(), byz) {
			t.Errorf("round %d: persistent outlier not flagged (%v)", round, s.Flagged())
		}
		for _, u := range s.Flagged() {
			if u != byz {
				t.Errorf("round %d: honest worker %d flagged", round, u)
			}
		}
		if nb := s.NewlyBlacklisted(); len(nb) > 0 {
			if blackAt != -1 || len(nb) != 1 || nb[0] != byz {
				t.Fatalf("round %d: unexpected blacklist %v (first at %d)", round, nb, blackAt)
			}
			blackAt = round
		}
	}
	if blackAt != 9 {
		t.Errorf("blacklisted at round %d, want 9 (MinRounds 10, rep 0.9^10 < 0.5)", blackAt)
	}
	if !s.Blacklisted(byz) || s.BlacklistCount() != 1 {
		t.Errorf("blacklist = %v, want exactly [%d]", s.Blacklist(), byz)
	}
	for u := 0; u < k; u++ {
		if u != byz && s.Reputation(u) != 1 {
			t.Errorf("honest worker %d reputation %v, want 1", u, s.Reputation(u))
		}
	}
	if rep := s.Reputation(byz); rep >= 0.5 {
		t.Errorf("outlier reputation %v, want < 0.5", rep)
	}
}

// flagWorkers is a test stub that flags a fixed set of ids whenever
// they are live, isolating the reputation/blacklist state machine from
// any real detector's statistics.
type flagWorkers []int

func (flagWorkers) Name() string { return "stub" }

func (f flagWorkers) Flag(st *State, live []int, flags []bool) {
	for _, u := range f {
		if slices.Contains(live, u) {
			flags[u] = true
		}
	}
}

// TestBlacklistedWorkerLeavesTheFleet: once blacklisted, a worker's
// reports are excluded from the live set — it is never observed, never
// re-flagged, and never blacklisted twice.
func TestBlacklistedWorkerLeavesTheFleet(t *testing.T) {
	const k, dim, byz = 8, 4, 1
	// Flagged every round, the reputation sinks below the floor at the
	// 7th observation; the minRounds gate holds the eviction to the 10th.
	s := NewState(k, dim)
	for round := 0; round < 14; round++ {
		s.BeginRound()
		for u := 0; u < k; u++ {
			fill(s, u, dim, round, 1.0)
		}
		s.Observe(flagWorkers{byz})
		if want := round >= minRounds-1; s.Blacklisted(byz) != want {
			t.Errorf("round %d: Blacklisted(%d) = %v, want %v", round, byz, s.Blacklisted(byz), want)
		}
	}
	if s.BlacklistCount() != 1 {
		t.Fatalf("blacklist %v, want exactly [%d]", s.Blacklist(), byz)
	}
	if slices.Contains(s.Flagged(), byz) {
		t.Error("blacklisted worker still observed and flagged")
	}
	rounds := s.rounds[byz]
	s.BeginRound()
	for u := 0; u < k; u++ {
		fill(s, u, dim, 99, 1.0)
	}
	s.Observe(flagWorkers{byz})
	if s.rounds[byz] != rounds {
		t.Error("blacklisted worker's report entered the observation round")
	}
}

// TestKMeansFlagsPlantedMinority: two colluding workers with sustained
// outlier windows form the minority cluster and are both flagged; the
// honest majority is untouched. With fewer than 4 live points the
// detector abstains entirely.
func TestKMeansFlagsPlantedMinority(t *testing.T) {
	const k, dim = 10, 4
	byz := map[int]bool{2: true, 5: true}
	s := NewState(k, dim)
	for round := 0; round < 8; round++ {
		s.BeginRound()
		for u := 0; u < k; u++ {
			scale := 1.0
			if byz[u] {
				scale = -8
			}
			fill(s, u, dim, round, scale)
		}
		s.Observe(KMeans{})
	}
	flagged := s.Flagged()
	if len(flagged) != len(byz) {
		t.Fatalf("flagged %v, want the planted coalition {2, 5}", flagged)
	}
	for _, u := range flagged {
		if !byz[u] {
			t.Errorf("honest worker %d flagged by the cluster detector", u)
		}
	}

	// Too few live points: abstain.
	small := NewState(3, dim)
	small.BeginRound()
	for u := 0; u < 3; u++ {
		scale := 1.0
		if u == 0 {
			scale = -8
		}
		fill(small, u, dim, 0, scale)
	}
	small.Observe(KMeans{})
	if len(small.Flagged()) != 0 {
		t.Errorf("cluster detector flagged %v with only 3 live points", small.Flagged())
	}
}

// TestReportReturnsZeroedRow: Report hands back a cleared buffer even
// after a previous round filled it, and absent workers stay out of the
// live set.
func TestReportReturnsZeroedRow(t *testing.T) {
	const k, dim = 4, 3
	s := NewState(k, dim)
	s.BeginRound()
	for u := 0; u < k; u++ {
		fill(s, u, dim, 0, 2.0)
	}
	s.Observe(ZScore{})

	s.BeginRound()
	r := s.Report(0)
	for j, v := range r {
		if v != 0 {
			t.Fatalf("Report(0)[%d] = %v, want zeroed scratch", j, v)
		}
	}
	for j := range r {
		r[j] = 1
	}
	s.Report(2)
	s.Observe(ZScore{})
	want := []int{0, 2}
	if !slices.Equal(s.live, want) {
		t.Errorf("live set %v, want %v (absent workers must not be observed)", s.live, want)
	}
	if s.WindowLen(1) != 1 {
		t.Errorf("absent worker 1 window grew to %d, want 1", s.WindowLen(1))
	}
}

// TestWindowScoreTracksRing: the window score is the mean of
// max(|NormZ|, |CosZ|) over the ring and is zero before any
// observation.
func TestWindowScoreTracksRing(t *testing.T) {
	s := NewState(2, 2)
	if s.WindowScore(0) != 0 {
		t.Fatal("window score nonzero before any observation")
	}
	s.push(0, Sample{NormZ: 1, CosZ: -3})
	s.push(0, Sample{NormZ: -2, CosZ: 0})
	want := (3.0 + 2.0) / 2
	if got := s.WindowScore(0); math.Abs(got-want) > 1e-15 {
		t.Errorf("window score %v, want %v", got, want)
	}
	nz, cz := s.WindowMeans(0)
	if math.Abs(nz-1.5) > 1e-15 || math.Abs(cz-1.5) > 1e-15 {
		t.Errorf("window means (%v, %v), want (1.5, 1.5)", nz, cz)
	}
}
