package vote

import (
	"math"
	"math/rand"
	"testing"
)

// makeReplicaSet builds a replica multiset with a known strict-plurality
// winner: winnerCount copies of one vector plus smaller groups of
// distinct losers. Returns the replicas and the winner vector.
func makeReplicaSet(rng *rand.Rand, dim, winnerCount int, loserCounts []int) ([][]float64, []float64) {
	vec := func(tag float64) []float64 {
		v := make([]float64, dim)
		for i := range v {
			v[i] = rng.NormFloat64() + tag
		}
		return v
	}
	winner := vec(0)
	var replicas [][]float64
	for i := 0; i < winnerCount; i++ {
		replicas = append(replicas, winner)
	}
	for g, c := range loserCounts {
		loser := vec(float64(g+1) * 100)
		for i := 0; i < c; i++ {
			replicas = append(replicas, loser)
		}
	}
	return replicas, winner
}

// TestMajorityWinnerInvariantUnderPermutation: when a strict plurality
// exists, the elected value (and its count and unanimity) must not
// depend on the order replicas arrive in.
func TestMajorityWinnerInvariantUnderPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		winnerCount := 2 + rng.Intn(4)
		var losers []int
		for rem := rng.Intn(3); rem > 0; rem-- {
			losers = append(losers, 1+rng.Intn(winnerCount-1))
		}
		replicas, winner := makeReplicaSet(rng, 1+rng.Intn(6), winnerCount, losers)
		for perm := 0; perm < 10; perm++ {
			rng.Shuffle(len(replicas), func(i, j int) {
				replicas[i], replicas[j] = replicas[j], replicas[i]
			})
			res, err := Majority(replicas)
			if err != nil {
				t.Fatal(err)
			}
			if !equalVec(res.Winner, winner) {
				t.Fatalf("trial %d perm %d: wrong winner elected", trial, perm)
			}
			if res.Count != winnerCount {
				t.Fatalf("trial %d: count %d, want %d", trial, res.Count, winnerCount)
			}
			if res.Tied {
				t.Fatalf("trial %d: strict plurality reported as tied", trial)
			}
			if res.Unanimous != (len(losers) == 0) {
				t.Fatalf("trial %d: unanimous = %v with %d loser groups", trial, res.Unanimous, len(losers))
			}
		}
	}
}

// TestMajorityUnanimityDetection: identical replicas are unanimous, for
// any replica count.
func TestMajorityUnanimityDetection(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 2, 3, 5, 9, 17, 31} {
		v := make([]float64, 16)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		replicas := make([][]float64, n)
		for i := range replicas {
			replicas[i] = v
		}
		res, err := Majority(replicas)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Unanimous || res.Count != n || res.Tied {
			t.Fatalf("n=%d: exact vote on identical replicas: %+v", n, res)
		}
	}
}

// TestMajoritySmallAgreesWithHashPath cross-validates the two Majority
// implementations: padding a replica set past the small-n cutoff with
// singleton losers must elect the same winner value with the same count.
func TestMajoritySmallAgreesWithHashPath(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		dim := 1 + rng.Intn(5)
		winnerCount := 3 + rng.Intn(3)
		small, winner := makeReplicaSet(rng, dim, winnerCount, []int{1, 2})
		if len(small) > smallN {
			t.Fatal("setup: small set too large")
		}
		resSmall, err := Majority(small)
		if err != nil {
			t.Fatal(err)
		}
		// The same multiset plus distinct singleton losers (count 1 <
		// winnerCount) must not change the winner, and forces the hash
		// fallback path.
		large := append([][]float64(nil), small...)
		for len(large) <= smallN {
			v := make([]float64, dim)
			for i := range v {
				v[i] = rng.NormFloat64() + 1e6
			}
			large = append(large, v)
		}
		resLarge, err := Majority(large)
		if err != nil {
			t.Fatal(err)
		}
		if !equalVec(resSmall.Winner, winner) || !equalVec(resLarge.Winner, winner) {
			t.Fatalf("trial %d: paths disagree on winner", trial)
		}
		if resSmall.Count != winnerCount || resLarge.Count != winnerCount {
			t.Fatalf("trial %d: counts %d/%d, want %d", trial, resSmall.Count, resLarge.Count, winnerCount)
		}
	}
}

// TestMajorityNaNReplicas: bit-pattern equality means NaN-poisoned
// replicas still vote deterministically (NaN == NaN by bits), so a
// Byzantine NaN payload cannot crash or bias the election beyond its
// replica count.
func TestMajorityNaNReplicas(t *testing.T) {
	nan := math.NaN()
	honest := []float64{1, 2, 3}
	replicas := [][]float64{{nan, nan, nan}, honest, honest}
	res, err := Majority(replicas)
	if err != nil {
		t.Fatal(err)
	}
	if !equalVec(res.Winner, honest) || res.Count != 2 {
		t.Fatalf("NaN payload beat 2 honest replicas: %+v", res)
	}
}
