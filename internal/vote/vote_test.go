package vote

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMajorityHonestWins(t *testing.T) {
	honest := []float64{1.5, -2.25, 3}
	byz := []float64{9, 9, 9}
	res, err := Majority([][]float64{honest, byz, honest})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 2 || res.Tied || res.Unanimous {
		t.Errorf("result = %+v", res)
	}
	if &res.Winner[0] == &byz[0] || res.Winner[0] != 1.5 {
		t.Errorf("winner = %v", res.Winner)
	}
}

func TestMajorityByzantineMajorityWins(t *testing.T) {
	// When r' of r replicas collude, they control the vote — this is
	// exactly the distortion event the assignment schemes minimize.
	honest := []float64{1}
	byz := []float64{-1}
	res, err := Majority([][]float64{byz, honest, byz})
	if err != nil {
		t.Fatal(err)
	}
	if res.Winner[0] != -1 || res.Count != 2 {
		t.Errorf("result = %+v", res)
	}
}

func TestMajorityUnanimous(t *testing.T) {
	g := []float64{2, 4}
	res, err := Majority([][]float64{g, g, g})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Unanimous || res.Count != 3 || res.Tied {
		t.Errorf("result = %+v", res)
	}
}

func TestMajorityTieDeterministic(t *testing.T) {
	a := []float64{1}
	b := []float64{2}
	res, err := Majority([][]float64{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Tied {
		t.Error("tie not reported")
	}
	if res.Winner[0] != 1 {
		t.Errorf("tie winner = %v, want first-seen candidate", res.Winner)
	}
	// Order flip: winner follows first appearance.
	res2, err := Majority([][]float64{b, a})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Winner[0] != 2 {
		t.Errorf("tie winner = %v, want first-seen candidate", res2.Winner)
	}
}

func TestMajorityErrors(t *testing.T) {
	if _, err := Majority(nil); err == nil {
		t.Error("empty replicas accepted")
	}
	if _, err := Majority([][]float64{{1}, {1, 2}}); err == nil {
		t.Error("ragged replicas accepted")
	}
}

func TestMajoritySingleReplica(t *testing.T) {
	res, err := Majority([][]float64{{3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Unanimous || res.Count != 1 || res.Tied {
		t.Errorf("result = %+v", res)
	}
}

func TestMajorityNaNHandling(t *testing.T) {
	// Byzantine workers may return NaNs; identical NaN payloads must
	// count as equal votes rather than splitting.
	nanVec := []float64{math.NaN()}
	honest := []float64{1}
	res, err := Majority([][]float64{nanVec, nanVec, honest})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 2 || !math.IsNaN(res.Winner[0]) {
		t.Errorf("result = %+v", res)
	}
}

// Property: when strictly more than half the replicas are the identical
// honest vector, the honest vector always wins — the invariant that
// makes r' = ⌊r/2⌋+1 the distortion threshold.
func TestQuickHonestMajorityAlwaysWins(t *testing.T) {
	prop := func(rRaw, byzRaw uint8, hv, bv float64) bool {
		r := 3 + 2*(int(rRaw)%4) // r in {3,5,7,9}
		honestCount := r/2 + 1 + int(byzRaw)%(r/2+1)
		if honestCount > r {
			honestCount = r
		}
		if math.IsNaN(hv) || math.IsInf(hv, 0) {
			hv = 1
		}
		if math.IsNaN(bv) || math.IsInf(bv, 0) || bv == hv {
			bv = hv + 1
		}
		honest := []float64{hv}
		replicas := make([][]float64, 0, r)
		for i := 0; i < honestCount; i++ {
			replicas = append(replicas, honest)
		}
		for i := honestCount; i < r; i++ {
			replicas = append(replicas, []float64{bv})
		}
		res, err := Majority(replicas)
		if err != nil {
			return false
		}
		return res.Winner[0] == hv && res.Count == honestCount && !res.Tied
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func BenchmarkMajority5x1000(b *testing.B) {
	replicas := make([][]float64, 5)
	base := make([]float64, 1000)
	for i := range base {
		base[i] = float64(i)
	}
	for i := range replicas {
		replicas[i] = base
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Majority(replicas); err != nil {
			b.Fatal(err)
		}
	}
}
