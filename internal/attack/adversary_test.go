package attack

import (
	"math/rand"
	"slices"
	"testing"

	"byzshield/internal/assign"
	"byzshield/internal/linalg"
)

// adversaryRows is a fixed omniscient view: file v's gradient is
// (v, v+½, v+1).
func adversaryRows[T linalg.Float](f int) [][]T {
	rows := make([][]T, f)
	for v := range rows {
		rows[v] = []T{T(v), T(v) + 0.5, T(v) + 1}
	}
	return rows
}

// TestAdversaryCoalitionView: the adversary derives, from the assignment
// and the coalition alone, the files it crafts (the coalition's union,
// ascending) and the files it controls (a majority of the replicas), and
// crafts the same vectors at either width — float32's being the
// narrowing of float64's.
func TestAdversaryCoalitionView(t *testing.T) {
	asn, err := assign.MOLS(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	holders := asn.FileWorkers(7)
	coalition := []int{holders[2], holders[0]}
	a64, err := NewAdversaryOf[float64](Reversed{C: 2}, asn, coalition, 3, 1, 50)
	if err != nil {
		t.Fatal(err)
	}
	a32, err := NewAdversaryOf[float32](Reversed{C: 2}, asn, coalition, 3, 1, 50)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{holders[0], holders[2]}; !slices.Equal(a64.Coalition, want) {
		t.Errorf("coalition %v, want %v", a64.Coalition, want)
	}
	files := slices.Concat(asn.WorkerFiles(holders[0]), asn.WorkerFiles(holders[2]))
	slices.Sort(files)
	if files = slices.Compact(files); !slices.Equal(a64.Files, files) {
		t.Errorf("files %v, want %v", a64.Files, files)
	}
	// Two MOLS workers share at most one file.
	if !slices.Equal(a64.Corruptible, []int{7}) {
		t.Errorf("corruptible %v, want [7]", a64.Corruptible)
	}
	c64 := a64.Craft(4, adversaryRows[float64](asn.F))
	c32 := a32.Craft(4, adversaryRows[float32](asn.F))
	for _, v := range files {
		x := float64(v)
		if want := []float64{-2 * x, -2*x - 1, -2*x - 2}; !slices.Equal(c64[v], want) {
			t.Errorf("file %d: crafted %v, want %v", v, c64[v], want)
		}
		if !linalg.EqualBits(c32[v], linalg.Narrow[float32](nil, c64[v])) {
			t.Errorf("file %d: float32 crafted %v, float64 %v", v, c32[v], c64[v])
		}
	}
	for _, bad := range [][]int{{0, 15}, {-1}, {3, 3}} {
		if _, err := NewAdversaryOf[float64](Benign{}, asn, bad, 3, 1, 50); err == nil {
			t.Errorf("coalition %v accepted", bad)
		}
	}
}

// TestAdversaryRoundStream: round t's draws are those of a generator
// freshly seeded with seed + 7919·t, whatever rounds ran before it and
// however many of them drew. The seeding waits for the round's first
// draw, so a round of an attack that draws nothing leaves the stream of
// the next drawing round unchanged.
func TestAdversaryRoundStream(t *testing.T) {
	asn, err := assign.MOLS(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	const seed, dim = 11, 3
	rows := adversaryRows[float64](asn.F)
	gauss, err := NewAdversaryOf[float64](RandomGaussian{Scale: 2}, asn, []int{0, 4}, dim, seed, 50)
	if err != nil {
		t.Fatal(err)
	}
	want := func(round int) []float64 {
		rng := rand.New(rand.NewSource(seed + int64(round)*7919))
		out := make([]float64, dim)
		for i := range out {
			out[i] = rng.NormFloat64() * 2
		}
		return out
	}
	v := gauss.Files[0]
	for _, round := range []int{5, 2, 5, 0} {
		if got := gauss.Craft(round, rows)[v]; !linalg.EqualBits(got, want(round)) {
			t.Errorf("round %d: crafted %v, want %v", round, got, want(round))
		}
	}
	// A round that never draws leaves the seed pending; the next
	// drawing round replaces it with its own.
	gauss.attack = ALIE{}
	gauss.Craft(3, rows)
	gauss.attack = RandomGaussian{Scale: 2}
	if got := gauss.Craft(6, rows)[v]; !linalg.EqualBits(got, want(6)) {
		t.Errorf("round 6 after a non-drawing round: crafted %v, want %v", got, want(6))
	}
}
