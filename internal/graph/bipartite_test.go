package graph

import (
	"math"
	"testing"
	"testing/quick"

	"byzshield/internal/linalg"
)

// completeBipartite builds K_{m,n}.
func completeBipartite(m, n int) *Bipartite {
	g := NewBipartite(m, n)
	for u := 0; u < m; u++ {
		for v := 0; v < n; v++ {
			g.MustAddEdge(u, v)
		}
	}
	return g
}

func TestAddEdgeAndQueries(t *testing.T) {
	g := NewBipartite(3, 4)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(0, 3)
	g.MustAddEdge(2, 1)
	if g.Edges() != 3 {
		t.Errorf("Edges = %d, want 3", g.Edges())
	}
	if !g.HasEdge(0, 1) || g.HasEdge(1, 1) {
		t.Error("HasEdge wrong")
	}
	nl := g.NeighborsOfLeft(0)
	if len(nl) != 2 || nl[0] != 1 || nl[1] != 3 {
		t.Errorf("NeighborsOfLeft(0) = %v", nl)
	}
	nr := g.NeighborsOfRight(1)
	if len(nr) != 2 || nr[0] != 0 || nr[1] != 2 {
		t.Errorf("NeighborsOfRight(1) = %v", nr)
	}
	if g.LeftDegree(0) != 2 || g.RightDegree(3) != 1 || g.RightDegree(0) != 0 {
		t.Error("degrees wrong")
	}
}

func TestAddEdgeErrors(t *testing.T) {
	g := NewBipartite(2, 2)
	if err := g.AddEdge(2, 0); err == nil {
		t.Error("out-of-range left accepted")
	}
	if err := g.AddEdge(0, -1); err == nil {
		t.Error("out-of-range right accepted")
	}
	g.MustAddEdge(0, 0)
	if err := g.AddEdge(0, 0); err == nil {
		t.Error("duplicate edge accepted")
	}
}

func TestNeighborsReturnCopies(t *testing.T) {
	g := NewBipartite(2, 2)
	g.MustAddEdge(0, 0)
	n := g.NeighborsOfLeft(0)
	n[0] = 99
	if g.NeighborsOfLeft(0)[0] == 99 {
		t.Error("NeighborsOfLeft returned internal slice")
	}
}

func TestNeighborhoodOfLeftSet(t *testing.T) {
	g := NewBipartite(3, 5)
	g.MustAddEdge(0, 0)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(2, 4)
	ns := g.NeighborhoodOfLeftSet([]int{0, 1})
	want := []int{0, 1, 2}
	if len(ns) != len(want) {
		t.Fatalf("N(S) = %v, want %v", ns, want)
	}
	for i := range want {
		if ns[i] != want[i] {
			t.Fatalf("N(S) = %v, want %v", ns, want)
		}
	}
	if got := g.VolumeOfLeftSet([]int{0, 1}); got != 4 {
		t.Errorf("vol(S) = %d, want 4", got)
	}
}

func TestBiregular(t *testing.T) {
	g := completeBipartite(3, 4)
	dL, dR, ok := g.Biregular()
	if !ok || dL != 4 || dR != 3 {
		t.Errorf("Biregular K_{3,4} = (%d,%d,%v)", dL, dR, ok)
	}
	g2 := NewBipartite(2, 2)
	g2.MustAddEdge(0, 0)
	if _, _, ok := g2.Biregular(); ok {
		t.Error("irregular graph reported biregular")
	}
	if _, _, ok := NewBipartite(0, 3).Biregular(); ok {
		t.Error("empty side reported biregular")
	}
}

func TestBiAdjacency(t *testing.T) {
	g := NewBipartite(2, 3)
	g.MustAddEdge(0, 2)
	g.MustAddEdge(1, 0)
	h := g.BiAdjacency()
	want := linalg.NewMatrixFromRows([][]float64{{0, 0, 1}, {1, 0, 0}})
	if !h.Equal(want, 0) {
		t.Errorf("BiAdjacency =\n%v", h)
	}
}

func TestNormalizedBiAdjacency(t *testing.T) {
	g := completeBipartite(2, 2)
	a, err := g.NormalizedBiAdjacency()
	if err != nil {
		t.Fatal(err)
	}
	want := 1 / math.Sqrt(4)
	if math.Abs(a.At(0, 0)-want) > 1e-12 {
		t.Errorf("normalized entry = %v, want %v", a.At(0, 0), want)
	}
	g2 := NewBipartite(2, 2)
	g2.MustAddEdge(0, 0)
	if _, err := g2.NormalizedBiAdjacency(); err == nil {
		t.Error("non-biregular accepted")
	}
}

func TestSpectrumCompleteBipartite(t *testing.T) {
	// For K_{m,n}, A·Aᵀ = (1/m) J_m ... with dL=n, dR=m:
	// A = H/sqrt(nm), AAᵀ = (n/(nm)) J_m = J_m/m, spectrum {1, 0^(m-1)}.
	g := completeBipartite(4, 6)
	spec, err := ComputeSpectrum(g, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(spec.Eigenvalues[0]-1) > 1e-9 {
		t.Errorf("top eigenvalue = %v, want 1", spec.Eigenvalues[0])
	}
	for _, v := range spec.Eigenvalues[1:] {
		if math.Abs(v) > 1e-9 {
			t.Errorf("non-top eigenvalue = %v, want 0", v)
		}
	}
	err = spec.MatchesExpected([]linalg.EigenvalueMultiplicity{
		{Value: 1, Multiplicity: 1},
		{Value: 0, Multiplicity: 3},
	}, 1e-6)
	if err != nil {
		t.Errorf("MatchesExpected: %v", err)
	}
}

func TestMatchesExpectedMismatch(t *testing.T) {
	g := completeBipartite(3, 3)
	spec, err := ComputeSpectrum(g, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.MatchesExpected([]linalg.EigenvalueMultiplicity{{Value: 1, Multiplicity: 3}}, 1e-6); err == nil {
		t.Error("wrong expectation accepted")
	}
	if err := spec.MatchesExpected([]linalg.EigenvalueMultiplicity{
		{Value: 0.5, Multiplicity: 1}, {Value: 0, Multiplicity: 2},
	}, 1e-6); err == nil {
		t.Error("wrong value accepted")
	}
	if err := spec.MatchesExpected([]linalg.EigenvalueMultiplicity{
		{Value: 1, Multiplicity: 2}, {Value: 0, Multiplicity: 1},
	}, 1e-6); err == nil {
		t.Error("wrong multiplicity accepted")
	}
}

func TestMu1(t *testing.T) {
	g := completeBipartite(3, 3)
	spec, err := ComputeSpectrum(g, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(spec.Mu1()) > 1e-9 {
		t.Errorf("µ1 of complete bipartite = %v, want 0", spec.Mu1())
	}
}

func TestExpansionLowerBound(t *testing.T) {
	// Paper's running example: MOLS with l=5, r=3, K=15, µ1=1/3, q=2:
	// β = (2*5/3)/(1/3 + (2/3)(2/15)) = (10/3)/(1/3+4/45) = (10/3)/(19/45).
	beta := ExpansionLowerBound(2, 5, 3, 15, 1.0/3)
	want := (10.0 / 3) / (19.0 / 45)
	if math.Abs(beta-want) > 1e-12 {
		t.Errorf("β = %v, want %v", beta, want)
	}
	if ExpansionLowerBound(0, 5, 3, 15, 1.0/3) != 0 {
		t.Error("β(q=0) should be 0")
	}
}

func TestCheckExpansionBoundHolds(t *testing.T) {
	// On the complete bipartite graph every left set sees all right
	// nodes, so the bound must hold trivially.
	g := completeBipartite(4, 4)
	obs, bound, err := CheckExpansionBound(g, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if float64(obs) < bound-1e-9 {
		t.Errorf("expansion bound violated: observed %d < bound %v", obs, bound)
	}
}

// Property: for random bipartite graphs built from a double cover
// pattern, every neighborhood size is within [max single degree, sum of
// degrees] and the bi-adjacency row/col sums equal degrees.
func TestQuickDegreeConsistency(t *testing.T) {
	prop := func(seed uint8) bool {
		m, n := 4+int(seed)%3, 5+int(seed)%4
		g := NewBipartite(m, n)
		// deterministic pseudo-pattern
		for u := 0; u < m; u++ {
			for v := 0; v < n; v++ {
				if (u*7+v*3+int(seed))%3 == 0 {
					g.MustAddEdge(u, v)
				}
			}
		}
		h := g.BiAdjacency()
		rs, cs := make([]float64, m), make([]float64, n)
		for u := 0; u < m; u++ {
			for v := 0; v < n; v++ {
				rs[u] += h.At(u, v)
				cs[v] += h.At(u, v)
			}
		}
		for u := 0; u < m; u++ {
			if int(rs[u]) != g.LeftDegree(u) {
				return false
			}
		}
		for v := 0; v < n; v++ {
			if int(cs[v]) != g.RightDegree(v) {
				return false
			}
		}
		total := 0
		for u := 0; u < m; u++ {
			total += g.LeftDegree(u)
		}
		return total == g.Edges()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkComputeSpectrum15(b *testing.B) {
	g := completeBipartite(15, 25)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ComputeSpectrum(g, 1e-6); err != nil {
			b.Fatal(err)
		}
	}
}

func TestMu1FastMatchesJacobi(t *testing.T) {
	// K_{4,6}: µ1 = 0.
	g := completeBipartite(4, 6)
	fast, err := Mu1Fast(g)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fast) > 1e-8 {
		t.Errorf("Mu1Fast of complete bipartite = %v, want 0", fast)
	}
	// A union of two disjoint complete bipartite halves has µ1 = 1.
	g2 := NewBipartite(4, 4)
	for u := 0; u < 2; u++ {
		for v := 0; v < 2; v++ {
			g2.MustAddEdge(u, v)
			g2.MustAddEdge(u+2, v+2)
		}
	}
	fast2, err := Mu1Fast(g2)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := ComputeSpectrum(g2, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fast2-spec.Mu1()) > 1e-6 {
		t.Errorf("Mu1Fast %v vs Jacobi %v", fast2, spec.Mu1())
	}
	if _, err := Mu1Fast(NewBipartite(2, 2)); err == nil {
		t.Error("non-biregular accepted")
	}
}
