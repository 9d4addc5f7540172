package gf

import (
	"testing"
	"testing/quick"
)

func TestIsPrimePower(t *testing.T) {
	cases := []struct {
		n       int
		p, k    int
		isPower bool
	}{
		{2, 2, 1, true},
		{3, 3, 1, true},
		{4, 2, 2, true},
		{5, 5, 1, true},
		{6, 0, 0, false},
		{7, 7, 1, true},
		{8, 2, 3, true},
		{9, 3, 2, true},
		{10, 0, 0, false},
		{12, 0, 0, false},
		{16, 2, 4, true},
		{25, 5, 2, true},
		{27, 3, 3, true},
		{49, 7, 2, true},
		{121, 11, 2, true},
		{1, 0, 0, false},
		{0, 0, 0, false},
		{-5, 0, 0, false},
	}
	for _, c := range cases {
		p, k, ok := IsPrimePower(c.n)
		if ok != c.isPower {
			t.Errorf("IsPrimePower(%d) ok = %v, want %v", c.n, ok, c.isPower)
			continue
		}
		if ok && (p != c.p || k != c.k) {
			t.Errorf("IsPrimePower(%d) = (%d,%d), want (%d,%d)", c.n, p, k, c.p, c.k)
		}
	}
}

func TestIsPrime(t *testing.T) {
	primes := map[int]bool{2: true, 3: true, 5: true, 7: true, 11: true, 13: true,
		4: false, 6: false, 9: false, 1: false, 0: false, -3: false, 25: false, 29: true}
	for n, want := range primes {
		if got := IsPrime(n); got != want {
			t.Errorf("IsPrime(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestNewRejectsNonPrimePower(t *testing.T) {
	for _, n := range []int{0, 1, 6, 10, 12, 15, 18, 20} {
		if _, err := New(n); err == nil {
			t.Errorf("New(%d) succeeded, want error", n)
		}
	}
}

func TestMustNewPanicsOnBadOrder(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew(6) did not panic")
		}
	}()
	MustNew(6)
}

// fieldAxioms verifies the full set of field axioms by enumeration.
func fieldAxioms(t *testing.T, f *Field) {
	t.Helper()
	n := f.order
	for a := 0; a < n; a++ {
		if f.Add(a, 0) != a {
			t.Fatalf("order %d: %d + 0 != %d", n, a, a)
		}
		if f.Mul(a, 1) != a {
			t.Fatalf("order %d: %d * 1 != %d", n, a, a)
		}
		if f.Add(a, f.Neg(a)) != 0 {
			t.Fatalf("order %d: %d + (-%d) != 0", n, a, a)
		}
		if a != 0 {
			if got := f.Mul(a, f.Inv(a)); got != 1 {
				t.Fatalf("order %d: %d * inv(%d) = %d, want 1", n, a, a, got)
			}
		}
		for b := 0; b < n; b++ {
			if f.Add(a, b) != f.Add(b, a) {
				t.Fatalf("order %d: add not commutative at (%d,%d)", n, a, b)
			}
			if f.Mul(a, b) != f.Mul(b, a) {
				t.Fatalf("order %d: mul not commutative at (%d,%d)", n, a, b)
			}
			if f.Sub(a, b) != f.Add(a, f.Neg(b)) {
				t.Fatalf("order %d: sub mismatch at (%d,%d)", n, a, b)
			}
			for c := 0; c < n; c++ {
				if f.Add(f.Add(a, b), c) != f.Add(a, f.Add(b, c)) {
					t.Fatalf("order %d: add not associative", n)
				}
				if f.Mul(f.Mul(a, b), c) != f.Mul(a, f.Mul(b, c)) {
					t.Fatalf("order %d: mul not associative", n)
				}
				if f.Mul(a, f.Add(b, c)) != f.Add(f.Mul(a, b), f.Mul(a, c)) {
					t.Fatalf("order %d: distributivity fails at (%d,%d,%d)", n, a, b, c)
				}
			}
		}
	}
}

func TestFieldAxiomsPrime(t *testing.T) {
	for _, n := range []int{2, 3, 5, 7, 11} {
		fieldAxioms(t, MustNew(n))
	}
}

func TestFieldAxiomsExtension(t *testing.T) {
	for _, n := range []int{4, 8, 9} {
		fieldAxioms(t, MustNew(n))
	}
}

func TestExtensionFieldLargerOrders(t *testing.T) {
	// Spot-check inverses and cancellation in GF(16), GF(25), GF(27).
	for _, n := range []int{16, 25, 27} {
		f := MustNew(n)
		for a := 1; a < n; a++ {
			inv := f.Inv(a)
			if f.Mul(a, inv) != 1 {
				t.Errorf("GF(%d): a*inv(a) != 1 for a=%d", n, a)
			}
		}
		// a*b == a*c with a != 0 implies b == c (cancellation).
		for a := 1; a < n; a++ {
			seen := make(map[int]bool)
			for b := 0; b < n; b++ {
				prod := f.Mul(a, b)
				if seen[prod] {
					t.Fatalf("GF(%d): row %d of multiplication table has duplicates", n, a)
				}
				seen[prod] = true
			}
		}
	}
}

func TestMulNoZeroDivisors(t *testing.T) {
	for _, n := range []int{5, 8, 9, 25} {
		f := MustNew(n)
		for a := 1; a < n; a++ {
			for b := 1; b < n; b++ {
				if f.Mul(a, b) == 0 {
					t.Fatalf("GF(%d): zero divisor %d*%d", n, a, b)
				}
			}
		}
	}
}

func TestPow(t *testing.T) {
	f := MustNew(7)
	if got := f.Pow(3, 0); got != 1 {
		t.Errorf("3^0 = %d, want 1", got)
	}
	if got := f.Pow(3, 6); got != 1 { // Fermat
		t.Errorf("3^6 mod 7 = %d, want 1", got)
	}
	if got := f.Pow(2, 5); got != 32%7 {
		t.Errorf("2^5 mod 7 = %d, want %d", got, 32%7)
	}
	// Lagrange in an extension field: a^(order-1) == 1 for a != 0.
	f9 := MustNew(9)
	for a := 1; a < 9; a++ {
		if f9.Pow(a, 8) != 1 {
			t.Errorf("GF(9): %d^8 != 1", a)
		}
	}
}

func TestPowPanicsOnNegativeExponent(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Pow with negative exponent did not panic")
		}
	}()
	MustNew(5).Pow(2, -1)
}

func TestInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Inv(0) did not panic")
		}
	}()
	MustNew(5).Inv(0)
}

func TestOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add with out-of-range element did not panic")
		}
	}()
	MustNew(5).Add(5, 0)
}

// TestAccessors: New records GF(25)'s order, characteristic, degree
// and a monic degree-2 modulus, and no modulus for a prime field.
func TestAccessors(t *testing.T) {
	f := MustNew(25)
	if f.order != 25 || f.p != 5 || f.k != 2 {
		t.Errorf("GF(25) parameters = (%d,%d,%d), want (25,5,2)", f.order, f.p, f.k)
	}
	if irr := f.irreducible; len(irr) != 3 || irr[2] != 1 {
		t.Errorf("GF(25) irreducible = %v, want monic degree 2", irr)
	}
	if MustNew(7).irreducible != nil {
		t.Error("prime field has an irreducible polynomial")
	}
}

func TestIrreduciblePolynomialIsIrreducible(t *testing.T) {
	for _, n := range []int{4, 8, 9, 16, 25, 27, 49} {
		f := MustNew(n)
		if !isIrreducible(f.irreducible, f.p) {
			t.Errorf("GF(%d): stored polynomial %v is reducible", n, f.irreducible)
		}
	}
}

func TestPolyHelpers(t *testing.T) {
	p := 5
	a := []int{1, 2, 3} // 3x^2+2x+1
	b := []int{4, 0, 1} // x^2+4
	sum := polyAdd(a, b, p)
	want := []int{0, 2, 4}
	for i := range want {
		if sum[i] != want[i] {
			t.Fatalf("polyAdd = %v, want %v", sum, want)
		}
	}
	prod := polyMul(a, b, p)
	// (3x^2+2x+1)(x^2+4) = 3x^4+2x^3+13x^2+8x+4 -> mod 5: 3x^4+2x^3+3x^2+3x+4
	wantProd := []int{4, 3, 3, 2, 3}
	if len(prod) != len(wantProd) {
		t.Fatalf("polyMul length = %d, want %d", len(prod), len(wantProd))
	}
	for i := range wantProd {
		if prod[i] != wantProd[i] {
			t.Fatalf("polyMul = %v, want %v", prod, wantProd)
		}
	}
	if polyDeg(nil) != -1 || polyDeg([]int{0, 0}) != -1 || polyDeg([]int{1, 0, 2}) != 2 {
		t.Error("polyDeg wrong")
	}
	if polyEval([]int{1, 2, 3}, 2, 5) != (1+4+12)%5 {
		t.Error("polyEval wrong")
	}
}

func TestPolyModReducesDegree(t *testing.T) {
	m := []int{2, 1, 1} // x^2+x+2 over GF(3), irreducible
	if !isIrreducible(m, 3) {
		t.Fatal("test modulus not irreducible")
	}
	a := []int{1, 2, 2, 1} // degree 3
	r := polyMod(a, m, 3)
	if polyDeg(r) >= 2 {
		t.Errorf("polyMod degree = %d, want < 2", polyDeg(r))
	}
}

// Property-based: (a+b) and (a*b) stay in range, and Add/Mul match the
// table-free recomputation through decode/encode for GF(25).
func TestQuickFieldClosure(t *testing.T) {
	f := MustNew(25)
	prop := func(x, y uint8) bool {
		a := int(x) % 25
		b := int(y) % 25
		s := f.Add(a, b)
		m := f.Mul(a, b)
		if s < 0 || s >= 25 || m < 0 || m >= 25 {
			return false
		}
		// a + b - b == a and (a*b)/b == a for b != 0.
		if f.Sub(s, b) != a {
			return false
		}
		if b != 0 && f.Mul(m, f.Inv(b)) != a {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property-based: Frobenius endomorphism (a+b)^p == a^p + b^p in GF(p^k).
func TestQuickFrobenius(t *testing.T) {
	f := MustNew(27)
	p := f.p
	prop := func(x, y uint8) bool {
		a := int(x) % 27
		b := int(y) % 27
		lhs := f.Pow(f.Add(a, b), p)
		rhs := f.Add(f.Pow(a, p), f.Pow(b, p))
		return lhs == rhs
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func BenchmarkMulPrime(b *testing.B) {
	f := MustNew(101)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.Mul(i%101, (i+37)%101)
	}
}

func BenchmarkMulExtension(b *testing.B) {
	f := MustNew(49)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.Mul(i%49, (i+13)%49)
	}
}
