// Package gf implements arithmetic over finite (Galois) fields GF(p^k).
//
// The MOLS-based task assignment of ByzShield (Sec. 4.1 of the paper)
// constructs l-1 mutually orthogonal Latin squares of degree l via
// L_alpha(i, j) = alpha*i + j evaluated over the finite field F_l, which
// requires l to be a prime power. This package provides the field
// arithmetic for both the prime case GF(p) (fast modular arithmetic) and
// the prime-power case GF(p^k) (polynomial arithmetic modulo an
// irreducible polynomial, with precomputed multiplication and inverse
// tables since the fields used for assignment are small).
//
// Elements are represented as integers in [0, p^k). For extension fields
// the integer n encodes the polynomial whose coefficient of x^i is the
// i-th base-p digit of n. Element 0 is the additive identity and element
// 1 is the multiplicative identity under this encoding.
package gf

import (
	"errors"
	"fmt"
)

// Field is a finite field GF(p^k) with elements encoded as integers in
// [0, p^k). The zero value is not usable; construct fields with New.
type Field struct {
	p     int // characteristic (prime)
	k     int // extension degree
	order int // p^k
	// irreducible holds the coefficients (degree 0..k) of the monic
	// irreducible polynomial used to build the extension; nil when k == 1.
	irreducible []int
	// addTab and mulTab are order*order lookup tables, flattened
	// row-major. For GF(p) they are nil and arithmetic is done modularly.
	addTab []int
	mulTab []int
	invTab []int // multiplicative inverses; invTab[0] unused
	negTab []int // additive inverses
}

// ErrNotPrimePower reports that the requested order is not a prime power.
var ErrNotPrimePower = errors.New("gf: order is not a prime power")

// New constructs GF(order). The order must be a prime power p^k with
// order >= 2; otherwise ErrNotPrimePower is returned.
func New(order int) (*Field, error) {
	if order < 2 {
		return nil, fmt.Errorf("gf: order %d < 2: %w", order, ErrNotPrimePower)
	}
	p, k, ok := factorPrimePower(order)
	if !ok {
		return nil, fmt.Errorf("gf: order %d: %w", order, ErrNotPrimePower)
	}
	f := &Field{p: p, k: k, order: order}
	if k == 1 {
		f.buildPrimeTables()
		return f, nil
	}
	irr, err := findIrreducible(p, k)
	if err != nil {
		return nil, err
	}
	f.irreducible = irr
	f.buildExtensionTables()
	return f, nil
}

// MustNew is like New but panics on error. Intended for constructing
// fields from orders already known to be prime powers (e.g. in tests and
// assignment constructors that validated their parameters).
func MustNew(order int) *Field {
	f, err := New(order)
	if err != nil {
		panic(err)
	}
	return f
}

// IsPrimePower reports whether n is a prime power p^k (k >= 1) and, if
// so, returns the prime and the exponent.
func IsPrimePower(n int) (p, k int, ok bool) {
	return factorPrimePower(n)
}

// IsPrime reports whether n is prime.
func IsPrime(n int) bool {
	if n < 2 {
		return false
	}
	for d := 2; d*d <= n; d++ {
		if n%d == 0 {
			return false
		}
	}
	return true
}

// valid panics if a is not a field element.
func (f *Field) valid(a int) {
	if a < 0 || a >= f.order {
		panic(fmt.Sprintf("gf: element %d out of range [0,%d)", a, f.order))
	}
}

// Add returns a + b in the field.
func (f *Field) Add(a, b int) int {
	f.valid(a)
	f.valid(b)
	if f.addTab != nil {
		return f.addTab[a*f.order+b]
	}
	return (a + b) % f.p
}

// Sub returns a - b in the field.
func (f *Field) Sub(a, b int) int {
	f.valid(a)
	f.valid(b)
	return f.Add(a, f.Neg(b))
}

// Neg returns the additive inverse of a.
func (f *Field) Neg(a int) int {
	f.valid(a)
	if f.negTab != nil {
		return f.negTab[a]
	}
	return (f.p - a) % f.p
}

// Mul returns a * b in the field.
func (f *Field) Mul(a, b int) int {
	f.valid(a)
	f.valid(b)
	if f.mulTab != nil {
		return f.mulTab[a*f.order+b]
	}
	return (a * b) % f.p
}

// Inv returns the multiplicative inverse of a. It panics if a == 0.
func (f *Field) Inv(a int) int {
	f.valid(a)
	if a == 0 {
		panic("gf: inverse of zero")
	}
	if f.invTab != nil {
		return f.invTab[a]
	}
	// Extended Euclid over the prime field.
	return modInverse(a, f.p)
}

// Pow returns a^e for e >= 0 (a^0 == 1, including 0^0 by convention).
func (f *Field) Pow(a, e int) int {
	f.valid(a)
	if e < 0 {
		panic("gf: negative exponent")
	}
	result := 1
	base := a
	for e > 0 {
		if e&1 == 1 {
			result = f.Mul(result, base)
		}
		base = f.Mul(base, base)
		e >>= 1
	}
	return result
}

// buildPrimeTables precomputes negation and inverse tables for GF(p).
// Addition and multiplication stay modular (no quadratic tables needed).
func (f *Field) buildPrimeTables() {
	f.negTab = make([]int, f.order)
	f.invTab = make([]int, f.order)
	for a := 0; a < f.order; a++ {
		f.negTab[a] = (f.p - a) % f.p
		if a != 0 {
			f.invTab[a] = modInverse(a, f.p)
		}
	}
}

// buildExtensionTables precomputes full operation tables for GF(p^k).
func (f *Field) buildExtensionTables() {
	n := f.order
	f.addTab = make([]int, n*n)
	f.mulTab = make([]int, n*n)
	f.negTab = make([]int, n)
	f.invTab = make([]int, n)
	for a := 0; a < n; a++ {
		pa := f.decode(a)
		f.negTab[a] = f.encode(polyNeg(pa, f.p))
		for b := 0; b < n; b++ {
			pb := f.decode(b)
			f.addTab[a*n+b] = f.encode(polyAdd(pa, pb, f.p))
			prod := polyMulMod(pa, pb, f.irreducible, f.p)
			f.mulTab[a*n+b] = f.encode(prod)
		}
	}
	// Inverses by scanning the multiplication table rows; the field is
	// small so O(n^2) is fine and avoids a polynomial extended Euclid.
	for a := 1; a < n; a++ {
		for b := 1; b < n; b++ {
			if f.mulTab[a*n+b] == 1 {
				f.invTab[a] = b
				break
			}
		}
	}
}

// decode expands element a into base-p coefficients, lowest degree first.
func (f *Field) decode(a int) []int {
	coeffs := make([]int, f.k)
	for i := 0; i < f.k; i++ {
		coeffs[i] = a % f.p
		a /= f.p
	}
	return coeffs
}

// encode packs base-p coefficients back into an integer element.
func (f *Field) encode(coeffs []int) int {
	a := 0
	for i := len(coeffs) - 1; i >= 0; i-- {
		a = a*f.p + coeffs[i]
	}
	return a
}

// factorPrimePower returns (p, k, true) when n == p^k for prime p.
func factorPrimePower(n int) (int, int, bool) {
	if n < 2 {
		return 0, 0, false
	}
	for p := 2; p*p <= n; p++ {
		if n%p != 0 {
			continue
		}
		k := 0
		m := n
		for m%p == 0 {
			m /= p
			k++
		}
		if m == 1 {
			return p, k, true
		}
		return 0, 0, false
	}
	// n itself is prime.
	return n, 1, true
}

// modInverse returns the inverse of a modulo prime p via extended Euclid.
func modInverse(a, p int) int {
	t, newT := 0, 1
	r, newR := p, a%p
	for newR != 0 {
		quot := r / newR
		t, newT = newT, t-quot*newT
		r, newR = newR, r-quot*newR
	}
	if r != 1 {
		panic(fmt.Sprintf("gf: %d not invertible mod %d", a, p))
	}
	if t < 0 {
		t += p
	}
	return t
}
