package linalg

import (
	"fmt"
	"math"
	"sync"
	"unsafe"
)

// Comparator-network order statistics. The chunked median and trimmed
// mean ask for the same order statistics of every coordinate column.
// Per-column quickselect pays for them in data-dependent branches — on
// random gradients those mispredict, and the misses, not the strided
// gather, are where its time goes. The kernels here copy Lanes
// consecutive coordinates of every row into a row-major tile and run a
// fixed comparator network lane-wise across it: every compare-exchange
// is a min and a max over Lanes contiguous values, with no branch that
// depends on the data.
//
// The network is Batcher's odd–even merge sort on the next power of two,
// minus every comparator that touches a padding wire (padding holds +Inf
// in the full network, so those comparators never move a value), pruned
// backwards to the comparators the requested output wires depend on:
// 113 comparators for the median of 25, 84 for 20, 319 for 49.
//
// The tile holds integer sort keys of the values' own width (int32 for
// float32, int64 for float64), not floats: Go's float min and max must
// honour NaN and ±0, which costs four MINSDs, two PXORs and a POR per
// comparator lane on amd64, where an integer compare-exchange is one
// CMP, one CMOV and two XORs. The key order is the numeric order with
// -0 below +0, while sort.Float64s (and so SelectKth) leaves ±0
// unordered. With NaN excluded, ±0 is the only pair of equal values with
// different bits, so a network statistic is bit-identical to the
// selected one unless it is zero; the median redoes a zero on the
// quickselect path when its tile holds a -0 and its column both zeros,
// and a tile holding any NaN goes there whole.
//
// On amd64 CPUs with AVX-512F a full tile runs in assembly
// (network_amd64.s): the same key load, the same comparators in the
// same order and the same two flags, with every compare-exchange a
// packed signed min and max over 8 int64 or 16 int32 lanes. Integer min
// and max round nothing, so the tile is bit for bit the portable one.

// Lanes is the number of coordinates MedianRange and TrimmedMeanRange
// reduce per tile: a tile of 25 rows is 12.8 KB of int64 keys (6.4 KB
// of int32), inside L1.
const Lanes = 64

// comparator is one compare-exchange: afterwards wire i holds the
// smaller value and wire j (> i) the larger.
type comparator struct{ i, j int32 }

type netKey struct{ n, lo, hi int }

var netCache = struct {
	sync.Mutex
	m map[netKey][]comparator
}{m: map[netKey][]comparator{}}

// rankNetwork returns the comparators after which wires [lo, hi) of n
// hold the order statistics an ascending sort places there. Each
// network is built once and shared; callers must not modify it.
func rankNetwork(n, lo, hi int) []comparator {
	netCache.Lock()
	defer netCache.Unlock()
	k := netKey{n, lo, hi}
	net, ok := netCache.m[k]
	if !ok {
		net = buildRankNetwork(n, lo, hi)
		netCache.m[k] = net
	}
	return net
}

func buildRankNetwork(n, lo, hi int) []comparator {
	p2 := 1
	for p2 < n {
		p2 <<= 1
	}
	// Batcher's odd–even merge sort on p2 wires, keeping the comparators
	// whose both wires are real.
	var all []comparator
	for p := 1; p < p2; p <<= 1 {
		for k := p; k >= 1; k >>= 1 {
			for j := k % p; j+k < p2; j += 2 * k {
				for i := 0; i < k && i+j+k < n; i++ {
					if (i+j)/(2*p) == (i+j+k)/(2*p) {
						all = append(all, comparator{int32(i + j), int32(i + j + k)})
					}
				}
			}
		}
	}
	// Walk backwards from the output wires, keeping a comparator when
	// either of its wires is still needed; both then are.
	need := make([]bool, n)
	for w := lo; w < hi; w++ {
		need[w] = true
	}
	var kept []comparator
	for c := len(all) - 1; c >= 0; c-- {
		if cmp := all[c]; need[cmp.i] || need[cmp.j] {
			need[cmp.i], need[cmp.j] = true, true
			kept = append(kept, cmp)
		}
	}
	for a, b := 0, len(kept)-1; a < b; a, b = a+1, b-1 {
		kept[a], kept[b] = kept[b], kept[a]
	}
	return kept
}

// key is the integer type of a tile: int32 for float32 values, int64
// for float64.
type key interface{ int32 | int64 }

// rawKey returns v's bit pattern as a signed integer of its own width.
func rawKey[T Float, K key](v T) K {
	if unsafe.Sizeof(v) == 4 {
		return K(int32(math.Float32bits(float32(v))))
	}
	return K(int64(math.Float64bits(float64(v))))
}

// sortKey maps a float's raw bits (rawKey) to a key whose signed order
// is the float's numeric order with -0 (key -1) just below +0 (key 0)
// and NaNs outermost: negative floats have their magnitude bits
// inverted. It is its own inverse.
func sortKey[K key](k K) K {
	bits := 8 * unsafe.Sizeof(k)
	return k ^ k>>(bits-1)&K(uint64(1)<<(bits-1)-1)
}

// keyValue returns the float whose sort key is k.
func keyValue[T Float, K key](k K) T {
	return FromBits[T](uint64(sortKey(k)))
}

// magnitude returns a raw key's bits without the sign, moved to the top
// of a uint64: it orders |v| with NaNs above Inf.
func magnitude[K key](k K) uint64 { return uint64(k) << (65 - 8*unsafe.Sizeof(k)) }

// sortLanes loads coordinates [b0, b0+w) of every row into tile as
// sort keys (row j at tile[j*Lanes:]) and runs net across the tile.
// It reports whether any loaded value is NaN, and whether any is -0.
func sortLanes[T Float, K key](net []comparator, tile []K, vs [][]T, b0, w int) (nan, negZero bool) {
	if w == Lanes && simd {
		return sortTileSIMD(net, tile, vs, b0)
	}
	var mag uint64
	minOff := uint64(math.MaxUint64)
	for j, v := range vs {
		dst := tile[j*Lanes:][:w]
		for k, x := range v[b0 : b0+w][:len(dst)] {
			raw := rawKey[T, K](x)
			key := sortKey(raw)
			dst[k] = key
			mag = max(mag, magnitude(raw))
			minOff = min(minOff, uint64(key+1)) // zero only for -0's key
		}
	}
	applyNetwork(net, tile)
	return mag > magnitude(rawKey[T, K](T(math.Inf(1)))), minOff == 0
}

// applyNetwork runs net across every lane of tile. Lanes past the
// loaded ones hold stale keys; they cost the same and are never read.
func applyNetwork[K key](net []comparator, tile []K) {
	for _, c := range net {
		exchangeLanes((*[Lanes]K)(tile[int(c.i)*Lanes:]), (*[Lanes]K)(tile[int(c.j)*Lanes:]))
	}
}

// exchangeLanes leaves min(x[k], y[k]) in x[k] and the max in y[k] for
// every lane: one CMP and one CMOV per lane, the max recovered by XOR.
// It stays out of line so the lane loop has the registers to itself.
//
//go:noinline
func exchangeLanes[K key](x, y *[Lanes]K) {
	for k := 0; k < Lanes; k += 2 {
		a0, b0 := x[k], y[k]
		a1, b1 := x[k+1], y[k+1]
		lo0, lo1 := min(a0, b0), min(a1, b1)
		x[k], y[k] = lo0, a0^b0^lo0
		x[k+1], y[k+1] = lo1, a1^b1^lo1
	}
}

// RangeScratch is the reusable tile of MedianRange and TrimmedMeanRange,
// one per key width. The zero value is ready; it grows to the largest
// row count it has served and is not safe for concurrent use.
type RangeScratch struct {
	tile32 []int32
	tile64 []int64
}

// tileOf returns n rows of Lanes keys from *tile, growing it if needed.
func tileOf[K key](tile *[]K, n int) []K {
	if len(*tile) < n*Lanes {
		*tile = make([]K, n*Lanes)
	}
	return (*tile)[:n*Lanes]
}

// GatherCol copies coordinate i of every row into col in row order and
// returns col[:len(vs)].
func GatherCol[T Float](col []T, vs [][]T, i int) []T {
	col = col[:len(vs)]
	for j, v := range vs {
		col[j] = v[i]
	}
	return col
}

// mixedZeros reports whether coordinate i holds both +0 and -0 across
// the rows: the one case where a zero statistic's bits depend on which
// of several equal values a selection returns.
func mixedZeros[T Float](vs [][]T, i int) bool {
	var pos, neg bool
	for _, v := range vs {
		if v[i] == 0 {
			if math.Signbit(float64(v[i])) {
				neg = true
			} else {
				pos = true
			}
		}
	}
	return pos && neg
}

// checkRange panics unless the rows, range and column fit the network
// kernels.
func checkRange[T Float](out []T, vs [][]T, lo, hi int, col []T) {
	if len(vs) == 0 || lo < 0 || lo > hi || hi > len(out) || len(col) < len(vs) {
		panic(fmt.Sprintf("linalg: range [%d,%d) of %d rows into %d outputs with a %d-value column", lo, hi, len(vs), len(out), len(col)))
	}
}

// MedianRange writes the median of every coordinate column i in
// [lo, hi) of vs into out[i], bit-identical to MedianSelect over the
// column in row order. col (at least len(vs) values) holds a column
// for the quickselect path. Once s has served len(vs) rows and the
// network for that count is built, it allocates nothing.
func MedianRange[T Float](out []T, vs [][]T, lo, hi int, col []T, s *RangeScratch) {
	checkRange(out, vs, lo, hi, col)
	if Width[T]() == 4 {
		medianRange(out, vs, lo, hi, col, tileOf(&s.tile32, len(vs)))
	} else {
		medianRange(out, vs, lo, hi, col, tileOf(&s.tile64, len(vs)))
	}
}

func medianRange[T Float, K key](out []T, vs [][]T, lo, hi int, col []T, tile []K) {
	n := len(vs)
	net := rankNetwork(n, (n-1)/2, n/2+1)
	lower, upper := tile[(n-1)/2*Lanes:][:Lanes], tile[n/2*Lanes:][:Lanes]
	for b0 := lo; b0 < hi; b0 += Lanes {
		w := min(Lanes, hi-b0)
		nan, negZero := sortLanes(net, tile, vs, b0, w)
		if nan {
			for i := b0; i < b0+w; i++ {
				out[i] = MedianSelect(GatherCol(col, vs, i))
			}
			continue
		}
		for b, k := range upper[:w] {
			v := keyValue[T](k)
			if n%2 == 0 {
				v = (keyValue[T](lower[b]) + v) / 2
			}
			if v == 0 && negZero && mixedZeros(vs, b0+b) {
				v = MedianSelect(GatherCol(col, vs, b0+b))
			}
			out[b0+b] = v
		}
	}
}

// TrimmedMeanRange writes the trimmed mean of every coordinate column i
// in [lo, hi) of vs into out[i], bit-identical to TrimmedMeanSelect over
// the column in row order: the surviving order statistics are summed in
// ascending order from +0, which a ±0 in any order leaves unchanged, so
// only a tile holding a NaN takes the quickselect path. col and s are
// as for MedianRange.
func TrimmedMeanRange[T Float](out []T, vs [][]T, lo, hi, trim int, col []T, s *RangeScratch) {
	checkRange(out, vs, lo, hi, col)
	if n := len(vs); trim < 0 || 2*trim >= n {
		panic(fmt.Sprintf("linalg: trimmed mean with trim=%d of %d values", trim, n))
	}
	if Width[T]() == 4 {
		trimmedMeanRange(out, vs, lo, hi, trim, col, tileOf(&s.tile32, len(vs)))
	} else {
		trimmedMeanRange(out, vs, lo, hi, trim, col, tileOf(&s.tile64, len(vs)))
	}
}

func trimmedMeanRange[T Float, K key](out []T, vs [][]T, lo, hi, trim int, col []T, tile []K) {
	n := len(vs)
	net := rankNetwork(n, trim, n-trim)
	kept := T(n - 2*trim)
	for b0 := lo; b0 < hi; b0 += Lanes {
		w := min(Lanes, hi-b0)
		sum := out[b0 : b0+w]
		if nan, _ := sortLanes(net, tile, vs, b0, w); nan {
			for b := range sum {
				sum[b] = TrimmedMeanSelect(GatherCol(col, vs, b0+b), trim)
			}
			continue
		}
		clear(sum)
		for p := trim; p < n-trim; p++ {
			for b, k := range tile[p*Lanes:][:len(sum)] {
				sum[b] += keyValue[T](k)
			}
		}
		for b := range sum {
			sum[b] /= kept
		}
	}
}
