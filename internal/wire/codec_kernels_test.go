package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"byzshield/internal/linalg"
)

// The byte-at-a-time bodies the word-at-a-time delta codec and the
// truncate-and-compare int8 rounding replaced, kept as the references
// the hot loops are held to (the way appendFloatsPortable is kept for
// the bulk float codec).

// appendParamsDeltaPortable is the per-byte delta encoder: the length
// by shifting, the nibble OR-ed into a zeroed slot, the XOR value
// appended one byte at a time.
func appendParamsDeltaPortable[T linalg.Float](dst []byte, base, cur []T) []byte {
	d := len(cur)
	dst = append(dst, ParamsDelta)
	dst = AppendU32(dst, uint32(d))
	nibbleAt := len(dst)
	dst = append(dst, make([]byte, (d+1)/2)...)
	for i, v := range cur {
		x := linalg.Bits(base[i]) ^ linalg.Bits(v)
		n := 0
		for y := x; y != 0; y >>= 8 {
			n++
		}
		if i%2 == 0 {
			dst[nibbleAt+i/2] |= byte(n)
		} else {
			dst[nibbleAt+i/2] |= byte(n) << 4
		}
		for b := 0; b < n; b++ {
			dst = append(dst, byte(x>>(8*b)))
		}
	}
	return dst
}

// decodeParamsPortable is the per-byte DecodeParamsOf: every
// coordinate through the bounds, length and canonicality checks and a
// byte-wise reassembly of its XOR value.
func decodeParamsPortable[T linalg.Float](src []byte, params []T) (mode, consumed int, err error) {
	if len(src) < paramsHeader {
		return 0, 0, fmt.Errorf("wire: params frame truncated at %d bytes", len(src))
	}
	mode = int(src[0])
	d64 := uint64(src[1]) | uint64(src[2])<<8 | uint64(src[3])<<16 | uint64(src[4])<<24
	if d64 != uint64(len(params)) {
		return 0, 0, fmt.Errorf("wire: params frame has %d coordinates, want %d", d64, len(params))
	}
	d := len(params)
	w := linalg.Width[T]()
	body := src[paramsHeader:]
	switch mode {
	case ParamsFull:
		if len(body) < w*d {
			return 0, 0, fmt.Errorf("wire: full params frame needs %d bytes, have %d", w*d, len(body))
		}
		decodeFloatsPortable(params, body)
		return ParamsFull, paramsHeader + w*d, nil
	case ParamsDelta:
		nb := (d + 1) / 2
		if len(body) < nb {
			return 0, 0, fmt.Errorf("wire: delta frame needs %d length bytes, have %d", nb, len(body))
		}
		nibbles, payload := body[:nb], body[nb:]
		off := 0
		for i := 0; i < d; i++ {
			n := nibbleLen(nibbles, i)
			if n > w {
				return 0, 0, fmt.Errorf("wire: delta length %d > %d at coordinate %d", n, w, i)
			}
			if len(payload)-off < n {
				return 0, 0, fmt.Errorf("wire: delta payload truncated at coordinate %d", i)
			}
			if n > 0 && payload[off+n-1] == 0 {
				return 0, 0, fmt.Errorf("wire: non-canonical delta length at coordinate %d", i)
			}
			x := xorFromBytes(payload[off:], n)
			off += n
			params[i] = linalg.FromBits[T](linalg.Bits(params[i]) ^ x)
		}
		if d%2 == 1 && nibbles[nb-1]>>4 != 0 {
			return 0, 0, fmt.Errorf("wire: delta frame has a set padding nibble")
		}
		return ParamsDelta, paramsHeader + nb + off, nil
	default:
		return 0, 0, fmt.Errorf("wire: unknown params frame mode %d", mode)
	}
}

// int8ParamsReference is the one strict-compare scan int8Params ran
// before it had a SIMD body: a NaN never replaces min or max, and of
// equal values the first in index order stays.
func int8ParamsReference[T linalg.Float](g []T) (min, scale T) {
	if len(g) == 0 {
		return 0, 0
	}
	min, max := g[0], g[0]
	for _, v := range g[1:] {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return min, (max - min) / 255
}

// int8QuantizeReference is int8Quantize with math.Round.
func int8QuantizeReference[T linalg.Float](v, min, scale T) uint8 {
	if scale == 0 {
		return 0
	}
	t := math.Round(float64((v - min) / scale))
	if !(t > 0) {
		return 0
	}
	if t > 255 {
		return 255
	}
	return uint8(t)
}

// appendUplinkInt8Reference is the two-scan int8 encoder: the
// strict-compare scan once for the (min, scale) table and again per
// value row, and the math.Round quantizer.
func appendUplinkInt8Reference[T linalg.Float](dst []byte, worker int, files []int, grads [][]T, d int) ([]byte, error) {
	dst, err := appendReportHeader(append(dst, UplinkInt8), worker, files, d)
	if err != nil {
		return nil, err
	}
	for _, g := range grads {
		min, scale := int8ParamsReference(g)
		dst = appendFloat(dst, min)
		dst = appendFloat(dst, scale)
	}
	for _, g := range grads {
		min, scale := int8ParamsReference(g)
		for _, v := range g {
			dst = append(dst, int8QuantizeReference(v, min, scale))
		}
	}
	return dst, nil
}

// decodeUplinkInt8Reference is the scalar int8 decode loop the SIMD
// body replaced: each row's (min, scale) read from the table, then
// min + scale·q one value at a time. The frame must be well formed.
func decodeUplinkInt8Reference[T linalg.Float](src []byte, f *GradFrameOf[T]) int {
	w := linalg.Width[T]()
	n := int(binary.LittleEndian.Uint32(src[5:]))
	d := int(binary.LittleEndian.Uint32(src[9:]))
	f.Worker = int(binary.LittleEndian.Uint32(src[1:]))
	f.setFiles(src[quantHeader:], n)
	f.growGrads(n, d)
	body := src[quantHeader+n*4:]
	vals := body[n*2*w:]
	for i := 0; i < n; i++ {
		min := linalg.FromBits[T](getBits[T](body[i*2*w:]))
		scale := linalg.FromBits[T](getBits[T](body[i*2*w+w:]))
		q := vals[i*d:]
		g := f.Grads[i]
		for j := 0; j < d; j++ {
			g[j] = min + scale*T(q[j])
		}
	}
	return quantHeader + n*4 + n*2*w + n*d
}

// sameFloat reports whether a and b have the same bits, or are both
// NaN: a NaN result's payload depends on the operand order the
// compiler picks (DESIGN §9.7), so a NaN is compared only as a NaN.
func sameFloat[T linalg.Float](a, b T) bool {
	return linalg.Bits(a) == linalg.Bits(b) || (a != a && b != b)
}

// eachDispatch runs check on the codecs' SIMD bodies (/simd, skipped
// only on a CPU without what has() reports) and on their portable Go
// bodies (/generic).
func eachDispatch(t *testing.T, has func() bool, check func(t *testing.T)) {
	t.Run("simd", func(t *testing.T) {
		defer linalg.SetSIMD(linalg.SetSIMD(true))
		if !has() {
			t.Skip("this CPU lacks the SIMD codec bodies' features")
		}
		check(t)
	})
	t.Run("generic", func(t *testing.T) {
		defer linalg.SetSIMD(linalg.SetSIMD(false))
		check(t)
	})
}

// bothDispatches runs check on the SIMD codec bodies, where the CPU
// has them, and then on the portable ones.
func bothDispatches(check func()) {
	defer linalg.SetSIMD(linalg.SetSIMD(true))
	check()
	linalg.SetSIMD(false)
	check()
}

// sgdStep returns base moved by an SGD-step-sized amount on most
// coordinates and left exactly unchanged on about one in five: the
// shape of consecutive broadcast vectors.
func sgdStep[T linalg.Float](rng *rand.Rand, base []T) []T {
	cur := make([]T, len(base))
	for i, v := range base {
		if rng.Intn(5) != 0 {
			v += T(rng.NormFloat64() * 1e-3)
		}
		cur[i] = v
	}
	return cur
}

// gaussian returns n standard normal values at T's width.
func gaussian[T linalg.Float](rng *rand.Rand, n int) []T {
	out := make([]T, n)
	for i := range out {
		out[i] = T(rng.NormFloat64())
	}
	return out
}

// deltaPair draws one (base, cur) pair of the given kind: random bit
// patterns, special values only, or an SGD step.
func deltaPair[T linalg.Float](rng *rand.Rand, kind string, d int) (base, cur []T) {
	switch kind {
	case "random":
		return randomFloats[T](rng, d), randomFloats[T](rng, d)
	case "special":
		base, cur = make([]T, d), make([]T, d)
		for i := range base {
			base[i] = linalg.FromBits[T](specialBits[rng.Intn(len(specialBits))])
			cur[i] = linalg.FromBits[T](specialBits[rng.Intn(len(specialBits))])
		}
		return base, cur
	default:
		base = gaussian[T](rng, d)
		return base, sgdStep(rng, base)
	}
}

var inputKinds = []string{"random", "special", "sgd"}

// checkParamsDecodeAgrees decodes frame with DecodeParamsOf and the
// reference into copies of base and fails unless both accept or both
// reject with the same message and, on accept, agree on mode, consumed
// and every coordinate's bits.
func checkParamsDecodeAgrees[T linalg.Float](t testing.TB, frame []byte, base []T, what string) {
	t.Helper()
	got, want := slices.Clone(base), slices.Clone(base)
	mode, consumed, err := DecodeParamsOf(frame, got)
	wmode, wconsumed, werr := decodeParamsPortable(frame, want)
	if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
		t.Fatalf("%s: DecodeParamsOf err %v, reference err %v", what, err, werr)
	}
	if err != nil {
		return
	}
	if mode != wmode || consumed != wconsumed {
		t.Fatalf("%s: mode %d consumed %d, reference mode %d consumed %d", what, mode, consumed, wmode, wconsumed)
	}
	for i := range got {
		if linalg.Bits(got[i]) != linalg.Bits(want[i]) {
			t.Fatalf("%s: coordinate %d = %#x, reference %#x", what, i, linalg.Bits(got[i]), linalg.Bits(want[i]))
		}
	}
}

// mutateFrame returns a copy of frame with one random corruption: a
// byte overwritten, a length nibble rewritten, a payload byte zeroed
// (the non-canonical case when it is a top byte), a byte inserted or
// deleted, trailing bytes added, or the frame truncated.
func mutateFrame(rng *rand.Rand, frame []byte, d int) []byte {
	b := slices.Clone(frame)
	nb := (d + 1) / 2
	pick := func(lo int) int { return lo + rng.Intn(len(b)-lo) }
	switch rng.Intn(7) {
	case 0:
		b[pick(0)] = byte(rng.Intn(256))
	case 1:
		if nb > 0 {
			at := paramsHeader + rng.Intn(nb)
			if rng.Intn(2) == 0 {
				b[at] = b[at]&0xf0 | byte(rng.Intn(16))
			} else {
				b[at] = b[at]&0x0f | byte(rng.Intn(16))<<4
			}
		}
	case 2:
		if len(b) > paramsHeader+nb {
			b[pick(paramsHeader+nb)] = 0
		}
	case 3:
		at := pick(0)
		b = slices.Insert(b, at, byte(rng.Intn(256)))
	case 4:
		at := pick(0)
		b = slices.Delete(b, at, at+1)
	case 5:
		b = append(b, byte(rng.Intn(256)), byte(rng.Intn(256)))
	default:
		b = b[:rng.Intn(len(b)+1)]
	}
	return b
}

// laneMutations returns copies of a well-formed delta frame of d
// coordinates broken at every lane position of one whole SIMD group
// (64/sizeof(T) coordinates): the first, a middle or the last group as
// d mod 3 is 0, 1 or 2. Each coordinate gets its length set above
// sizeof(T), its top byte zeroed, and the frame cut inside its value.
func laneMutations[T linalg.Float](frame []byte, d int) [][]byte {
	w := linalg.Width[T]()
	lanes := 64 / w
	groups := d / lanes
	if groups == 0 {
		return nil
	}
	nb := (d + 1) / 2
	nibbles := frame[paramsHeader : paramsHeader+nb]
	payload := paramsHeader + nb
	end := make([]int, d) // payload offset past each coordinate
	for i, off := 0, 0; i < d; i++ {
		off += nibbleLen(nibbles, i)
		end[i] = off
	}
	var out [][]byte
	g := []int{0, groups / 2, groups - 1}[d%3]
	for k := 0; k < lanes; k++ {
		i := g*lanes + k
		b := slices.Clone(frame)
		bad := byte(w + 1 + k%(15-w)) // every length from w+1 to 15
		if at := paramsHeader + i/2; i%2 == 0 {
			b[at] = b[at]&0xf0 | bad
		} else {
			b[at] = b[at]&0x0f | bad<<4
		}
		out = append(out, b)
		if nibbleLen(nibbles, i) > 0 {
			top := payload + end[i] - 1
			b = slices.Clone(frame)
			b[top] = 0
			out = append(out, b, frame[:top])
		}
	}
	return out
}

func checkParamsDeltaMatchesPortable[T linalg.Float](t *testing.T) {
	rng := rand.New(rand.NewSource(int64(40 + linalg.Width[T]())))
	dims := []int{1001}
	for d := 257; d >= 0; d-- {
		dims = append(dims, d)
	}
	for _, d := range dims {
		for _, kind := range inputKinds {
			what := fmt.Sprintf("d=%d %s", d, kind)
			base, cur := deltaPair[T](rng, kind, d)
			prefix := []byte{0xEE, 0xDD, 0xCC}[:1+d%3]
			frame, err := AppendParamsDeltaOf(slices.Clone(prefix), base, cur)
			if err != nil {
				t.Fatal(err)
			}
			ref := appendParamsDeltaPortable(slices.Clone(prefix), base, cur)
			if !bytes.Equal(frame, ref) {
				t.Fatalf("%s: frame differs from the reference:\n got %x\nwant %x", what, frame, ref)
			}
			frame = frame[len(prefix):]
			checkParamsDecodeAgrees(t, frame, base, what)
			// Every truncation near the end: the last 64 bytes
			// straddle both fast paths' cut-offs at each of them.
			for cut := 0; cut <= 68 && cut <= len(frame); cut++ {
				checkParamsDecodeAgrees(t, frame[:len(frame)-cut], base, fmt.Sprintf("%s cut %d", what, cut))
			}
			for m, bad := range laneMutations[T](frame, d) {
				checkParamsDecodeAgrees(t, bad, base, fmt.Sprintf("%s lane mutation %d", what, m))
			}
			for m := 0; m < 12; m++ {
				checkParamsDecodeAgrees(t, mutateFrame(rng, frame, d), base, fmt.Sprintf("%s mutation %d", what, m))
			}
		}
	}
}

// TestParamsDeltaMatchesPortable holds the delta codec to the per-byte
// reference at both widths and on both decoder dispatches (the SIMD
// group body where the CPU runs it, and the portable word-at-a-time
// loop): byte-identical frames and bit-identical decodes on random,
// special-value and SGD-step inputs at d = 0…257 and 1001, and the
// same accept/reject, error and consumed count on truncated frames,
// on frames broken at every lane position of a group, and on randomly
// mutated frames.
func TestParamsDeltaMatchesPortable(t *testing.T) {
	t.Run("f64", func(t *testing.T) { eachDispatch(t, linalg.SIMDVBMI, checkParamsDeltaMatchesPortable[float64]) })
	t.Run("f32", func(t *testing.T) { eachDispatch(t, linalg.SIMDVBMI, checkParamsDeltaMatchesPortable[float32]) })
}

// checkInt8Frame encodes the rows through the int8 front door and the
// reference encoder and fails unless the frames are byte-identical,
// the frame decodes (and the in-place quantizer rounds) to the
// reference quantizer's grid values, and the scalar reference decoder
// reads the same frame to the same values.
func checkInt8Frame[T linalg.Float](t testing.TB, grads [][]T, what string) {
	t.Helper()
	files := make([]int, len(grads))
	for i := range files {
		files[i] = 3 * i
	}
	d := 0
	if len(grads) > 0 {
		d = len(grads[0])
	}
	enc := UplinkEncoderOf[T]{Tier: TierInt8}
	frame, _, _, err := enc.Encode([]byte{0xAB}, 2, files, grads)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := appendUplinkInt8Reference([]byte{0xAB}, 2, files, grads, d)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frame, ref) {
		t.Fatalf("%s: int8 frame differs from the reference:\n got %x\nwant %x", what, frame, ref)
	}
	dec := UplinkDecoderOf[T]{Tier: TierInt8}
	var f, rf GradFrameOf[T]
	_, consumed, err := dec.Decode(frame[1:], &f)
	if err != nil {
		t.Fatalf("%s: decode: %v", what, err)
	}
	if rc := decodeUplinkInt8Reference(frame[1:], &rf); consumed != rc {
		t.Fatalf("%s: decode consumed %d, reference %d", what, consumed, rc)
	}
	for i, g := range grads {
		inPlace := slices.Clone(g)
		Int8QuantizeInPlaceOf(inPlace)
		min, scale := int8ParamsReference(g)
		for j, v := range g {
			want := min + scale*T(int8QuantizeReference(v, min, scale))
			if !sameFloat(inPlace[j], want) || !sameFloat(f.Grads[i][j], want) || !sameFloat(rf.Grads[i][j], want) {
				t.Fatalf("%s: row %d value %d: in place %#x, wire %#x, reference decode %#x, reference %#x", what, i, j,
					linalg.Bits(inPlace[j]), linalg.Bits(f.Grads[i][j]), linalg.Bits(rf.Grads[i][j]), linalg.Bits(want))
			}
		}
	}
}

// nanBits returns a NaN at T's width with the given sign and payload
// (low mantissa bits; a payload without the quiet bit is signaling).
func nanBits[T linalg.Float](neg bool, payload uint64) T {
	bits := linalg.Bits(T(math.Inf(1))) | payload
	if neg {
		bits |= 1 << (8*linalg.Width[T]() - 1)
	}
	return linalg.FromBits[T](bits)
}

// int8Rows returns d-wide rows that stress the int8 scan and quantizer
// besides the random, special-value and SGD-step kinds: NaNs of both
// signs with distinct payloads at index 0 and later, ±0 extremes at the
// first, middle and last index, ±Inf, subnormals, constant rows, a
// range whose scale underflows to 0, and rows whose v − min overflows
// T.
func int8Rows[T linalg.Float](rng *rand.Rand, d int) [][]T {
	var rows [][]T
	for _, kind := range inputKinds {
		base, cur := deltaPair[T](rng, kind, d)
		if kind == "sgd" {
			// An SGD step's difference: a gradient's scale.
			for j := range cur {
				cur[j] -= base[j]
			}
		}
		rows = append(rows, cur)
	}
	if d == 0 {
		return rows
	}
	at := func(lo int) int { return lo + rng.Intn(d-lo) }
	signed := func(v T) T {
		if rng.Intn(2) == 0 {
			return -v
		}
		return v
	}
	g := gaussian[T](rng, d)
	g[0] = nanBits[T](false, 0x11)
	g[at(0)] = nanBits[T](true, 0x22|1<<20)
	rows = append(rows, g)
	if d > 1 {
		g = gaussian[T](rng, d)
		g[at(1)] = nanBits[T](true, 0x33)
		g[at(1)] = nanBits[T](false, 0x44|1<<21)
		rows = append(rows, g)
	}
	// Zero extremes: a non-negative row has min ±0 and a non-positive
	// one max ±0. The zeros sit at one or all of the first, middle and
	// last index, or at two later ones; the first takes a random sign
	// and the others the opposite one.
	for _, neg := range []bool{false, true} {
		for _, zeros := range [][]int{{0}, {d / 2}, {d - 1}, {0, d / 2, d - 1}, {1, 2}, {1, d/2 + 1}, {d / 2, d - 1}} {
			g = gaussian[T](rng, d)
			for j, v := range g {
				if v = T(math.Abs(float64(v))) + 1; neg {
					v = -v
				}
				g[j] = v
			}
			z := signed(0)
			for _, j := range zeros {
				g[min(j, d-1)] = z
				z = -z
			}
			rows = append(rows, g)
		}
	}
	g = gaussian[T](rng, d)
	g[at(0)] = T(math.Inf(1))
	g[at(0)] = T(math.Inf(-1))
	rows = append(rows, g)
	g = make([]T, d)
	for j := range g {
		g[j] = signed(linalg.FromBits[T](rng.Uint64() % (1 << 20)))
	}
	rows = append(rows, g)
	// Constant rows, and a range of two subnormal steps: its scale
	// underflows to 0, so the row quantizes like a constant one.
	c, z, u := make([]T, d), make([]T, d), make([]T, d)
	for j := range c {
		c[j], z[j], u[j] = 1.5, signed(0), linalg.FromBits[T](uint64(rng.Intn(3)))
	}
	rows = append(rows, c, z, u)
	big := maxFinite[T]()
	g = make([]T, d)
	for j := range g {
		g[j] = signed(big * T(0.5+rng.Float64()/2))
	}
	return append(rows, g)
}

func checkInt8MatchesReference[T linalg.Float](t *testing.T) {
	rng := rand.New(rand.NewSource(int64(60 + linalg.Width[T]())))
	for d := 0; d <= 257; d++ {
		rows := int8Rows[T](rng, d)
		checkInt8Frame(t, rows, fmt.Sprintf("d=%d", d))
		checkInt8Frame(t, rows[d%3:d%3+1], fmt.Sprintf("d=%d single row", d))
	}
	for _, d := range []int{1001, 16_008} {
		checkInt8Frame(t, int8Rows[T](rng, d), fmt.Sprintf("d=%d", d))
	}
}

// TestInt8QuantizeMatchesReference holds the int8 encoder, decoder and
// in-place quantizer to the two-scan math.Round reference at both widths
// and on both dispatches (the SIMD bodies where the CPU runs them, and
// the portable loops): byte-identical frames, and decoded and in-place
// values equal to the reference grid (a NaN as a NaN), on the int8Rows
// kinds at d = 0…257, 1001 and 16 008.
func TestInt8QuantizeMatchesReference(t *testing.T) {
	t.Run("f64", func(t *testing.T) { eachDispatch(t, linalg.SIMD, checkInt8MatchesReference[float64]) })
	t.Run("f32", func(t *testing.T) { eachDispatch(t, linalg.SIMD, checkInt8MatchesReference[float32]) })
}

// int8BoundaryCases returns (v, min, scale) triples at T's width on
// which rounding is most likely to go wrong: with min 0 and scale 1, t
// is v itself, so v runs over every half-step k+½ (k = 0…255) and its
// neighbours on each side, the largest value below ½, ±0, NaN and ±Inf;
// then a subnormal scale, a +Inf scale, and an offset v−min that
// overflows T.
func int8BoundaryCases[T linalg.Float]() [][3]T {
	next := func(x T, dir float64) T {
		if linalg.Width[T]() == 4 {
			return T(math.Nextafter32(float32(x), float32(dir)))
		}
		return T(math.Nextafter(float64(x), dir))
	}
	inf, nan := T(math.Inf(1)), T(math.NaN())
	var cases [][3]T
	add := func(v, min, scale T) { cases = append(cases, [3]T{v, min, scale}) }
	for k := 0; k <= 255; k++ {
		h := T(k) + 0.5
		add(h, 0, 1)
		add(next(h, math.Inf(-1)), 0, 1)
		add(next(h, math.Inf(1)), 0, 1)
		add(T(k), 0, 1)
	}
	add(next(0.5, 0), 0, 1) // 0.49999999999999994 at f64: floor(t+½) rounds it up
	add(T(0.49999999999999994), 0, 1)
	for _, v := range []T{0, T(math.Copysign(0, -1)), nan, inf, -inf, 255, 256, -1} {
		add(v, 0, 1)
	}
	tiny := next(0, 1) // the smallest subnormal
	for _, v := range []T{0, tiny, 2 * tiny, 3 * tiny, 7 * tiny, 1, -1, inf} {
		add(v, 0, tiny)
		add(v, tiny, tiny)
	}
	for _, v := range []T{0, 1, -1, inf, nan, 1e30} {
		add(v, 0, inf)
		add(v, -1, inf)
	}
	big := maxFinite[T]()
	add(big, -big, 1)      // v−min = +Inf
	add(-big, big, 1)      // v−min = −Inf
	add(big, -big, big/64) // +Inf / finite
	add(big, -big, inf)    // +Inf / +Inf = NaN
	return cases
}

// maxFinite returns T's largest finite value.
func maxFinite[T linalg.Float]() T {
	if linalg.Width[T]() == 4 {
		return linalg.FromBits[T](uint64(math.Float32bits(math.MaxFloat32)))
	}
	return linalg.FromBits[T](math.Float64bits(math.MaxFloat64))
}

// checkInt8QuantizeRow quantizes vs on one (min, scale) grid through
// int8QuantizeRow, the dispatching row loop, and fails on any byte the
// math.Round reference rounds differently.
func checkInt8QuantizeRow[T linalg.Float](t testing.TB, vs []T, min, scale T) {
	t.Helper()
	q := make([]byte, len(vs))
	int8QuantizeRow(q, vs, min, scale)
	for j, v := range vs {
		if want := int8QuantizeReference(v, min, scale); q[j] != want {
			t.Fatalf("int8QuantizeRow at %d: (%v, %v, %v) → %d, math.Round reference %d", j, v, min, scale, q[j], want)
		}
	}
}

func checkInt8RoundingBoundary[T linalg.Float](t *testing.T) {
	cases := int8BoundaryCases[T]()
	for _, c := range cases {
		v, min, scale := c[0], c[1], c[2]
		if got, want := int8Quantize(v, min, scale), int8QuantizeReference(v, min, scale); got != want {
			t.Errorf("int8Quantize(%v, %v, %v) = %d, math.Round reference %d", v, min, scale, got, want)
		}
	}
	// The same triples through the row loop, one row per (min, scale),
	// repeated past two whole SIMD blocks and a ragged tail.
	grids := map[[2]uint64][]T{}
	var order [][2]uint64
	for _, c := range cases {
		k := [2]uint64{linalg.Bits(c[1]), linalg.Bits(c[2])}
		if _, ok := grids[k]; !ok {
			order = append(order, k)
		}
		grids[k] = append(grids[k], c[0])
	}
	for _, k := range order {
		vs := grids[k]
		for len(vs) < 2*codecBlock+3 {
			vs = append(vs, vs...)
		}
		checkInt8QuantizeRow(t, vs, linalg.FromBits[T](k[0]), linalg.FromBits[T](k[1]))
	}
	// Whole rows through the frame: subnormal and overflowing ranges
	// reach the quantizer by way of int8Params.
	tiny := linalg.FromBits[T](1)
	big := maxFinite[T]()
	rows := [][]T{
		{0, tiny, 2 * tiny, 255 * tiny, 100 * tiny},
		{-big, big, 0, 1},
		{-big, big / 2, big / 3},
		{T(math.Inf(-1)), 0, 1, T(math.Inf(1))},
		{0, T(math.NaN()), 1},
		{T(math.Copysign(0, -1)), 0, 0},
	}
	half := make([]T, 256)
	for k := range half {
		half[k] = T(k) + 0.5 // min 0.5, max 255.5: scale 1, t = k exactly
	}
	rows = append(rows, half)
	for i, row := range rows {
		checkInt8Frame(t, [][]T{row}, fmt.Sprintf("boundary row %d", i))
	}
}

// TestInt8RoundingBoundary checks the truncate-and-compare rounding
// against math.Round at both widths and on both dispatches, alone and
// through the row loop, on every half-step of the grid, the values
// beside them, the classic floor(t+½) trap, signed zeros, NaN,
// infinities, subnormal and infinite scales, and overflowing offsets.
func TestInt8RoundingBoundary(t *testing.T) {
	t.Run("f64", func(t *testing.T) { eachDispatch(t, linalg.SIMD, checkInt8RoundingBoundary[float64]) })
	t.Run("f32", func(t *testing.T) { eachDispatch(t, linalg.SIMD, checkInt8RoundingBoundary[float32]) })
}

// fuzzFloats reads up to limit values of T's width from raw.
func fuzzFloats[T linalg.Float](raw []byte, limit int) []T {
	w := linalg.Width[T]()
	n := min(len(raw)/w, limit)
	out := make([]T, n)
	for i := range out {
		out[i] = linalg.FromBits[T](getBits[T](raw[i*w:]))
	}
	return out
}

// FuzzParamsDeltaMatchesPortable builds (base, cur) from fuzzed bits at
// both widths and holds the delta codec, on both decoder dispatches, to
// the per-byte reference: identical frames, identical decodes, and
// identical accept/reject and consumed on the frame overwritten at
// fuzzed positions, truncated at a fuzzed length, and on the raw fuzz
// bytes read as a frame.
func FuzzParamsDeltaMatchesPortable(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, []byte{1, 2, 3, 4, 5, 6, 7, 8, 0, 0, 0, 0, 0, 0, 0, 1}, []byte{5, 0x91}, uint16(3))
	f.Add([]byte{}, []byte{}, []byte{}, uint16(0))
	f.Fuzz(func(t *testing.T, rawBase, rawCur, edits []byte, cut uint16) {
		bothDispatches(func() {
			fuzzParamsDelta[float64](t, rawBase, rawCur, edits, cut)
			fuzzParamsDelta[float32](t, rawBase, rawCur, edits, cut)
		})
	})
}

func fuzzParamsDelta[T linalg.Float](t *testing.T, rawBase, rawCur, edits []byte, cut uint16) {
	base := fuzzFloats[T](rawBase, 64)
	cur := fuzzFloats[T](rawCur, 64)
	for len(cur) < len(base) {
		cur = append(cur, base[len(cur)])
	}
	cur = cur[:len(base)]
	frame, err := AppendParamsDeltaOf(nil, base, cur)
	if err != nil {
		t.Fatal(err)
	}
	if ref := appendParamsDeltaPortable(nil, base, cur); !bytes.Equal(frame, ref) {
		t.Fatalf("frame differs from the reference:\n got %x\nwant %x", frame, ref)
	}
	checkParamsDecodeAgrees(t, frame, base, "own frame")
	bad := slices.Clone(frame)
	for i := 0; i+1 < len(edits); i += 2 {
		if len(bad) > 0 {
			bad[int(edits[i])%len(bad)] = edits[i+1]
		}
	}
	checkParamsDecodeAgrees(t, bad, base, "edited frame")
	checkParamsDecodeAgrees(t, bad[:int(cut)%(len(bad)+1)], base, "truncated frame")
	checkParamsDecodeAgrees(t, edits, base, "raw bytes")
}

// FuzzInt8QuantizeMatchesReference holds the int8 rounding, the row
// quantizer and the encoder, on both dispatches, to the math.Round
// reference at both widths: on arbitrary (v, min, scale) triples, on
// the fuzzed row quantized onto the grid of its first two values, and
// on the fuzzed row's frame, which must be byte-identical and decode
// to the reference grid.
func FuzzInt8QuantizeMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0xe0, 0x3f, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f})
	f.Add([]byte{0x00, 0x00, 0x00, 0x3f, 0, 0, 0, 0, 0x00, 0x00, 0x80, 0x3f})
	f.Fuzz(func(t *testing.T, raw []byte) {
		bothDispatches(func() {
			fuzzInt8[float64](t, raw)
			fuzzInt8[float32](t, raw)
		})
	})
}

func fuzzInt8[T linalg.Float](t *testing.T, raw []byte) {
	vals := fuzzFloats[T](raw, 96)
	for i := 0; i+2 < len(vals); i++ {
		v, min, scale := vals[i], vals[i+1], vals[i+2]
		if got, want := int8Quantize(v, min, scale), int8QuantizeReference(v, min, scale); got != want {
			t.Fatalf("int8Quantize(%v, %v, %v) = %d, reference %d", v, min, scale, got, want)
		}
	}
	if len(vals) > 1 {
		checkInt8QuantizeRow(t, vals, vals[0], vals[1])
	}
	if len(vals) > 0 {
		checkInt8Frame(t, [][]T{vals}, "fuzzed row")
	}
}

// Micro-benchmarks at fleet-k60-int8's shape: one row of d = 16 008
// (softmax 2000×8), an SGD-step delta for the params codec. Each codec
// the SIMD bodies serve runs on them (/simd, where the CPU has them),
// on the portable bodies (/generic) and as its reference twin (/ref);
// the delta encoder has no SIMD body. Rates are MB/s of the vector's
// d·sizeof(T) bytes, as bench/'s wire.*_gbps rows count them.
const codecBenchDim = 16_008

var benchFrameSink []byte

func benchCodec[T linalg.Float](b *testing.B, name string, run func(b *testing.B)) {
	b.Run(name, func(b *testing.B) {
		b.SetBytes(int64(codecBenchDim * linalg.Width[T]()))
		b.ReportAllocs()
		run(b)
	})
}

// benchDispatches runs run as prefix/simd (skipped on a CPU without
// what has() reports) and prefix/generic.
func benchDispatches[T linalg.Float](b *testing.B, prefix string, has func() bool, run func(b *testing.B)) {
	benchCodec[T](b, prefix+"/simd", func(b *testing.B) {
		defer linalg.SetSIMD(linalg.SetSIMD(true))
		if !has() {
			b.Skip("this CPU lacks the SIMD codec bodies' features")
		}
		run(b)
	})
	benchCodec[T](b, prefix+"/generic", func(b *testing.B) {
		defer linalg.SetSIMD(linalg.SetSIMD(false))
		run(b)
	})
}

func benchUplinkInt8Encode[T linalg.Float](b *testing.B, prefix string) {
	rng := rand.New(rand.NewSource(1))
	grads := [][]T{gaussian[T](rng, codecBenchDim)}
	files := []int{7}
	var buf []byte
	benchDispatches[T](b, prefix, linalg.SIMD, func(b *testing.B) {
		enc := UplinkEncoderOf[T]{Tier: TierInt8}
		for i := 0; i < b.N; i++ {
			buf, _, _, _ = enc.Encode(buf[:0], 1, files, grads)
		}
	})
	benchCodec[T](b, prefix+"/ref", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buf, _ = appendUplinkInt8Reference(buf[:0], 1, files, grads, codecBenchDim)
		}
	})
	benchFrameSink = buf
}

// BenchmarkUplinkInt8Encode times the int8 uplink encoder against the
// two-scan math.Round reference.
func BenchmarkUplinkInt8Encode(b *testing.B) {
	benchUplinkInt8Encode[float64](b, "f64")
	benchUplinkInt8Encode[float32](b, "f32")
}

func benchUplinkInt8Decode[T linalg.Float](b *testing.B, prefix string) {
	rng := rand.New(rand.NewSource(3))
	enc := UplinkEncoderOf[T]{Tier: TierInt8}
	frame, _, _, err := enc.Encode(nil, 1, []int{7}, [][]T{gaussian[T](rng, codecBenchDim)})
	if err != nil {
		b.Fatal(err)
	}
	var f GradFrameOf[T]
	benchDispatches[T](b, prefix, linalg.SIMD, func(b *testing.B) {
		dec := UplinkDecoderOf[T]{Tier: TierInt8}
		for i := 0; i < b.N; i++ {
			if _, _, err := dec.Decode(frame, &f); err != nil {
				b.Fatal(err)
			}
		}
	})
	benchCodec[T](b, prefix+"/ref", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			decodeUplinkInt8Reference(frame, &f)
		}
	})
}

// BenchmarkUplinkInt8Decode times the int8 uplink decoder, which the PS
// runs once per report, against the scalar reference loop.
func BenchmarkUplinkInt8Decode(b *testing.B) {
	benchUplinkInt8Decode[float64](b, "f64")
	benchUplinkInt8Decode[float32](b, "f32")
}

func benchParamsDelta[T linalg.Float](b *testing.B, prefix string, decode bool) {
	rng := rand.New(rand.NewSource(2))
	base := gaussian[T](rng, codecBenchDim)
	cur := sgdStep(rng, base)
	frame, _ := AppendParamsDeltaOf(nil, base, cur)
	params := slices.Clone(base)
	if decode {
		// Decoding the same delta twice restores base, so the loop
		// toggles between the two vectors without a reset.
		benchDispatches[T](b, prefix, linalg.SIMDVBMI, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := DecodeParamsOf(frame, params); err != nil {
					b.Fatal(err)
				}
			}
		})
		benchCodec[T](b, prefix+"/ref", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := decodeParamsPortable(frame, params); err != nil {
					b.Fatal(err)
				}
			}
		})
		return
	}
	buf := frame[:0]
	benchCodec[T](b, prefix, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buf, _ = AppendParamsDeltaOf(buf[:0], base, cur)
		}
	})
	benchCodec[T](b, prefix+"/ref", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buf = appendParamsDeltaPortable(buf[:0], base, cur)
		}
	})
	benchFrameSink = buf
}

// BenchmarkParamsDeltaEncode times the word-at-a-time delta encoder
// against the per-byte reference.
func BenchmarkParamsDeltaEncode(b *testing.B) {
	benchParamsDelta[float64](b, "f64", false)
	benchParamsDelta[float32](b, "f32", false)
}

// BenchmarkParamsDeltaDecode times the delta decoder, on the SIMD group
// body and on the word-at-a-time loop, against the per-byte reference.
func BenchmarkParamsDeltaDecode(b *testing.B) {
	benchParamsDelta[float64](b, "f64", true)
	benchParamsDelta[float32](b, "f32", true)
}
