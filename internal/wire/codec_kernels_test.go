package wire

import (
	"bytes"
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

// appendUplinkInt8Reference is the two-scan int8 encoder: int8Params
// once for the (min, scale) table and again per value row, and the
// math.Round quantizer.
func appendUplinkInt8Reference[T linalg.Float](dst []byte, worker int, files []int, grads [][]T, d int) ([]byte, error) {
	dst, err := appendReportHeader(append(dst, UplinkInt8), worker, files, d)
	if err != nil {
		return nil, err
	}
	for _, g := range grads {
		min, scale := int8Params(g)
		dst = appendFloat(dst, min)
		dst = appendFloat(dst, scale)
	}
	for _, g := range grads {
		min, scale := int8Params(g)
		for _, v := range g {
			dst = append(dst, int8QuantizeReference(v, min, scale))
		}
	}
	return dst, nil
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

func checkParamsDeltaMatchesPortable[T linalg.Float](t *testing.T) {
	rng := rand.New(rand.NewSource(int64(40 + linalg.Width[T]())))
	for _, d := range []int{0, 1, 2, 3, 4, 7, 8, 15, 16, 17, 31, 32, 33, 100, 1001} {
		for _, kind := range inputKinds {
			for rep := 0; rep < 8; rep++ {
				what := fmt.Sprintf("d=%d %s rep %d", d, kind, rep)
				base, cur := deltaPair[T](rng, kind, d)
				prefix := []byte{0xEE, 0xDD, 0xCC}[:1+rep%3]
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
				// Every truncation near the end: the last 16 bytes
				// straddle the fast path's cut-off at each of them.
				for cut := 0; cut <= 20 && cut <= len(frame); cut++ {
					checkParamsDecodeAgrees(t, frame[:len(frame)-cut], base, fmt.Sprintf("%s cut %d", what, cut))
				}
				for m := 0; m < 40; m++ {
					checkParamsDecodeAgrees(t, mutateFrame(rng, frame, d), base, fmt.Sprintf("%s mutation %d", what, m))
				}
			}
		}
	}
}

// TestParamsDeltaMatchesPortable holds the word-at-a-time delta codec
// to the per-byte reference at both widths: byte-identical frames and
// bit-identical decodes on random, special-value and SGD-step inputs,
// and the same accept/reject, error and consumed count on truncated and
// randomly mutated frames.
func TestParamsDeltaMatchesPortable(t *testing.T) {
	t.Run("f64", checkParamsDeltaMatchesPortable[float64])
	t.Run("f32", checkParamsDeltaMatchesPortable[float32])
}

// checkInt8Frame encodes the rows through the int8 front door and the
// reference encoder and fails unless the frames are byte-identical,
// the frame decodes to the in-place quantization, and that equals the
// reference quantizer's grid values.
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
	var f GradFrameOf[T]
	if _, _, err := dec.Decode(frame[1:], &f); err != nil {
		t.Fatalf("%s: decode: %v", what, err)
	}
	for i, g := range grads {
		inPlace := slices.Clone(g)
		Int8QuantizeInPlaceOf(inPlace)
		min, scale := int8Params(g)
		for j, v := range g {
			want := min + scale*T(int8QuantizeReference(v, min, scale))
			if linalg.Bits(inPlace[j]) != linalg.Bits(want) || linalg.Bits(f.Grads[i][j]) != linalg.Bits(want) {
				t.Fatalf("%s: row %d value %d: in place %#x, wire %#x, reference %#x", what, i, j,
					linalg.Bits(inPlace[j]), linalg.Bits(f.Grads[i][j]), linalg.Bits(want))
			}
		}
	}
}

func checkInt8MatchesReference[T linalg.Float](t *testing.T) {
	rng := rand.New(rand.NewSource(int64(60 + linalg.Width[T]())))
	for _, d := range []int{0, 1, 2, 17, 1001} {
		for _, n := range []int{1, 3} {
			for _, kind := range inputKinds {
				for rep := 0; rep < 6; rep++ {
					grads := make([][]T, n)
					for i := range grads {
						base, cur := deltaPair[T](rng, kind, d)
						if kind == "sgd" {
							// An SGD step's difference: a gradient's scale.
							for j := range cur {
								cur[j] -= base[j]
							}
						}
						grads[i] = cur
					}
					checkInt8Frame(t, grads, fmt.Sprintf("d=%d n=%d %s rep %d", d, n, kind, rep))
				}
			}
		}
	}
}

// TestInt8QuantizeMatchesReference holds the one-scan int8 encoder and
// its truncate-and-compare rounding to the two-scan math.Round
// reference at both widths: byte-identical frames, and decoded and
// in-place values bit-identical to the reference grid, on random,
// special-value and SGD-step rows.
func TestInt8QuantizeMatchesReference(t *testing.T) {
	t.Run("f64", checkInt8MatchesReference[float64])
	t.Run("f32", checkInt8MatchesReference[float32])
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

func checkInt8RoundingBoundary[T linalg.Float](t *testing.T) {
	for _, c := range int8BoundaryCases[T]() {
		v, min, scale := c[0], c[1], c[2]
		if got, want := int8Quantize(v, min, scale), int8QuantizeReference(v, min, scale); got != want {
			t.Errorf("int8Quantize(%v, %v, %v) = %d, math.Round reference %d", v, min, scale, got, want)
		}
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
// against math.Round at both widths on every half-step of the grid, the
// values beside them, the classic floor(t+½) trap, signed zeros, NaN,
// infinities, subnormal and infinite scales, and overflowing offsets.
func TestInt8RoundingBoundary(t *testing.T) {
	t.Run("f64", checkInt8RoundingBoundary[float64])
	t.Run("f32", checkInt8RoundingBoundary[float32])
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
// both widths and holds the delta codec to the per-byte reference:
// identical frames, identical decodes, and identical accept/reject and
// consumed on the frame overwritten at fuzzed positions, truncated at
// a fuzzed length, and on the raw fuzz bytes read as a frame.
func FuzzParamsDeltaMatchesPortable(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, []byte{1, 2, 3, 4, 5, 6, 7, 8, 0, 0, 0, 0, 0, 0, 0, 1}, []byte{5, 0x91}, uint16(3))
	f.Add([]byte{}, []byte{}, []byte{}, uint16(0))
	f.Fuzz(func(t *testing.T, rawBase, rawCur, edits []byte, cut uint16) {
		fuzzParamsDelta[float64](t, rawBase, rawCur, edits, cut)
		fuzzParamsDelta[float32](t, rawBase, rawCur, edits, cut)
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

// FuzzInt8QuantizeMatchesReference holds the int8 rounding and the
// one-scan encoder to the math.Round reference at both widths: on
// arbitrary (v, min, scale) triples, and on a fuzzed row whose frame
// must be byte-identical and decode bit-identically.
func FuzzInt8QuantizeMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0xe0, 0x3f, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f})
	f.Add([]byte{0x00, 0x00, 0x00, 0x3f, 0, 0, 0, 0, 0x00, 0x00, 0x80, 0x3f})
	f.Fuzz(func(t *testing.T, raw []byte) {
		fuzzInt8[float64](t, raw)
		fuzzInt8[float32](t, raw)
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
	if len(vals) > 0 {
		checkInt8Frame(t, [][]T{vals}, "fuzzed row")
	}
}

// Micro-benchmarks at fleet-k60-int8's shape: one row of d = 16 008
// (softmax 2000×8), an SGD-step delta for the params codec. Each runs
// beside its reference twin and reports MB/s of the vector's d·sizeof(T)
// bytes, as bench/'s wire.*_gbps rows count them.
const codecBenchDim = 16_008

var benchFrameSink []byte

func benchCodec[T linalg.Float](b *testing.B, name string, run func(b *testing.B)) {
	b.Run(name, func(b *testing.B) {
		b.SetBytes(int64(codecBenchDim * linalg.Width[T]()))
		b.ReportAllocs()
		run(b)
	})
}

func benchUplinkInt8Encode[T linalg.Float](b *testing.B, prefix string) {
	rng := rand.New(rand.NewSource(1))
	grads := [][]T{gaussian[T](rng, codecBenchDim)}
	files := []int{7}
	var buf []byte
	benchCodec[T](b, prefix, func(b *testing.B) {
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

func benchParamsDelta[T linalg.Float](b *testing.B, prefix string, decode bool) {
	rng := rand.New(rand.NewSource(2))
	base := gaussian[T](rng, codecBenchDim)
	cur := sgdStep(rng, base)
	frame, _ := AppendParamsDeltaOf(nil, base, cur)
	params := slices.Clone(base)
	if decode {
		// Decoding the same delta twice restores base, so the loop
		// toggles between the two vectors without a reset.
		benchCodec[T](b, prefix, func(b *testing.B) {
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

// BenchmarkParamsDeltaDecode times the word-at-a-time delta decoder
// against the per-byte reference.
func BenchmarkParamsDeltaDecode(b *testing.B) {
	benchParamsDelta[float64](b, "f64", true)
	benchParamsDelta[float32](b, "f32", true)
}
