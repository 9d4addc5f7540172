package wire

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// quantizeReport applies the tier's in-place helper to a copy of the
// report — the values the engine pinned to the tier would aggregate.
func quantizeReport(tier UplinkTier, grads [][]float64) [][]float64 {
	out := make([][]float64, len(grads))
	for i, g := range grads {
		out[i] = slices.Clone(g)
		switch tier {
		case TierSign:
			SignQuantizeInPlace(out[i])
		case TierInt8:
			Int8QuantizeInPlace(out[i])
		}
	}
	return out
}

// TestUplinkTierSpellings pins the flag spellings, the parse round
// trip, the zero value, and the deleted delta tier's spelling.
func TestUplinkTierSpellings(t *testing.T) {
	for _, tier := range allTiers {
		got, err := ParseUplinkTier(tier.String())
		if err != nil || got != tier {
			t.Errorf("ParseUplinkTier(%q) = %v, %v", tier.String(), got, err)
		}
	}
	for _, bad := range []string{"gzip", "delta"} {
		if _, err := ParseUplinkTier(bad); err == nil {
			t.Errorf("ParseUplinkTier accepted %q", bad)
		}
	}
	var zero UplinkTier
	if zero != TierRaw {
		t.Error("the zero tier is not raw")
	}
	if TierSign.Lossy() != true || TierInt8.Lossy() != true || TierRaw.Lossy() || UplinkTier(3).Valid() {
		t.Error("Lossy() or Valid() wrong for some tier")
	}
}

// TestUplinkQuantRoundTrip streams reports through sign and int8
// encoder/decoder pairs: every decode must equal the in-place helper
// bit-for-bit (the loopback == engine property), hit the documented
// frame size, and beat the raw encoding by the tier's design ratio.
func TestUplinkQuantRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	files := []int{2, 7, 19}
	for _, tier := range []UplinkTier{TierSign, TierInt8} {
		enc := UplinkEncoder{Tier: tier}
		dec := UplinkDecoder{Tier: tier}
		var f GradFrame
		grads := report(rng, 3, 50)
		for round := 0; round < 4; round++ {
			frame, mode, rawSize, err := enc.Encode(nil, 4, files, grads)
			if err != nil {
				t.Fatal(err)
			}
			wantMode, wantSize := UplinkSign, UplinkSignSize(3, 50)
			if tier == TierInt8 {
				wantMode, wantSize = UplinkInt8, UplinkInt8Size(3, 50)
			}
			if mode != wantMode {
				t.Fatalf("%s round %d: mode %d, want %d", tier, round, mode, wantMode)
			}
			if len(frame) != wantSize {
				t.Fatalf("%s round %d: frame %d bytes, want %d", tier, round, len(frame), wantSize)
			}
			if rawSize != UplinkRawSize(3, 50) {
				t.Fatalf("%s round %d: rawSize %d, want %d", tier, round, rawSize, UplinkRawSize(3, 50))
			}
			if 4*len(frame) > rawSize {
				t.Fatalf("%s round %d: frame %d bytes does not cut raw %d by ≥4×", tier, round, len(frame), rawSize)
			}
			if got := decodeOne(t, &dec, frame, &f); got != mode {
				t.Fatalf("%s round %d: decoder saw mode %d", tier, round, got)
			}
			checkReport(t, &f, 4, files, quantizeReport(tier, grads))
			grads = perturbReport(rng, grads)
		}
	}
}

// TestUplinkQuantSpecialValues: signed zeros, infinities, and extreme
// magnitudes dequantize to exactly what the in-place helpers compute,
// and a NaN gradient fails the sign encode instead of emitting a frame
// the decoder would reject.
func TestUplinkQuantSpecialValues(t *testing.T) {
	files := []int{3}
	special := [][]float64{{0, math.Copysign(0, -1), 1e300, -1e-300, math.Inf(1), 2}}
	for _, tier := range []UplinkTier{TierSign, TierInt8} {
		enc := UplinkEncoder{Tier: tier}
		dec := UplinkDecoder{Tier: tier}
		var f GradFrame
		frame, _, _, err := enc.Encode(nil, 2, files, special)
		if err != nil {
			t.Fatalf("%s: %v", tier, err)
		}
		decodeOne(t, &dec, frame, &f)
		checkReport(t, &f, 2, files, quantizeReport(tier, special))
	}
	enc := UplinkEncoder{Tier: TierSign}
	if _, _, _, err := enc.Encode(nil, 2, files, [][]float64{{1, math.NaN()}}); err == nil {
		t.Error("sign encode accepted a NaN gradient")
	}
}

// TestUplinkQuantTierStrict: each decoder accepts exactly its tier's
// modes — a lossless frame on a lossy stream (or vice versa) poisons
// the stream instead of silently changing codecs.
func TestUplinkQuantTierStrict(t *testing.T) {
	files := []int{1}
	grads := [][]float64{{1, -2, 3}}
	frames := map[UplinkTier][]byte{}
	for _, tier := range allTiers {
		enc := UplinkEncoder{Tier: tier}
		frame, _, _, err := enc.Encode(nil, 0, files, grads)
		if err != nil {
			t.Fatal(err)
		}
		frames[tier] = frame
	}
	for _, decTier := range allTiers {
		for _, encTier := range allTiers {
			dec := UplinkDecoder{Tier: decTier}
			var f GradFrame
			_, _, err := dec.Decode(frames[encTier], &f)
			if want := decTier == encTier; (err == nil) != want {
				t.Errorf("tier %s decoder, %s frame: err=%v, want accept=%v", decTier, encTier, err, want)
			}
		}
	}
}

// TestUplinkSignRejects: non-canonical sign frames — negative or NaN
// scales, set padding bits, truncation — are all errors.
func TestUplinkSignRejects(t *testing.T) {
	enc := UplinkEncoder{Tier: TierSign}
	frame, _, _, err := enc.Encode(nil, 1, []int{0}, [][]float64{{1, -2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	scaleAt := quantHeader + 4 // one file id, then the row scale
	cases := map[string][]byte{
		"truncated": frame[:len(frame)-1],
		"neg scale": func() []byte {
			b := slices.Clone(frame)
			b[scaleAt+7] |= 0x80
			return b
		}(),
		"nan scale": func() []byte {
			b := slices.Clone(frame)
			copy(b[scaleAt:], []byte{1, 0, 0, 0, 0, 0, 0xf0, 0x7f})
			return b
		}(),
		"padding bits": func() []byte {
			b := slices.Clone(frame)
			b[len(b)-1] |= 0x80 // d=3, bits 3..7 are padding
			return b
		}(),
	}
	dec := UplinkDecoder{Tier: TierSign}
	var f GradFrame
	for name, bad := range cases {
		if _, _, err := dec.Decode(bad, &f); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, _, err := dec.Decode(frame, &f); err != nil {
		t.Fatalf("rejected frames poisoned the (stateless) decoder: %v", err)
	}
}

// TestUplinkInt8Grid: int8 dequantization lands every value on the
// row's 256-point grid with the extremes mapped exactly, and a
// constant row (scale 0) reproduces the constant.
func TestUplinkInt8Grid(t *testing.T) {
	g := []float64{-3, -1, 0, 0.5, 5}
	q := slices.Clone(g)
	Int8QuantizeInPlace(q)
	if q[0] != -3 {
		t.Errorf("row min %v, want -3 exactly", q[0])
	}
	min, scale := int8Params(g)
	if got := min + scale*255; q[4] != got {
		t.Errorf("row max %v, want %v", q[4], got)
	}
	for i, v := range q {
		steps := math.Round((v - min) / scale)
		if v != min+scale*steps {
			t.Errorf("value %d (%v) off the quantization grid", i, v)
		}
	}
	c := []float64{2.5, 2.5, 2.5}
	Int8QuantizeInPlace(c)
	for _, v := range c {
		if v != 2.5 {
			t.Errorf("constant row quantized to %v", v)
		}
	}
}

// FuzzUplinkQuantRoundTrip builds a report from fuzz bits and checks
// the load-bearing determinism property for both lossy tiers: the
// wire round trip delivers bit-for-bit the values the in-place helper
// computes, so the engine pinned to a tier reproduces the wire path.
func FuzzUplinkQuantRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Add([]byte{0x80, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, raw []byte) {
		d := len(raw) / 8
		if d > 32 {
			d = 32
		}
		if d == 0 {
			return
		}
		g := make([]float64, d)
		for i := 0; i < d; i++ {
			var x uint64
			for b := 0; b < 8; b++ {
				x |= uint64(raw[i*8+b]) << (8 * b)
			}
			g[i] = math.Float64frombits(x)
		}
		files := []int{5}
		grads := [][]float64{g}
		for _, tier := range []UplinkTier{TierSign, TierInt8} {
			enc := UplinkEncoder{Tier: tier}
			dec := UplinkDecoder{Tier: tier}
			frame, _, _, err := enc.Encode(nil, 1, files, grads)
			if err != nil {
				// Sign refuses NaN scales; nothing to round-trip.
				continue
			}
			var fr GradFrame
			_, consumed, err := dec.Decode(frame, &fr)
			if err != nil {
				t.Fatalf("%s: decode own frame: %v", tier, err)
			}
			if consumed != len(frame) {
				t.Fatalf("%s: consumed %d of %d", tier, consumed, len(frame))
			}
			want := quantizeReport(tier, grads)
			for i := 0; i < d; i++ {
				if math.Float64bits(fr.Grads[0][i]) != math.Float64bits(want[0][i]) {
					t.Fatalf("%s: value %d: wire %x, engine %x", tier, i,
						math.Float64bits(fr.Grads[0][i]), math.Float64bits(want[0][i]))
				}
			}
		}
	})
}

// FuzzDecodeUplinkSign feeds arbitrary bytes to a sign-tier decoder:
// decoding must never panic, and any accepted frame must be canonical
// — rebuilding it from the decoded values (scale = |value|, bit =
// !signbit) reproduces exactly the consumed bytes.
func FuzzDecodeUplinkSign(f *testing.F) {
	var seedEnc UplinkEncoder
	seedEnc.Tier = TierSign
	seed, _, _, _ := seedEnc.Encode(nil, 1, []int{2, 9}, [][]float64{{1, -2, 0.5}, {3, 0, -0.25}})
	f.Add(seed)
	f.Add([]byte{UplinkSign, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := UplinkDecoder{Tier: TierSign}
		var fr GradFrame
		mode, consumed, err := dec.Decode(data, &fr)
		if err != nil {
			return
		}
		if mode != UplinkSign || consumed > len(data) {
			t.Fatalf("mode %d consumed %d of %d", mode, consumed, len(data))
		}
		re := reencodeSign(&fr)
		if !bytes.Equal(re, data[:consumed]) {
			t.Fatalf("re-encode differs from consumed bytes:\n got %x\nwant %x", re, data[:consumed])
		}
	})
}

// FuzzDecodeUplinkInt8 feeds arbitrary bytes to an int8-tier decoder:
// decoding must never panic, allocation is bounded by the input, and
// an accepted frame dequantizes deterministically (two decodes agree
// bit-for-bit). Int8 frames are not forced byte-canonical — distinct
// (min, scale, q) triples can dequantize to the same row — so unlike
// the sign target there is no re-encode check; determinism is the
// property aggregation needs.
func FuzzDecodeUplinkInt8(f *testing.F) {
	var seedEnc UplinkEncoder
	seedEnc.Tier = TierInt8
	seed, _, _, _ := seedEnc.Encode(nil, 1, []int{2, 9}, [][]float64{{1, -2, 0.5}, {3, 0, -0.25}})
	f.Add(seed)
	f.Add([]byte{UplinkInt8, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := UplinkDecoder{Tier: TierInt8}
		var a, b GradFrame
		mode, consumed, err := dec.Decode(data, &a)
		if err != nil {
			return
		}
		if mode != UplinkInt8 || consumed > len(data) {
			t.Fatalf("mode %d consumed %d of %d", mode, consumed, len(data))
		}
		if _, consumed2, err := dec.Decode(data, &b); err != nil || consumed2 != consumed {
			t.Fatalf("re-decode: consumed %d err %v, first decode consumed %d", consumed2, err, consumed)
		}
		if a.Worker != b.Worker || !slices.Equal(a.Files, b.Files) {
			t.Fatal("re-decode header differs")
		}
		for i := range a.Grads {
			for j := range a.Grads[i] {
				if math.Float64bits(a.Grads[i][j]) != math.Float64bits(b.Grads[i][j]) {
					t.Fatalf("re-decode value (%d,%d) differs", i, j)
				}
			}
		}
	})
}
