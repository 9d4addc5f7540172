package wire

import (
	"math"
	"math/rand"
	"testing"
)

// randGrads32 builds n random f32 gradient rows of dimension d.
func randGrads32(rng *rand.Rand, n, d int) [][]float32 {
	g := make([][]float32, n)
	for i := range g {
		g[i] = make([]float32, d)
		for j := range g[i] {
			g[i][j] = float32(rng.NormFloat64())
		}
	}
	return g
}

func TestPrecision(t *testing.T) {
	if PrecisionF64 != 0 {
		t.Fatal("f64 must be the zero value so legacy configs stay full precision")
	}
	for _, p := range []Precision{PrecisionF64, PrecisionF32} {
		if !p.Valid() {
			t.Fatalf("%s not valid", p)
		}
		got, err := ParsePrecision(p.String())
		if err != nil || got != p {
			t.Fatalf("ParsePrecision(%q) = %v, %v", p.String(), got, err)
		}
		if AllPrecisionsMask&p.Mask() == 0 {
			t.Fatalf("%s missing from AllPrecisionsMask", p)
		}
	}
	if Precision(2).Valid() {
		t.Fatal("precision 2 must be invalid")
	}
	if _, err := ParsePrecision("f16"); err == nil {
		t.Fatal("want error for unknown precision")
	}
}

func TestGradFrame32RoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, shape := range [][2]int{{0, 0}, {1, 1}, {3, 7}, {5, 33}} {
		n, d := shape[0], shape[1]
		grads := randGrads32(rng, n, d)
		files := make([]int, n)
		for i := range files {
			files[i] = 10 + i
		}
		buf, err := AppendGradFrame32(nil, 42, files, grads)
		if err != nil {
			t.Fatal(err)
		}
		if len(buf) != GradFrame32Size(n, d) {
			t.Fatalf("n=%d d=%d: encoded %d bytes, GradFrame32Size says %d", n, d, len(buf), GradFrame32Size(n, d))
		}
		var f GradFrame32
		consumed, err := DecodeGradFrame32(buf, &f)
		if err != nil {
			t.Fatal(err)
		}
		if consumed != len(buf) || f.Worker != 42 {
			t.Fatalf("consumed %d worker %d", consumed, f.Worker)
		}
		for i := range grads {
			if f.Files[i] != files[i] {
				t.Fatalf("file %d mismatch", i)
			}
			for j := range grads[i] {
				if math.Float32bits(f.Grads[i][j]) != math.Float32bits(grads[i][j]) {
					t.Fatalf("value %d/%d not bit-identical", i, j)
				}
			}
		}
	}
}

func TestParams32RoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	base := make([]float32, 301)
	cur := make([]float32, 301)
	for i := range base {
		base[i] = float32(rng.NormFloat64())
		cur[i] = base[i]
		if i%3 == 0 {
			cur[i] += float32(rng.NormFloat64()) * 1e-3
		}
	}
	full, err := AppendParamsFull32(nil, cur)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != ParamsFull32Size(len(cur)) {
		t.Fatalf("full frame %d bytes, ParamsFull32Size says %d", len(full), ParamsFull32Size(len(cur)))
	}
	got := make([]float32, len(cur))
	mode, consumed, err := DecodeParams32(full, got)
	if err != nil || mode != ParamsFull || consumed != len(full) {
		t.Fatalf("full decode: mode=%d consumed=%d err=%v", mode, consumed, err)
	}
	for i := range cur {
		if math.Float32bits(got[i]) != math.Float32bits(cur[i]) {
			t.Fatalf("full coordinate %d not bit-identical", i)
		}
	}

	delta, err := AppendParamsDelta32(nil, base, cur)
	if err != nil {
		t.Fatal(err)
	}
	if len(delta) >= len(full) {
		t.Fatalf("sparse delta (%d bytes) not smaller than full (%d bytes)", len(delta), len(full))
	}
	got2 := append([]float32(nil), base...)
	mode, consumed, err = DecodeParams32(delta, got2)
	if err != nil || mode != ParamsDelta || consumed != len(delta) {
		t.Fatalf("delta decode: mode=%d consumed=%d err=%v", mode, consumed, err)
	}
	for i := range cur {
		if math.Float32bits(got2[i]) != math.Float32bits(cur[i]) {
			t.Fatalf("delta coordinate %d not bit-identical", i)
		}
	}
}

func TestDecodeParams32RejectsF64Lengths(t *testing.T) {
	// A nibble length of 5–8 is legal for the f64 codec but impossible
	// for a u32 XOR; the f32 decoder must reject it.
	cur := []float32{1}
	frame := []byte{ParamsDelta, 1, 0, 0, 0, 0x05, 1, 2, 3, 4, 5}
	if _, _, err := DecodeParams32(frame, cur); err == nil {
		t.Fatal("want error for f32 delta length > 4")
	}
}

// TestUplink32TierGating checks decoders reject modes outside their
// tier.
func TestUplink32TierGating(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	grads := randGrads32(rng, 1, 5)
	files := []int{0}
	raw := &UplinkEncoder32{Tier: TierRaw}
	buf, _, _, err := raw.Encode(nil, 1, files, grads)
	if err != nil {
		t.Fatal(err)
	}
	for _, tier := range []UplinkTier{TierSign, TierInt8} {
		dec := &UplinkDecoder32{Tier: tier}
		var f GradFrame32
		if _, _, err := dec.Decode(buf, &f); err == nil {
			t.Fatalf("tier %s accepted a raw frame", tier)
		}
	}
	sign := &UplinkEncoder32{Tier: TierSign}
	sbuf, mode, _, err := sign.Encode(nil, 1, files, grads)
	if err != nil || mode != UplinkSign {
		t.Fatalf("sign encode: mode=%d err=%v", mode, err)
	}
	dec := &UplinkDecoder32{Tier: TierRaw}
	var f GradFrame32
	if _, _, err := dec.Decode(sbuf, &f); err == nil {
		t.Fatal("raw tier accepted a sign frame")
	}
}

// TestUplink32QuantMatchesInPlace pins the engine==wire determinism
// contract at f32: decode(encode(g)) must equal the in-place helpers.
func TestUplink32QuantMatchesInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, tc := range []struct {
		tier    UplinkTier
		inPlace func([]float32)
	}{
		{TierSign, SignQuantizeInPlace32},
		{TierInt8, Int8QuantizeInPlace32},
	} {
		grads := randGrads32(rng, 3, 19)
		files := []int{1, 2, 3}
		enc := &UplinkEncoder32{Tier: tc.tier}
		buf, _, _, err := enc.Encode(nil, 2, files, grads)
		if err != nil {
			t.Fatal(err)
		}
		dec := &UplinkDecoder32{Tier: tc.tier}
		var f GradFrame32
		if _, _, err := dec.Decode(buf, &f); err != nil {
			t.Fatal(err)
		}
		for i := range grads {
			tc.inPlace(grads[i])
			for j := range grads[i] {
				if math.Float32bits(f.Grads[i][j]) != math.Float32bits(grads[i][j]) {
					t.Fatalf("tier %s: wire row %d[%d]=%v, in-place %v", tc.tier, i, j, f.Grads[i][j], grads[i][j])
				}
			}
		}
	}
}

// TestUplink32SizeHelpers pins the size formulas against real encodes.
func TestUplink32SizeHelpers(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n, d := 3, 21
	grads := randGrads32(rng, n, d)
	files := []int{5, 6, 7}
	for _, tc := range []struct {
		tier UplinkTier
		want int
	}{
		{TierRaw, UplinkRaw32Size(n, d)},
		{TierSign, UplinkSign32Size(n, d)},
		{TierInt8, UplinkInt832Size(n, d)},
	} {
		enc := &UplinkEncoder32{Tier: tc.tier}
		buf, _, _, err := enc.Encode(nil, 1, files, grads)
		if err != nil {
			t.Fatal(err)
		}
		if len(buf) != tc.want {
			t.Fatalf("tier %s: encoded %d bytes, size helper says %d", tc.tier, len(buf), tc.want)
		}
	}
}

// TestUplink32SignRejectsNaNScale mirrors the f64 refusal: a gradient
// whose mean abs is NaN must fail at encode time, not poison the wire.
func TestUplink32SignRejectsNaNScale(t *testing.T) {
	enc := &UplinkEncoder32{Tier: TierSign}
	grads := [][]float32{{float32(math.NaN()), 1}}
	if _, _, _, err := enc.Encode(nil, 0, []int{0}, grads); err == nil {
		t.Fatal("want error for NaN sign scale")
	}
}

func FuzzDecodeGradFrame32(f *testing.F) {
	seed, _ := AppendGradFrame32(nil, 1, []int{2, 3}, [][]float32{{1, 2}, {3, 4}})
	f.Add(seed)
	f.Add([]byte{0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var g GradFrame32
		consumed, err := DecodeGradFrame32(data, &g)
		if err == nil && (consumed < 4+gradFrameHeader || consumed > len(data)) {
			t.Fatalf("consumed %d of %d", consumed, len(data))
		}
	})
}

func FuzzParams32DeltaRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, []byte{8, 7, 6, 5, 4, 3, 2, 1})
	f.Fuzz(func(t *testing.T, a, b []byte) {
		d := min(len(a), len(b)) / 4
		base := make([]float32, d)
		cur := make([]float32, d)
		for i := 0; i < d; i++ {
			base[i] = math.Float32frombits(uint32(a[i*4]) | uint32(a[i*4+1])<<8 | uint32(a[i*4+2])<<16 | uint32(a[i*4+3])<<24)
			cur[i] = math.Float32frombits(uint32(b[i*4]) | uint32(b[i*4+1])<<8 | uint32(b[i*4+2])<<16 | uint32(b[i*4+3])<<24)
		}
		frame, err := AppendParamsDelta32(nil, base, cur)
		if err != nil {
			t.Fatal(err)
		}
		got := append([]float32(nil), base...)
		if _, _, err := DecodeParams32(frame, got); err != nil {
			t.Fatal(err)
		}
		for i := range cur {
			if math.Float32bits(got[i]) != math.Float32bits(cur[i]) {
				t.Fatalf("coordinate %d not bit-identical", i)
			}
		}
	})
}

func FuzzDecodeParams32(f *testing.F) {
	full, _ := AppendParamsFull32(nil, []float32{1, 2, 3})
	f.Add(full, uint16(3))
	f.Add([]byte{ParamsDelta, 3, 0, 0, 0, 0, 0}, uint16(3))
	f.Fuzz(func(t *testing.T, data []byte, d16 uint16) {
		params := make([]float32, int(d16)%64)
		_, consumed, err := DecodeParams32(data, params)
		if err == nil && consumed > len(data) {
			t.Fatalf("consumed %d of %d", consumed, len(data))
		}
	})
}

// FuzzDecodeUplink32 is FuzzDecodeUplink at float32.
func FuzzDecodeUplink32(f *testing.F) {
	for _, tier := range allTiers {
		seed, _, _, _ := (&UplinkEncoder32{Tier: tier}).Encode(nil, 1, []int{2}, [][]float32{{1, 2, 3}})
		f.Add(seed)
	}
	f.Fuzz(fuzzDecodeUplink[float32])
}

func FuzzUplinkQuant32RoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(TierSign))
	f.Add([]byte{8, 7, 6, 5, 4, 3, 2, 1}, uint8(TierInt8))
	f.Fuzz(func(t *testing.T, raw []byte, tierByte uint8) {
		tier := TierSign
		if tierByte%2 == 1 {
			tier = TierInt8
		}
		d := len(raw) / 4
		g := make([]float32, d)
		for i := 0; i < d; i++ {
			g[i] = math.Float32frombits(uint32(raw[i*4]) | uint32(raw[i*4+1])<<8 | uint32(raw[i*4+2])<<16 | uint32(raw[i*4+3])<<24)
		}
		want := append([]float32(nil), g...)
		if tier == TierSign {
			SignQuantizeInPlace32(want)
		} else {
			Int8QuantizeInPlace32(want)
		}
		enc := &UplinkEncoder32{Tier: tier}
		buf, _, _, err := enc.Encode(nil, 0, []int{0}, [][]float32{g})
		if err != nil {
			// Non-finite scales are refused; nothing to round-trip.
			return
		}
		dec := &UplinkDecoder32{Tier: tier}
		var fr GradFrame32
		if _, _, err := dec.Decode(buf, &fr); err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if math.Float32bits(fr.Grads[0][j]) != math.Float32bits(want[j]) {
				t.Fatalf("tier %s: wire %v, in-place %v at %d", tier, fr.Grads[0][j], want[j], j)
			}
		}
	})
}
