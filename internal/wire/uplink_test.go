package wire

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"

	"byzshield/internal/linalg"
)

// allTiers lists every defined uplink tier.
var allTiers = []UplinkTier{TierRaw, TierSign, TierInt8}

// report builds a deterministic n×d gradient report.
func report(rng *rand.Rand, n, d int) [][]float64 {
	grads := make([][]float64, n)
	for i := range grads {
		g := make([]float64, d)
		for j := range g {
			g[j] = rng.NormFloat64()
		}
		grads[i] = g
	}
	return grads
}

// perturbReport adds SGD-noise-sized jitter, leaving some values
// exactly unchanged (the correlated-consecutive-reports regime).
func perturbReport(rng *rand.Rand, grads [][]float64) [][]float64 {
	out := make([][]float64, len(grads))
	for i, g := range grads {
		out[i] = perturb(rng, g)
	}
	return out
}

// decodeOne decodes a single uplink frame, requiring full consumption.
func decodeOne(t *testing.T, dec *UplinkDecoder, frame []byte, f *GradFrame) int {
	t.Helper()
	mode, consumed, err := dec.Decode(frame, f)
	if err != nil {
		t.Fatal(err)
	}
	if consumed != len(frame) {
		t.Fatalf("consumed %d of %d bytes", consumed, len(frame))
	}
	return mode
}

// checkReport compares a decoded frame against the expected report
// bit-for-bit.
func checkReport(t *testing.T, f *GradFrame, worker int, files []int, grads [][]float64) {
	t.Helper()
	if f.Worker != worker {
		t.Fatalf("worker %d, want %d", f.Worker, worker)
	}
	if !slices.Equal(f.Files, files) {
		t.Fatalf("files %v, want %v", f.Files, files)
	}
	for i, g := range grads {
		for j, v := range g {
			if math.Float64bits(f.Grads[i][j]) != math.Float64bits(v) {
				t.Fatalf("value (%d,%d): bits %x, want %x", i, j,
					math.Float64bits(f.Grads[i][j]), math.Float64bits(v))
			}
		}
	}
}

// TestUplinkStreamRoundTrip drives several rounds of correlated
// reports through a zero-valued encoder/decoder pair: the zero tier is
// raw, so every frame is a raw frame of exactly the raw size, and every
// decode is bit-exact.
func TestUplinkStreamRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	files := []int{2, 7, 19}
	grads := report(rng, 3, 50)
	var enc UplinkEncoder
	var dec UplinkDecoder
	var f GradFrame
	for round := 0; round < 6; round++ {
		frame, mode, rawSize, err := enc.Encode(nil, 4, files, grads)
		if err != nil {
			t.Fatal(err)
		}
		if mode != UplinkRaw || len(frame) != rawSize || rawSize != UplinkRawSize(3, 50) {
			t.Fatalf("round %d: mode %d, %d bytes, rawSize %d", round, mode, len(frame), rawSize)
		}
		decodeOne(t, &dec, frame, &f)
		checkReport(t, &f, 4, files, grads)
		grads = perturbReport(rng, grads)
	}
}

// TestUplinkDecoderNoDelta: mode 2 was the XOR-delta frame until
// protocol v9 and is unassigned now — a decoder of every tier rejects
// it, whatever follows the mode byte.
func TestUplinkDecoderNoDelta(t *testing.T) {
	raw, _, _, err := (&UplinkEncoder{}).Encode(nil, 1, []int{1, 2}, [][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	relabeled := slices.Clone(raw)
	relabeled[0] = 2
	// A v8 delta frame: worker 1, one file (id 5) of two values, both
	// unchanged against its base.
	v8Delta := []byte{2, 1, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 5, 0, 0, 0, 0}
	for _, tier := range allTiers {
		for _, frame := range [][]byte{relabeled, v8Delta, {2}} {
			var f GradFrame
			if _, _, err := (&UplinkDecoder{Tier: tier}).Decode(frame, &f); err == nil {
				t.Errorf("tier %s decoder accepted mode-2 frame %x", tier, frame)
			}
			var f32 GradFrame32
			if _, _, err := (&UplinkDecoder32{Tier: tier}).Decode(frame, &f32); err == nil {
				t.Errorf("tier %s f32 decoder accepted mode-2 frame %x", tier, frame)
			}
		}
	}
}

// TestUplinkSpecialValues: NaN payloads, infinities, and signed zeros
// survive the raw round-trip bit-for-bit.
func TestUplinkSpecialValues(t *testing.T) {
	files := []int{3}
	a := [][]float64{{0, math.Copysign(0, -1), 1, math.Inf(1), math.NaN(), 2}}
	b := [][]float64{{math.Copysign(0, -1), 0, math.NaN(), 1, math.Inf(-1), 2}}
	var enc UplinkEncoder
	var dec UplinkDecoder
	var f GradFrame
	for _, grads := range [][][]float64{a, b} {
		frame, _, _, err := enc.Encode(nil, 2, files, grads)
		if err != nil {
			t.Fatal(err)
		}
		decodeOne(t, &dec, frame, &f)
		checkReport(t, &f, 2, files, grads)
	}
}

// TestUplinkDecoderRejects: unknown modes, truncation and a lying
// payload length are errors, and — the decoder being stateless — a
// rejected frame changes nothing for the next one.
func TestUplinkDecoderRejects(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	files := []int{1, 4}
	grads := report(rng, 2, 6)
	raw, _, _, err := (&UplinkEncoder{}).Encode(nil, 3, files, grads)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":      {},
		"mode 0":     {0, 0, 0},
		"bad mode":   {9, 0, 0},
		"truncated":  raw[:len(raw)-1],
		"long count": func() []byte { b := slices.Clone(raw); b[1]++; return b }(),
		"wrong dims": func() []byte { b := slices.Clone(raw); b[13] = 7; return b }(),
	}
	var dec UplinkDecoder
	var f GradFrame
	for name, frame := range cases {
		if _, _, err := dec.Decode(frame, &f); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	decodeOne(t, &dec, raw, &f)
	checkReport(t, &f, 3, files, grads)

	// An undefined tier names no frame mode: its encoder refuses, and its
	// decoder accepts nothing — not even an int8 frame relabelled mode 0.
	undefined := UplinkTier(7)
	if _, _, _, err := (&UplinkEncoder{Tier: undefined}).Encode(nil, 3, files, grads); err == nil {
		t.Error("undefined-tier encoder accepted a report")
	}
	int8Frame, _, _, err := (&UplinkEncoder{Tier: TierInt8}).Encode(nil, 3, files, grads)
	if err != nil {
		t.Fatal(err)
	}
	int8Frame[0] = 0
	if _, _, err := (&UplinkDecoder{Tier: undefined}).Decode(int8Frame, &f); err == nil {
		t.Error("undefined-tier decoder accepted a mode-0 frame")
	}
}

// FuzzUplinkRoundTrip builds one report from fuzz bits and sends it as
// a single frame through every tier: the frame has the tier's mode and
// documented size, and decodes to exactly the report (raw) or to the
// tier's in-place quantization of it (sign, int8).
func FuzzUplinkRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add([]byte{0xFF, 0, 0, 0, 0, 0, 0xf8, 0x7f})
	f.Fuzz(func(t *testing.T, raw []byte) {
		d := min(len(raw)/8, 32)
		if d == 0 {
			return
		}
		g := make([]float64, d)
		for i := range g {
			g[i] = math.Float64frombits(getBits[float64](raw[i*8:]))
		}
		files, grads := []int{5}, [][]float64{g}
		sizes := map[UplinkTier]func(n, d int) int{TierRaw: UplinkRawSize, TierSign: UplinkSignSize, TierInt8: UplinkInt8Size}
		for _, tier := range allTiers {
			frame, mode, _, err := (&UplinkEncoder{Tier: tier}).Encode(nil, 1, files, grads)
			if err != nil {
				if tier == TierSign {
					continue // a NaN scale is refused; nothing to round-trip
				}
				t.Fatalf("%s: %v", tier, err)
			}
			if mode != tier.mode() || len(frame) != sizes[tier](1, d) {
				t.Fatalf("%s: mode %d, %d bytes, want %d", tier, mode, len(frame), sizes[tier](1, d))
			}
			var fr GradFrame
			decodeOne(t, &UplinkDecoder{Tier: tier}, frame, &fr)
			checkReport(t, &fr, 1, files, quantizeReport(tier, grads))
		}
	})
}

// FuzzDecodeUplink feeds arbitrary bytes to a float64 decoder of every
// tier; see fuzzDecodeUplink.
func FuzzDecodeUplink(f *testing.F) {
	grads := [][]float64{{1, -2, 0.5}, {3, 0, -0.25}}
	for _, tier := range allTiers {
		seed, _, _, _ := (&UplinkEncoder{Tier: tier}).Encode(nil, 1, []int{2, 9}, grads)
		f.Add(seed)
	}
	f.Add([]byte{2, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 0})
	f.Fuzz(fuzzDecodeUplink[float64])
}

// fuzzDecodeUplink decodes data at every tier. Decoding never panics,
// mode 2 is always rejected, an accepted raw or sign frame re-encodes to
// exactly the consumed bytes, and an accepted int8 frame — not
// byte-canonical, since distinct (min, scale, q) triples can dequantize
// to one row — reaches a decode → encode → decode fixed point within a
// few steps.
func fuzzDecodeUplink[T linalg.Float](t *testing.T, data []byte) {
	for _, tier := range allTiers {
		dec := UplinkDecoderOf[T]{Tier: tier}
		var fr GradFrameOf[T]
		mode, consumed, err := dec.Decode(data, &fr)
		if err != nil {
			continue
		}
		if mode == 2 || mode != tier.mode() || consumed > len(data) {
			t.Fatalf("tier %s: accepted mode %d, consumed %d of %d", tier, mode, consumed, len(data))
		}
		var re []byte
		switch tier {
		case TierRaw:
			if re, _, _, err = (&UplinkEncoderOf[T]{}).Encode(nil, fr.Worker, fr.Files, fr.Grads); err != nil {
				t.Fatalf("accepted raw frame fails to re-encode: %v", err)
			}
		case TierSign:
			re = reencodeSign(&fr)
		case TierInt8:
			int8FixedPoint(t, &fr)
			continue
		}
		if !bytes.Equal(re, data[:consumed]) {
			t.Fatalf("tier %s: re-encode differs from consumed bytes:\n got %x\nwant %x", tier, re, data[:consumed])
		}
	}
}

// reencodeSign rebuilds a decoded sign frame from its values: a row's
// scale is any value's magnitude, a coordinate's bit its sign.
func reencodeSign[T linalg.Float](fr *GradFrameOf[T]) []byte {
	d := 0
	if len(fr.Grads) > 0 {
		d = len(fr.Grads[0])
	}
	re, _ := appendReportHeader([]byte{UplinkSign}, fr.Worker, fr.Files, d)
	magnitude := ^(uint64(1) << (8*linalg.Width[T]() - 1))
	for _, g := range fr.Grads {
		var s T
		if d > 0 {
			s = linalg.FromBits[T](linalg.Bits(g[0]) & magnitude)
		}
		re = appendFloat(re, s)
	}
	for _, g := range fr.Grads {
		at := len(re)
		re = append(re, make([]byte, signBytesPerRow(d))...)
		for j, v := range g {
			if !signBit(v) {
				re[at+j/8] |= 1 << (j % 8)
			}
		}
	}
	return re
}

// int8FixedPoint re-encodes a decoded int8 frame and decodes it again
// until the frame stops changing, which takes at most three steps:
// after one every row's extremes sit at q = 0 and 255, after another no
// value collapses further. Each row's scale field is left out of the
// comparison: re-deriving (max − min)/255 from dequantized extremes can
// move it by an ulp per step, for dozens of steps, before it settles.
func int8FixedPoint[T linalg.Float](t *testing.T, fr *GradFrameOf[T]) {
	t.Helper()
	enc, dec := UplinkEncoderOf[T]{Tier: TierInt8}, UplinkDecoderOf[T]{Tier: TierInt8}
	w := linalg.Width[T]()
	var prev []byte
	for step := 0; step < 4; step++ {
		frame, _, _, err := enc.Encode(nil, fr.Worker, fr.Files, fr.Grads)
		if err != nil {
			t.Fatalf("step %d: decoded int8 frame fails to re-encode: %v", step, err)
		}
		if _, _, err := dec.Decode(frame, fr); err != nil {
			t.Fatalf("step %d: re-encoded int8 frame rejected: %v", step, err)
		}
		for i := range fr.Files {
			at := quantHeader + 4*len(fr.Files) + (2*i+1)*w
			clear(frame[at : at+w])
		}
		if bytes.Equal(frame, prev) {
			return
		}
		prev = frame
	}
	t.Fatalf("int8 decode → encode did not reach a fixed point in 3 steps: last frame %x", prev)
}
