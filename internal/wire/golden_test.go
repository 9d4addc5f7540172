package wire

import (
	"bufio"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"byzshield/internal/linalg"
)

// Golden wire bytes. Loopback identity tests run the same code on both
// ends, so a symmetric format change (a swapped field, a widened scale)
// passes them silently. The fixtures in testdata/golden_frames.txt were
// captured from the hand-written f64 and f32 codecs before they were
// folded into one generic implementation; TestGoldenFrames asserts that
// every frame mode at both widths still emits exactly those bytes and
// decodes them back to exactly those values. Regenerate (only on a
// deliberate protocol bump) with
//
//	go test ./internal/wire -run TestGoldenFrames -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_frames.txt from the current codecs")

const goldenPath = "testdata/golden_frames.txt"

// goldenCodec is one precision's codec set behind closures, reached
// only through the historical exported names, so this file compiles
// unchanged against the pre-generic and the generic package.
type goldenCodec[T linalg.Float] struct {
	width        string
	appendGrad   func(dst []byte, worker int, files []int, grads [][]T) ([]byte, error)
	gradSize     func(n, d int) int
	paramsFull   func(dst []byte, params []T) ([]byte, error)
	paramsDelta  func(dst []byte, base, cur []T) ([]byte, error)
	fullSize     func(d int) int
	decodeParams func(src []byte, params []T) (mode, consumed int, err error)
	tierSize     map[UplinkTier]func(n, d int) int
	// newStream returns an encoder and a decoder at tier.
	newStream func(tier UplinkTier) (
		enc func(dst []byte, worker int, files []int, grads [][]T) ([]byte, int, int, error),
		dec func(src []byte) (mode, consumed, worker int, files []int, grads [][]T, err error))
	decodeGrad func(src []byte) (consumed, worker int, files []int, grads [][]T, err error)
}

func goldenF64() goldenCodec[float64] {
	return goldenCodec[float64]{
		width:        "f64",
		appendGrad:   AppendGradFrame,
		gradSize:     GradFrameSize,
		paramsFull:   AppendParamsFull,
		paramsDelta:  AppendParamsDelta,
		fullSize:     ParamsFullSize,
		decodeParams: DecodeParams,
		tierSize: map[UplinkTier]func(n, d int) int{
			TierRaw: UplinkRawSize, TierSign: UplinkSignSize, TierInt8: UplinkInt8Size,
		},
		newStream: func(tier UplinkTier) (
			func([]byte, int, []int, [][]float64) ([]byte, int, int, error),
			func([]byte) (int, int, int, []int, [][]float64, error)) {
			enc := &UplinkEncoder{Tier: tier}
			dec := &UplinkDecoder{Tier: tier}
			return enc.Encode, func(src []byte) (int, int, int, []int, [][]float64, error) {
				var f GradFrame
				mode, consumed, err := dec.Decode(src, &f)
				return mode, consumed, f.Worker, f.Files, f.Grads, err
			}
		},
		decodeGrad: func(src []byte) (int, int, []int, [][]float64, error) {
			var f GradFrame
			consumed, err := DecodeGradFrame(src, &f)
			return consumed, f.Worker, f.Files, f.Grads, err
		},
	}
}

func goldenF32() goldenCodec[float32] {
	return goldenCodec[float32]{
		width:        "f32",
		appendGrad:   AppendGradFrame32,
		gradSize:     GradFrame32Size,
		paramsFull:   AppendParamsFull32,
		paramsDelta:  AppendParamsDelta32,
		fullSize:     ParamsFull32Size,
		decodeParams: DecodeParams32,
		tierSize: map[UplinkTier]func(n, d int) int{
			TierRaw: UplinkRaw32Size, TierSign: UplinkSign32Size, TierInt8: UplinkInt832Size,
		},
		newStream: func(tier UplinkTier) (
			func([]byte, int, []int, [][]float32) ([]byte, int, int, error),
			func([]byte) (int, int, int, []int, [][]float32, error)) {
			enc := &UplinkEncoder32{Tier: tier}
			dec := &UplinkDecoder32{Tier: tier}
			return enc.Encode, func(src []byte) (int, int, int, []int, [][]float32, error) {
				var f GradFrame32
				mode, consumed, err := dec.Decode(src, &f)
				return mode, consumed, f.Worker, f.Files, f.Grads, err
			}
		},
		decodeGrad: func(src []byte) (int, int, []int, [][]float32, error) {
			var f GradFrame32
			consumed, err := DecodeGradFrame32(src, &f)
			return consumed, f.Worker, f.Files, f.Grads, err
		},
	}
}

// goldenBits returns v's IEEE-754 pattern and byte width. The type
// switch is deliberate: the fixtures must not depend on any bit helper
// of the package under test.
func goldenBits[T linalg.Float](v T) (uint64, int) {
	switch x := any(v).(type) {
	case float32:
		return uint64(math.Float32bits(x)), 4
	case float64:
		return math.Float64bits(x), 8
	}
	panic("unreachable")
}

// goldenNaN returns a quiet NaN carrying a payload at T's width.
func goldenNaN[T linalg.Float]() T {
	var z T
	switch p := any(&z).(type) {
	case *float32:
		*p = math.Float32frombits(0x7fc00123)
	case *float64:
		*p = math.Float64frombits(0x7ff8000000000123)
	}
	return z
}

// goldenSubnormal returns the smallest positive subnormal of T.
func goldenSubnormal[T linalg.Float]() T {
	var z T
	switch p := any(&z).(type) {
	case *float32:
		*p = math.Float32frombits(1)
	case *float64:
		*p = math.Float64frombits(1)
	}
	return z
}

// valuesHex renders rows as the concatenated little-endian bit
// patterns of their values.
func valuesHex[T linalg.Float](rows ...[]T) string {
	var b []byte
	for _, r := range rows {
		for _, v := range r {
			x, w := goldenBits(v)
			for k := 0; k < w; k++ {
				b = append(b, byte(x>>(8*k)))
			}
		}
	}
	return hex.EncodeToString(b)
}

// goldenCases runs every frame mode of c over fixed inputs and records
// "<width>.<case>.frame" (the encoded bytes) and "<width>.<case>.values"
// (the decoded values' bit patterns) into out.
func goldenCases[T linalg.Float](t *testing.T, c goldenCodec[T], out map[string]string) {
	t.Helper()
	put := func(name string, frame []byte, vals string) {
		out[c.width+"."+name+".frame"] = hex.EncodeToString(frame)
		out[c.width+"."+name+".values"] = vals
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	negZero := T(math.Copysign(0, -1))
	inf := T(math.Inf(1))
	// Lossless inputs carry every bit pattern class a codec could
	// mangle: NaN payload, signed zero, subnormal, infinity.
	special := [][]T{
		{1.5, -2.25, 0, negZero, inf},
		{goldenNaN[T](), goldenSubnormal[T](), T(math.MaxFloat32), 1e-3, -7},
	}
	// The params delta's target: low-mantissa changes, unchanged
	// coordinates, and one full-width flip, so delta lengths span 0..max.
	next := [][]T{
		{1.5000001, -2.25, 0, 0, inf},
		{goldenNaN[T](), goldenSubnormal[T]() * 3, -T(math.MaxFloat32), 1.0001e-3, -7},
	}
	// Lossy inputs are finite (a NaN sign scale is refused) and 11 wide,
	// so the sign tier's last byte carries padding bits.
	finite := [][]T{
		{-3, -1, 0, 0.5, 5, negZero, 1e-3, 0.25, -0.125, 4.75, 2},
		{2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2},
		{-1e-3, 3e-3, -2e-3, 7e-3, 0, 1e-3, -5e-3, 4e-3, 6e-3, -6e-3, 2e-3},
	}
	files2, files3 := []int{3, 70000}, []int{0, 9, 24}

	// Gradient frame, populated and empty.
	for _, gc := range []struct {
		name  string
		files []int
		grads [][]T
	}{{"grad", files2, special}, {"grad-empty", nil, nil}} {
		frame, err := c.appendGrad(nil, 65537, gc.files, gc.grads)
		must(err)
		d := 0
		if len(gc.grads) > 0 {
			d = len(gc.grads[0])
		}
		if len(frame) != c.gradSize(len(gc.files), d) {
			t.Fatalf("%s %s: %d bytes, size helper says %d", c.width, gc.name, len(frame), c.gradSize(len(gc.files), d))
		}
		consumed, worker, files, grads, err := c.decodeGrad(frame)
		must(err)
		if consumed != len(frame) || worker != 65537 || fmt.Sprint(files) != fmt.Sprint(append([]int{}, gc.files...)) {
			t.Fatalf("%s %s: consumed %d worker %d files %v", c.width, gc.name, consumed, worker, files)
		}
		put(gc.name, frame, valuesHex(grads...))
	}

	// Params full and delta.
	base, cur := append(append([]T{}, special[0]...), special[1]...), append(append([]T{}, next[0]...), next[1]...)
	base, cur = base[:9], cur[:9] // odd count: the delta frame has a padding nibble
	full, err := c.paramsFull(nil, cur)
	must(err)
	if len(full) != c.fullSize(len(cur)) {
		t.Fatalf("%s params-full: %d bytes, size helper says %d", c.width, len(full), c.fullSize(len(cur)))
	}
	got := make([]T, len(cur))
	mode, consumed, err := c.decodeParams(full, got)
	must(err)
	if mode != ParamsFull || consumed != len(full) {
		t.Fatalf("%s params-full: mode %d consumed %d", c.width, mode, consumed)
	}
	put("params-full", full, valuesHex(got))
	delta, err := c.paramsDelta(nil, base, cur)
	must(err)
	got = append(got[:0], base...)
	mode, consumed, err = c.decodeParams(delta, got)
	must(err)
	if mode != ParamsDelta || consumed != len(delta) {
		t.Fatalf("%s params-delta: mode %d consumed %d", c.width, mode, consumed)
	}
	put("params-delta", delta, valuesHex(got))

	// Uplink tiers, one frame each.
	for _, uc := range []struct {
		name  string
		tier  UplinkTier
		files []int
		grads [][]T
		mode  int
	}{
		{"uplink-raw-0", TierRaw, files2, special, UplinkRaw},
		{"uplink-sign-0", TierSign, files3, finite, UplinkSign},
		{"uplink-int8-0", TierInt8, files3, finite, UplinkInt8},
	} {
		enc, dec := c.newStream(uc.tier)
		frame, mode, rawSize, err := enc(nil, 12, uc.files, uc.grads)
		must(err)
		n, d := len(uc.files), len(uc.grads[0])
		if mode != uc.mode || rawSize != c.tierSize[TierRaw](n, d) || len(frame) != c.tierSize[uc.tier](n, d) {
			t.Fatalf("%s %s: mode %d rawSize %d, %d bytes", c.width, uc.name, mode, rawSize, len(frame))
		}
		gotMode, consumed, worker, files, got, err := dec(frame)
		must(err)
		if gotMode != mode || consumed != len(frame) || worker != 12 || fmt.Sprint(files) != fmt.Sprint(uc.files) {
			t.Fatalf("%s %s: mode %d consumed %d worker %d files %v", c.width, uc.name, gotMode, consumed, worker, files)
		}
		if !uc.tier.Lossy() && valuesHex(got...) != valuesHex(uc.grads...) {
			t.Fatalf("%s %s: lossless tier did not round-trip bit-exactly", c.width, uc.name)
		}
		put(uc.name, frame, valuesHex(got...))
	}
}

func TestGoldenFrames(t *testing.T) {
	got := map[string]string{}
	goldenCases(t, goldenF64(), got)
	goldenCases(t, goldenF32(), got)
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	if *updateGolden {
		var sb strings.Builder
		fmt.Fprintf(&sb, "# Golden wire frames, protocol v%d. Generated by\n", ProtocolVersion)
		sb.WriteString("#   go test ./internal/wire -run TestGoldenFrames -update-golden\n")
		sb.WriteString("# <width>.<case>.frame = encoded bytes; .values = decoded bit patterns.\n")
		for _, k := range keys {
			fmt.Fprintf(&sb, "%s %s\n", k, got[k])
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		k, v, _ := strings.Cut(line, " ")
		want[k] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("fixture has %d entries, codecs produced %d", len(want), len(got))
	}
	for _, k := range keys {
		w, ok := want[k]
		if !ok {
			t.Errorf("%s: missing from %s", k, goldenPath)
		} else if w != got[k] {
			t.Errorf("%s:\n got  %s\n want %s", k, got[k], w)
		}
	}
}
