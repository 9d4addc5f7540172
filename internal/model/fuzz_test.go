package model

import (
	"encoding/binary"
	"math"
	"testing"

	"byzshield/internal/data"
	"byzshield/internal/linalg"
)

// fuzzSpecials are the values a fuzz byte below len(fuzzSpecials)
// decodes to: NaNs of both signs with distinct payloads (quiet and
// signalling), ±0, ±Inf, subnormals and values whose products overflow.
var fuzzSpecials = []float64{
	math.NaN(), math.Copysign(math.NaN(), -1),
	math.Float64frombits(0x7ff0_0000_0000_0001), math.Float64frombits(0xfff4_0000_0000_0abc),
	0, math.Copysign(0, -1), 0, math.Copysign(0, -1),
	math.Inf(1), math.Inf(-1),
	math.Float64frombits(1), math.Float64frombits(1 | 1<<63),
	0x1p-1060, 0x1p1000, -0x1p1000, math.MaxFloat64,
}

// sameFloat reports whether a and b have the same bits or are both NaN.
// A NaN's payload is left out: Go does not specify which operand's
// payload a NaN result carries, and the compiler's operand order for
// the scalar loops, which decides it, differs between a plain build and
// one instrumented for fuzzing or -race.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// FuzzMLPGradient decodes an MLP, its parameters, a dataset, a file of
// its samples and a starting gradient from the fuzz input, and holds
// SumGradient and Loss at both kernel dispatches (linalg's AVX-512
// bodies, where the CPU has them, and the portable ones) to the
// one-sample reference loops bit for bit, a NaN matching any NaN. A
// value is one byte: below len(fuzzSpecials) a special value, 0xff the
// next 8 bytes as raw bits, anything else a small multiple of 1/64; the
// bytes repeat as needed.
func FuzzMLPGradient(f *testing.F) {
	f.Add(uint8(64), uint8(128), uint8(10), uint8(30), false, []byte("\x80\x91\x70\xa3\x6e\x85\x79\x9c\x00\x05\x88\x62"))
	f.Add(uint8(16), uint8(16), uint8(10), uint8(13), false, []byte("\x40\x90\xc0\x30\x04\x05\x85\x75"))
	f.Add(uint8(3), uint8(9), uint8(3), uint8(17), true, []byte("\x00\x01\x02\x03\x08\x09\x0c\x0d\xff\x01\x00\x00\x00\x00\x00\xf0\x7f"))
	f.Fuzz(func(t *testing.T, in, hidden, classes, size uint8, deep bool, raw []byte) {
		if len(raw) == 0 {
			return
		}
		pos := 0
		next := func() byte {
			b := raw[pos%len(raw)]
			pos++
			return b
		}
		value := func() float64 {
			switch c := next(); {
			case int(c) < len(fuzzSpecials):
				return fuzzSpecials[c]
			case c == 0xff:
				var b [8]byte
				for i := range b {
					b[i] = next()
				}
				return math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
			default:
				return float64(int(c)-128) / 64
			}
		}
		dims := []int{1 + int(in)%70, 1 + int(hidden)%140}
		if deep {
			dims = append(dims, 1+int(hidden)%23)
		}
		dims = append(dims, 2+int(classes)%11)
		m, err := NewMLP(dims...)
		if err != nil {
			t.Fatal(err)
		}
		params := make([]float64, m.NumParams())
		for i := range params {
			params[i] = value()
		}
		ds := &data.Dataset{Classes: m.Classes()}
		for range 1 + int(size)%9 {
			x := make([]float64, m.InputDim())
			for j := range x {
				x[j] = value()
			}
			ds.X = append(ds.X, x)
			ds.Y = append(ds.Y, int(next())%m.Classes())
		}
		idx := make([]int, int(size)%31)
		for k := range idx {
			idx[k] = int(next()) % ds.Len()
		}
		start := make([]float64, m.NumParams())
		for i := range start {
			start[i] = value()
		}
		want := append([]float64(nil), start...)
		mlpSumGradientRef(m, params, ds, idx, want)
		wantLoss := mlpLossRef(m, params, ds, idx)
		defer linalg.SetSIMD(linalg.SetSIMD(true))
		for _, simd := range []bool{true, false} {
			linalg.SetSIMD(simd)
			got := append([]float64(nil), start...)
			m.SumGradient(params, ds, idx, got)
			for i, g := range got {
				if !sameFloat(g, want[i]) {
					t.Fatalf("simd=%v %s gradient over %v: [%d] = %#x, reference %#x",
						simd, m.Name(), idx, i, math.Float64bits(g), math.Float64bits(want[i]))
				}
			}
			if l := m.Loss(params, ds, idx); !sameFloat(l, wantLoss) {
				t.Fatalf("simd=%v %s loss over %v = %v, reference %v", simd, m.Name(), idx, l, wantLoss)
			}
		}
	})
}
