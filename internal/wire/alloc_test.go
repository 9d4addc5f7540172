package wire

import (
	"testing"

	"byzshield/internal/linalg"
)

// allocReports returns two same-shape reports that differ in a third of
// their low-order bits.
func allocReports[T linalg.Float]() (a, b [][]T) {
	const n, d = 3, 257
	a, b = make([][]T, n), make([][]T, n)
	for i := range a {
		a[i], b[i] = make([]T, d), make([]T, d)
		for j := range a[i] {
			a[i][j] = T(i+1) * T(j-100) * 0.125
			b[i][j] = a[i][j]
			if j%3 == 0 {
				b[i][j] *= 1.0001
			}
		}
	}
	return a, b
}

// uplinkSteadyStateAllocs pins every uplink tier at zero allocations
// per frame on both ends once the stream's buffers have grown: the
// simulator workloads sit at single-digit allocations per round and the
// fleets encode and decode hundreds of frames per round, so one escape
// in a codec is a whole-benchmark regression.
func uplinkSteadyStateAllocs[T linalg.Float](t *testing.T) {
	// The encoders grow dst with append(dst, make([]byte, n)...), which
	// the compiler turns into an in-place extension — except under the
	// race detector, whose instrumentation materializes the temporary.
	// Calibrate on the idiom itself rather than on a build tag.
	probe, n := make([]byte, 0, 64), len(t.Name()) // n: not a compile-time constant
	if testing.AllocsPerRun(10, func() { probe = append(probe[:0], make([]byte, n)...) }) != 0 {
		t.Skip("this build mode allocates in append(dst, make(...)...); allocation pins need a plain build")
	}
	files := []int{4, 9, 11}
	a, b := allocReports[T]()
	for _, tier := range allTiers {
		enc := &UplinkEncoderOf[T]{Tier: tier}
		var buf []byte
		encode := func(g [][]T) []byte {
			out, _, _, err := enc.Encode(buf[:0], 1, files, g)
			if err != nil {
				t.Fatal(err)
			}
			buf = out
			return out
		}
		// The stream a, b, a: the frames the decoder replays below.
		f0 := append([]byte(nil), encode(a)...)
		f1 := append([]byte(nil), encode(b)...)
		f2 := append([]byte(nil), encode(a)...)
		if allocs := testing.AllocsPerRun(50, func() { encode(b); encode(a) }); allocs != 0 {
			t.Errorf("tier %s: Encode allocates %v per two frames, want 0", tier, allocs)
		}

		dec := &UplinkDecoderOf[T]{Tier: tier}
		var fr GradFrameOf[T]
		decode := func(f []byte) {
			if _, _, err := dec.Decode(f, &fr); err != nil {
				t.Fatal(err)
			}
		}
		decode(f0)
		if allocs := testing.AllocsPerRun(50, func() { decode(f1); decode(f2) }); allocs != 0 {
			t.Errorf("tier %s: Decode allocates %v per two frames, want 0", tier, allocs)
		}
	}
}

func TestUplinkSteadyStateAllocFree(t *testing.T)   { uplinkSteadyStateAllocs[float64](t) }
func TestUplink32SteadyStateAllocFree(t *testing.T) { uplinkSteadyStateAllocs[float32](t) }

// TestQuantizeInPlaceAllocFree pins the in-place quantizers, which the
// engine runs on every lossy-tier report, at zero allocations on both
// int8 dispatches at both widths.
func TestQuantizeInPlaceAllocFree(t *testing.T) {
	a64, _ := allocReports[float64]()
	a32, _ := allocReports[float32]()
	eachDispatch(t, linalg.SIMD, func(t *testing.T) {
		for name, run := range map[string]func(){
			"int8/f64": func() { Int8QuantizeInPlaceOf(a64[0]) },
			"int8/f32": func() { Int8QuantizeInPlaceOf(a32[0]) },
			"sign/f64": func() { SignQuantizeInPlaceOf(a64[1]) },
			"sign/f32": func() { SignQuantizeInPlaceOf(a32[1]) },
		} {
			if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
				t.Errorf("%s: %v allocations per call, want 0", name, allocs)
			}
		}
	})
}
