package attack

import (
	"math"
	"math/rand"
	"testing"

	"byzshield/internal/linalg"
)

func testContext() *Context {
	grads := [][]float64{
		{1, 2}, {1.2, 1.8}, {0.8, 2.2}, {1.1, 2.1}, {0.9, 1.9},
	}
	return &Context{
		Round:             3,
		Dim:               2,
		FileGradients:     grads,
		CorruptibleFiles:  []int{1, 3},
		Participants:      5,
		ExpectedCorrupted: 1,
		FileSize:          30,
		Rng:               rand.New(rand.NewSource(1)),
	}
}

func TestBenignReturnsHonest(t *testing.T) {
	ctx := testContext()
	craft := Benign{}.BeginRound(ctx)
	honest := []float64{3, 4}
	out := craft(0, honest)
	if out[0] != 3 || out[1] != 4 {
		t.Errorf("benign altered gradient: %v", out)
	}
	out[0] = 99
	if honest[0] == 99 {
		t.Error("benign aliased the honest slice")
	}
}

func TestReversed(t *testing.T) {
	ctx := testContext()
	craft := Reversed{C: 2}.BeginRound(ctx)
	out := craft(0, []float64{1, -3})
	if out[0] != -2 || out[1] != 6 {
		t.Errorf("reversed = %v, want [-2 6]", out)
	}
	craftDefault := Reversed{}.BeginRound(ctx)
	out = craftDefault(0, []float64{1, -3})
	if out[0] != -1 || out[1] != 3 {
		t.Errorf("reversed default = %v, want [-1 3]", out)
	}
}

func TestConstant(t *testing.T) {
	ctx := testContext()
	craft := Constant{Value: 5}.BeginRound(ctx)
	out := craft(7, []float64{9, 9})
	if out[0] != 5 || out[1] != 5 {
		t.Errorf("constant = %v", out)
	}
	scaled := Constant{Value: 2, ScaleByFileSize: true}.BeginRound(ctx)
	out = scaled(7, nil)
	if out[0] != 60 {
		t.Errorf("scaled constant = %v, want 60", out)
	}
	def := Constant{}.BeginRound(ctx)
	if def(0, nil)[0] != -1 {
		t.Error("default constant should be -1")
	}
}

func TestALIEPayloadWithinPlausibleRange(t *testing.T) {
	ctx := testContext()
	craft := ALIE{}.BeginRound(ctx)
	out := craft(1, nil)
	mu := linalg.MeanVec(ctx.FileGradients)
	sigma := linalg.StdVec(ctx.FileGradients)
	for i := range out {
		dev := math.Abs(out[i] - mu[i])
		if dev > 3.5*sigma[i]+1e-12 {
			t.Errorf("coord %d deviates %v > 3.5σ=%v", i, dev, 3.5*sigma[i])
		}
		if dev < 0.29*sigma[i] {
			t.Errorf("coord %d deviates %v — attack is a no-op", i, dev)
		}
	}
	// Crafted payload is identical across files (collusion).
	out2 := craft(3, nil)
	for i := range out {
		if out[i] != out2[i] {
			t.Error("ALIE payload differs across files")
		}
	}
}

func TestALIEZOverride(t *testing.T) {
	ctx := testContext()
	craft := ALIE{ZOverride: 2}.BeginRound(ctx)
	out := craft(0, nil)
	mu := linalg.MeanVec(ctx.FileGradients)
	sigma := linalg.StdVec(ctx.FileGradients)
	for i := range out {
		want := mu[i] - 2*sigma[i]
		if math.Abs(out[i]-want) > 1e-12 {
			t.Errorf("coord %d = %v, want %v", i, out[i], want)
		}
	}
}

func TestZMaxProperties(t *testing.T) {
	// Larger Byzantine fraction (still sub-majority) → bigger z.
	z1 := ZMax(25, 3)
	z2 := ZMax(25, 9)
	if z2 < z1 {
		t.Errorf("z should grow with m: z(3)=%v z(9)=%v", z1, z2)
	}
	for _, m := range []int{0, 1, 5, 12, 13, 25, 30} {
		z := ZMax(25, m)
		if z < 0.3 || z > 3.5 {
			t.Errorf("ZMax(25,%d) = %v outside clamp", m, z)
		}
	}
	if z := ZMax(0, 0); z != 1 {
		t.Errorf("degenerate ZMax = %v", z)
	}
}

func TestRandomGaussianDeterministicPerSeed(t *testing.T) {
	ctx1 := testContext()
	out1 := RandomGaussian{Scale: 2}.BeginRound(ctx1)(0, nil)
	ctx2 := testContext()
	out2 := RandomGaussian{Scale: 2}.BeginRound(ctx2)(0, nil)
	for i := range out1 {
		if out1[i] != out2[i] {
			t.Error("same seed produced different payloads")
		}
	}
	var norm float64
	for _, v := range out1 {
		norm += v * v
	}
	if norm == 0 {
		t.Error("payload is zero")
	}
}

func TestRandomGaussianRequiresRng(t *testing.T) {
	ctx := testContext()
	ctx.Rng = nil
	defer func() {
		if recover() == nil {
			t.Fatal("nil rng did not panic")
		}
	}()
	RandomGaussian{}.BeginRound(ctx)
}

// TestSignFlip: the registry's "sign-flip" is Reversed at C = 1 —
// every coordinate's sign flips, its magnitude kept.
func TestSignFlip(t *testing.T) {
	craft := Reversed{}.BeginRound(testContext())
	out := craft(0, []float64{2, -3, 0})
	if out[0] != -2 || out[1] != 3 || out[2] != 0 {
		t.Errorf("sign flip = %v", out)
	}
}

func TestAttackNamesStable(t *testing.T) {
	names := map[string]Attack{
		"benign": Benign{}, "alie": ALIE{}, "constant": Constant{},
		"reversed-gradient": Reversed{}, "random-gaussian": RandomGaussian{},
	}
	for want, a := range names {
		if a.Name() != want {
			t.Errorf("%T.Name() = %q, want %q", a, a.Name(), want)
		}
	}
}

// TestPayloadsPinned pins what each attack sends against values worked
// out by hand for one three-file round: µ = (3, 2) and, over the
// population, σ = (√6, √2).
func TestPayloadsPinned(t *testing.T) {
	grads := [][]float64{{0, 1}, {3, 1}, {6, 4}}
	sqrt6, sqrt2 := math.Sqrt(6), math.Sqrt(2)
	// s = ⌊25/2+1⌋ − 9 = 4 honest supporters of 16: z = Φ⁻¹(12/16).
	const zMax = 0.6744897501960817
	stream := rand.New(rand.NewSource(9))
	noise := []float64{stream.NormFloat64() * 0.5, stream.NormFloat64() * 0.5}
	cases := []struct {
		name     string
		attack   Attack
		fileSize float64
		file     int
		want     []float64
	}{
		{"benign", Benign{}, 0, 1, []float64{3, 1}},
		{"reversed", Reversed{C: 2}, 0, 1, []float64{-6, -2}},
		{"reversed default C", Reversed{}, 0, 2, []float64{-6, -4}},
		{"sign-flip", Reversed{C: 1}, 0, 2, []float64{-6, -4}},
		{"constant", Constant{Value: 2}, 30, 0, []float64{2, 2}},
		{"constant default", Constant{}, 30, 0, []float64{-1, -1}},
		{"constant scaled by file size", Constant{Value: 2, ScaleByFileSize: true}, 30, 0, []float64{60, 60}},
		{"alie z override", ALIE{ZOverride: 2}, 0, 0, []float64{3 - 2*sqrt6, 2 - 2*sqrt2}},
		{"alie z max", ALIE{}, 0, 0, []float64{3 - zMax*sqrt6, 2 - zMax*sqrt2}},
		{"gaussian", RandomGaussian{Scale: 0.5}, 0, 0, noise},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx := &Context{
				Dim: 2, FileGradients: grads, Participants: 25, ExpectedCorrupted: 9,
				FileSize: tc.fileSize, Rng: rand.New(rand.NewSource(9)),
			}
			got := tc.attack.BeginRound(ctx)(tc.file, grads[tc.file])
			if len(got) != len(tc.want) {
				t.Fatalf("payload %v, want %v", got, tc.want)
			}
			for i := range got {
				if math.Abs(got[i]-tc.want[i]) > 1e-9 {
					t.Errorf("payload %v, want %v", got, tc.want)
					break
				}
			}
		})
	}
}

// TestScratchAllocationFree: with a Scratch kept across rounds, a round
// start and the crafting of every file allocate nothing once the first
// round has sized the buffers — for every attack.
func TestScratchAllocationFree(t *testing.T) {
	for _, a := range []Attack{Benign{}, Reversed{C: 2}, Constant{}, ALIE{}, RandomGaussian{}} {
		ctx := testContext()
		ctx.Scratch = new(Scratch)
		round := func() {
			craft := a.BeginRound(ctx)
			for _, file := range ctx.CorruptibleFiles {
				craft(file, ctx.FileGradients[file])
			}
		}
		round()
		if allocs := testing.AllocsPerRun(50, round); allocs != 0 {
			t.Errorf("%s: a warm round allocates %.1f times", a.Name(), allocs)
		}
	}
}
