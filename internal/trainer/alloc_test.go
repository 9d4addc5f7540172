package trainer

import (
	"testing"

	"byzshield/internal/linalg"
)

// stepChunkAllocs pins the optimizer step at zero allocations: it runs
// once per shard per round on every plane.
func stepChunkAllocs[T linalg.Float](t *testing.T) {
	const d = 1000
	o, err := NewSGDOf[T](Schedule{Base: 0.1, Decay: 0.5, Every: 3}, 0.9, d)
	if err != nil {
		t.Fatal(err)
	}
	params, grad := make([]T, d), make([]T, d)
	for i := range grad {
		grad[i] = T(i) * 0.001
	}
	it := 0
	allocs := testing.AllocsPerRun(50, func() {
		o.StepChunk(params, grad, it, 0, d/2)
		o.StepChunk(params, grad, it, d/2, d)
		it++
	})
	if allocs != 0 {
		t.Errorf("StepChunk allocates %v per iteration, want 0", allocs)
	}
}

func TestSGDStepChunkAllocFree(t *testing.T)   { stepChunkAllocs[float64](t) }
func TestSGD32StepChunkAllocFree(t *testing.T) { stepChunkAllocs[float32](t) }
