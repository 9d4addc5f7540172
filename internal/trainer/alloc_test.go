package trainer

import (
	"testing"

	"byzshield/internal/linalg"
)

// stepAllocs pins the optimizer step at zero allocations: it runs once
// per round on every plane.
func stepAllocs[T linalg.Float](t *testing.T) {
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
		o.Step(params, grad, it)
		it++
	})
	if allocs != 0 {
		t.Errorf("Step allocates %v per iteration, want 0", allocs)
	}
}

func TestSGDStepAllocFree(t *testing.T)   { stepAllocs[float64](t) }
func TestSGD32StepAllocFree(t *testing.T) { stepAllocs[float32](t) }
