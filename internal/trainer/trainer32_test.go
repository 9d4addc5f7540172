package trainer

import (
	"math"
	"testing"
)

func TestSGD32VelocityRoundTrip(t *testing.T) {
	o, _ := NewSGD32(Schedule{Base: 0.1}, 0.5, 4)
	p := []float32{1, 2, 3, 4}
	o.Step(p, []float32{1, 1, 1, 1}, 0)
	v := o.Velocity()
	o2, _ := NewSGD32(Schedule{Base: 0.1}, 0.5, 4)
	if err := o2.SetVelocity(v); err != nil {
		t.Fatal(err)
	}
	p2 := append([]float32(nil), p...)
	o.Step(p, []float32{2, 2, 2, 2}, 1)
	o2.Step(p2, []float32{2, 2, 2, 2}, 1)
	for i := range p {
		if math.Float32bits(p[i]) != math.Float32bits(p2[i]) {
			t.Fatal("restored velocity diverged")
		}
	}
	if err := o2.SetVelocity(make([]float32, 3)); err == nil {
		t.Fatal("want error for wrong velocity length")
	}
	o2.Reset()
	for _, v := range o2.Velocity() {
		if v != 0 {
			t.Fatal("Reset left velocity nonzero")
		}
	}
}

func TestNewSGD32Validates(t *testing.T) {
	if _, err := NewSGD32(Schedule{Base: -1}, 0.5, 4); err == nil {
		t.Fatal("want error for bad schedule")
	}
	if _, err := NewSGD32(Schedule{Base: 0.1}, 1.0, 4); err == nil {
		t.Fatal("want error for momentum 1")
	}
	if _, err := NewSGD32(Schedule{Base: 0.1}, 0.5, 0); err == nil {
		t.Fatal("want error for dim 0")
	}
}
