package trainer

import (
	"math"
	"testing"
)

func TestScheduleAt(t *testing.T) {
	s := Schedule{Base: 0.1, Decay: 0.5, Every: 10}
	if s.At(0) != 0.1 || s.At(9) != 0.1 {
		t.Error("rate before first decay wrong")
	}
	if s.At(10) != 0.05 || s.At(19) != 0.05 {
		t.Error("rate after first decay wrong")
	}
	if math.Abs(s.At(20)-0.025) > 1e-15 {
		t.Error("rate after second decay wrong")
	}
}

func TestScheduleNoDecay(t *testing.T) {
	s := Schedule{Base: 0.2}
	if s.At(0) != 0.2 || s.At(1000) != 0.2 {
		t.Error("flat schedule not flat")
	}
}

func TestScheduleValidate(t *testing.T) {
	if err := (Schedule{Base: 0.1, Decay: 0.9, Every: 5}).Validate(); err != nil {
		t.Error(err)
	}
	if err := (Schedule{Base: 0}).Validate(); err == nil {
		t.Error("zero base accepted")
	}
	if err := (Schedule{Base: 0.1, Decay: 1.5, Every: 5}).Validate(); err == nil {
		t.Error("decay > 1 accepted")
	}
	if err := (Schedule{Base: 0.1, Decay: -1, Every: 5}).Validate(); err == nil {
		t.Error("negative decay accepted")
	}
}

func TestScheduleString(t *testing.T) {
	s := Schedule{Base: 0.025, Decay: 0.96, Every: 15}
	if s.String() != "(0.025, 0.96, 15)" {
		t.Errorf("String = %q", s.String())
	}
}

func TestSGDStepNoMomentum(t *testing.T) {
	o, err := NewSGD(Schedule{Base: 0.1}, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	params := []float64{1, 1}
	o.Step(params, []float64{1, -2}, 0)
	if math.Abs(params[0]-0.9) > 1e-15 || math.Abs(params[1]-1.2) > 1e-15 {
		t.Errorf("params = %v", params)
	}
}

func TestSGDMomentumAccumulates(t *testing.T) {
	o, err := NewSGD(Schedule{Base: 0.1}, 0.9, 1)
	if err != nil {
		t.Fatal(err)
	}
	params := []float64{0}
	o.Step(params, []float64{1}, 0) // v=1, p=-0.1
	o.Step(params, []float64{1}, 1) // v=1.9, p=-0.29
	if math.Abs(params[0]-(-0.29)) > 1e-12 {
		t.Errorf("params = %v, want -0.29", params)
	}
	o.Reset()
	o.Step(params, []float64{0}, 2)
	if math.Abs(params[0]-(-0.29)) > 1e-12 {
		t.Error("Reset did not zero velocity")
	}
}

func TestSGDErrors(t *testing.T) {
	if _, err := NewSGD(Schedule{Base: 0.1}, -0.1, 2); err == nil {
		t.Error("negative momentum accepted")
	}
	if _, err := NewSGD(Schedule{Base: 0.1}, 1, 2); err == nil {
		t.Error("momentum 1 accepted")
	}
	if _, err := NewSGD(Schedule{Base: 0.1}, 0, 0); err == nil {
		t.Error("dim 0 accepted")
	}
	o, _ := NewSGD(Schedule{Base: 0.1}, 0, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("dim mismatch did not panic")
		}
	}()
	o.Step([]float64{1}, []float64{1}, 0)
}

func TestSGDConvergesOnQuadratic(t *testing.T) {
	// Minimize f(w) = ||w - target||² with gradient 2(w - target).
	target := []float64{3, -2, 1}
	o, _ := NewSGD(Schedule{Base: 0.1, Decay: 0.99, Every: 50}, 0.5, 3)
	params := []float64{0, 0, 0}
	grad := make([]float64, 3)
	for t2 := 0; t2 < 500; t2++ {
		for i := range grad {
			grad[i] = 2 * (params[i] - target[i])
		}
		o.Step(params, grad, t2)
	}
	for i := range target {
		if math.Abs(params[i]-target[i]) > 1e-3 {
			t.Errorf("coord %d = %v, want %v", i, params[i], target[i])
		}
	}
}

func TestHistory(t *testing.T) {
	var h History
	if h.FinalAccuracy() != 0 {
		t.Error("empty history not zero")
	}
	h.Add(0, 2.3, 0.1)
	h.Add(100, 1.1, 0.6)
	h.Add(200, 0.9, 0.5)
	if h.FinalAccuracy() != 0.5 {
		t.Errorf("final = %v", h.FinalAccuracy())
	}
	if len(h.Points) != 3 || h.Points[1].Iteration != 100 {
		t.Error("points wrong")
	}
}
