// Package trainer provides the optimizer-side machinery of the training
// protocol: the (x, y, z) step-decay learning-rate schedules of the
// paper's Table 7, SGD with momentum, and the metric series recorded
// during a run.
package trainer

import (
	"fmt"
	"math"

	"byzshield/internal/linalg"
)

// Schedule is the paper's (x, y, z) learning-rate schedule notation:
// start at rate x and multiply by y every z iterations.
type Schedule struct {
	Base  float64 // x: initial rate
	Decay float64 // y: multiplicative decay factor
	Every int     // z: iterations between decays (0 disables decay)
}

// At returns the learning rate at iteration t (0-based).
func (s Schedule) At(t int) float64 {
	if s.Every <= 0 || s.Decay == 0 {
		return s.Base
	}
	return s.Base * math.Pow(s.Decay, float64(t/s.Every))
}

// Validate checks the schedule parameters.
func (s Schedule) Validate() error {
	if s.Base <= 0 {
		return fmt.Errorf("trainer: base rate %v <= 0", s.Base)
	}
	if s.Every > 0 && (s.Decay <= 0 || s.Decay > 1) {
		return fmt.Errorf("trainer: decay %v outside (0,1]", s.Decay)
	}
	return nil
}

// String renders the schedule in the paper's notation.
func (s Schedule) String() string {
	return fmt.Sprintf("(%g, %g, %d)", s.Base, s.Decay, s.Every)
}

// SGDOf is stochastic gradient descent with classical momentum:
// v ← µ·v + g;  w ← w − η_t·v. The velocity buffer and every arithmetic
// operation run at T's width; the momentum is narrowed once at
// construction and the learning rate once per call from the shared
// float64 Schedule. names.go binds SGD/SGD32 to the two instantiations.
type SGDOf[T linalg.Float] struct {
	Schedule Schedule
	Momentum T
	velocity []T
}

// NewSGDOf constructs the optimizer for a d-dimensional parameter vector.
func NewSGDOf[T linalg.Float](schedule Schedule, momentum float64, dim int) (*SGDOf[T], error) {
	if err := schedule.Validate(); err != nil {
		return nil, err
	}
	if momentum < 0 || momentum >= 1 {
		return nil, fmt.Errorf("trainer: momentum %v outside [0,1)", momentum)
	}
	if dim < 1 {
		return nil, fmt.Errorf("trainer: dim %d < 1", dim)
	}
	return &SGDOf[T]{Schedule: schedule, Momentum: T(momentum), velocity: make([]T, dim)}, nil
}

// Step applies one update in place using the gradient estimate grad at
// iteration t.
func (o *SGDOf[T]) Step(params, grad []T, t int) {
	if len(params) != len(o.velocity) || len(grad) != len(o.velocity) {
		panic(fmt.Sprintf("trainer: dim mismatch params=%d grad=%d velocity=%d",
			len(params), len(grad), len(o.velocity)))
	}
	lr := T(o.Schedule.At(t))
	for i := range params {
		o.velocity[i] = o.Momentum*o.velocity[i] + grad[i]
		params[i] -= lr * o.velocity[i]
	}
}

// Reset zeroes the momentum buffer.
func (o *SGDOf[T]) Reset() {
	clear(o.velocity)
}

// Velocity returns a copy of the momentum buffer (for checkpointing).
func (o *SGDOf[T]) Velocity() []T {
	out := make([]T, len(o.velocity))
	copy(out, o.velocity)
	return out
}

// SetVelocity restores the momentum buffer from a checkpoint. The
// length must match the optimizer's dimension.
func (o *SGDOf[T]) SetVelocity(v []T) error {
	if len(v) != len(o.velocity) {
		return fmt.Errorf("trainer: velocity length %d, want %d", len(v), len(o.velocity))
	}
	copy(o.velocity, v)
	return nil
}

// Point is one recorded evaluation during training.
type Point struct {
	Iteration int
	Loss      float64
	Accuracy  float64
}

// History is the recorded metric series of a training run.
type History struct {
	Points []Point
}

// Add appends an evaluation point.
func (h *History) Add(iter int, loss, acc float64) {
	h.Points = append(h.Points, Point{Iteration: iter, Loss: loss, Accuracy: acc})
}

// FinalAccuracy returns the accuracy of the last evaluation (0 when
// empty).
func (h *History) FinalAccuracy() float64 {
	if len(h.Points) == 0 {
		return 0
	}
	return h.Points[len(h.Points)-1].Accuracy
}
