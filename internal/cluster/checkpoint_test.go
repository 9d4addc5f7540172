package cluster

import (
	"testing"

	"byzshield/internal/aggregate"
	"byzshield/internal/attack"
	"byzshield/internal/linalg"
)

// TestSnapshotRestoreResumesIdentically: running 10 rounds straight must
// produce bit-identical parameters to running 5, snapshotting, restoring
// into a fresh engine, and running 5 more — the invariant that makes
// checkpointed experiments trustworthy. Restore rebuilds the batch
// sampler from the seed and fast-forwards it to the snapshot iteration,
// so the fresh engine needs no round replay before restoring.
func TestSnapshotRestoreResumesIdentically(t *testing.T) {
	t.Run("f64", snapshotRestoreResumesIdentically[float64])
	t.Run("f32", snapshotRestoreResumesIdentically[float32])
}

func snapshotRestoreResumesIdentically[T linalg.Float](t *testing.T) {
	build := func() *EngineOf[T] {
		cfg := testSetup(t, []int{1, 6}, attack.ALIE{}, aggregate.Median{})
		e, err := NewOf[T](cfg)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}

	// Uninterrupted run: 10 rounds.
	ref := build()
	for i := 0; i < 10; i++ {
		if _, err := ref.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
	want := ref.Params()

	// Interrupted run: 5 rounds, snapshot, "restart", restore, 5 more.
	first := build()
	for i := 0; i < 5; i++ {
		if _, err := first.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
	params, velocity, iter := first.Snapshot()
	if iter != 5 {
		t.Fatalf("snapshot iteration %d, want 5", iter)
	}

	second := build()
	// No replay: Restore fast-forwards the sampler stream internally.
	if err := second.Restore(params, velocity, iter); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := second.RunRound(); err != nil {
			t.Fatal(err)
		}
	}
	if got := second.Params(); !linalg.EqualBits(want, got) {
		t.Fatal("resumed run diverged from the uninterrupted one")
	}
	if second.Iteration() != 10 {
		t.Errorf("iteration = %d, want 10", second.Iteration())
	}
}

func TestRestoreValidation(t *testing.T) {
	cfg := testSetup(t, nil, attack.Benign{}, aggregate.Median{})
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Restore([]float64{1}, nil, 0); err == nil {
		t.Error("wrong params length accepted")
	}
	params, _, _ := e.Snapshot()
	if err := e.Restore(params, []float64{1}, 0); err == nil {
		t.Error("wrong velocity length accepted")
	}
	if err := e.Restore(params, nil, -1); err == nil {
		t.Error("negative iteration accepted")
	}
	if err := e.Restore(params, nil, 3); err != nil {
		t.Errorf("valid restore rejected: %v", err)
	}
	if e.Iteration() != 3 {
		t.Errorf("iteration = %d", e.Iteration())
	}
}
