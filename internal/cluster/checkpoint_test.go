package cluster

import (
	"errors"
	"testing"

	"byzshield/internal/aggregate"
	"byzshield/internal/attack"
	"byzshield/internal/detect"
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
		cfg := testSetupOf[T](t, []int{1, 6}, attack.ALIE{}, aggregate.Median{})
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

// TestRestoreRefusesLiveDetector: a snapshot carries no detection state,
// so restoring one into an engine that runs a detector would resume with
// an empty blacklist — the evicted Byzantines vote again and the run
// leaves the interrupted trajectory. The engine refuses with a typed
// error instead; the explicit no-detector control still restores.
func TestRestoreRefusesLiveDetector(t *testing.T) {
	build := func(det detect.Detector) *Engine {
		cfg := testSetup(t, []int{1, 6}, attack.Reversed{C: 3}, aggregate.Median{})
		cfg.Detector = det
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
		return e
	}
	first := build(detect.ZScore{})
	blacklisted := 0
	for i := 0; i < 20; i++ {
		stats, err := first.RunRound()
		if err != nil {
			t.Fatal(err)
		}
		blacklisted = stats.Blacklisted
	}
	if blacklisted == 0 {
		t.Fatal("no worker blacklisted in 20 rounds: the snapshot would lose no detection state")
	}
	params, velocity, iter := first.Snapshot()
	if err := build(detect.ZScore{}).Restore(params, velocity, iter); !errors.Is(err, ErrRestoreDetector) {
		t.Fatalf("restore into an engine with a live detector: %v, want ErrRestoreDetector", err)
	}
	if err := build(detect.None{}).Restore(params, velocity, iter); err != nil {
		t.Fatalf("restore with detect.None: %v", err)
	}
}
