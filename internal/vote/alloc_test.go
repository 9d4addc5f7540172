package vote

import (
	"testing"

	"byzshield/internal/linalg"
)

// equalVec is the f64 tests' name for the protocol's one bit-equality.
var equalVec = linalg.EqualBits[float64]

// replicasOf builds n replicas of dimension d in which a 2/3 plurality
// agrees bit for bit and the rest each differ in their last coordinate.
func replicasOf[T linalg.Float](n, d int) [][]T {
	reps := make([][]T, n)
	for i := range reps {
		reps[i] = make([]T, d)
		for j := range reps[i] {
			reps[i][j] = T(j) * 0.5
		}
		if i%3 == 2 {
			reps[i][d-1] = T(i)
		}
	}
	return reps
}

// majorityAllocs pins the small-n election at zero allocations: the
// simulator workloads sit at single-digit allocations per round, so an
// escape in the per-file vote shows up as a whole-round regression.
func majorityAllocs[T linalg.Float](t *testing.T, majority func([][]T) (ResultOf[T], error)) {
	t.Helper()
	for _, n := range []int{1, 3, 5, smallN} {
		reps := replicasOf[T](n, 64)
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := majority(reps); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("n=%d: %v allocs per vote, want 0", n, allocs)
		}
	}
}

func TestMajoritySmallAllocFree(t *testing.T)   { majorityAllocs(t, Majority) }
func TestMajority32SmallAllocFree(t *testing.T) { majorityAllocs(t, Majority32) }
