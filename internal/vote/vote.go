// Package vote implements the per-file majority voting stage of the
// training protocol (Eq. 3 of the paper): the PS receives r claimed
// gradients for each file and outputs the value returned by the largest
// number of workers.
//
// The vote is exact, as in the paper's implementation note: honest
// workers return bit-identical gradients for the same file, so votes
// are counted on the raw IEEE-754 bytes.
//
// The exact vote is written once over linalg.Float — honest replicas of
// one file are bit-identical at either training width — and names.go
// binds the historical Majority/Majority32 names to its instantiations.
package vote

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"byzshield/internal/linalg"
)

// ResultOf reports the outcome of a single file's vote.
type ResultOf[T linalg.Float] struct {
	// Winner is the elected gradient (a reference to one of the inputs;
	// callers must copy before mutating).
	Winner []T
	// Count is the number of votes the winner received.
	Count int
	// Unanimous is true when every replica agreed.
	Unanimous bool
	// Tied is true when no strict plurality existed; Winner is then the
	// candidate with the lowest worker index among the tied maxima,
	// making the outcome deterministic (the paper avoids ties by using
	// odd r).
	Tied bool
}

// smallN bounds the allocation-free direct-comparison vote path. Real
// replication factors are tiny (r ≤ 5 in the paper), so virtually every
// vote takes it.
const smallN = 16

// MajorityOf elects the most frequent gradient among the replicas using
// exact byte equality (linalg.EqualBits: NaN == NaN, +0 ≠ −0). It is
// the implementation of Eq. (3): m_i =
// majority{ĝ_i^(j)}. Inputs must be non-empty and of equal dimension.
//
// For n ≤ 16 replicas the election runs allocation-free on direct
// pairwise bit comparison; larger replica sets fall back to hashing.
// Both paths elect identically: the candidate with the most votes,
// breaking ties toward the lowest first-holder index.
func MajorityOf[T linalg.Float](replicas [][]T) (ResultOf[T], error) {
	n := len(replicas)
	if n == 0 {
		return ResultOf[T]{}, fmt.Errorf("vote: no replicas")
	}
	d := len(replicas[0])
	for i, r := range replicas {
		if len(r) != d {
			return ResultOf[T]{}, fmt.Errorf("vote: replica %d has dim %d, want %d", i, len(r), d)
		}
	}
	if n <= smallN {
		return majoritySmall(replicas), nil
	}
	// Hash fallback: find the candidate in one pass using hashes,
	// verify by counting.
	hashes := make([]uint64, n)
	for i, r := range replicas {
		hashes[i] = hashVec(r)
	}
	// Count all candidates (n is small: r replicas).
	counts := make(map[uint64]int, n)
	first := make(map[uint64]int, n)
	for i, h := range hashes {
		counts[h]++
		if _, seen := first[h]; !seen {
			first[h] = i
		}
	}
	bestHash := hashes[0]
	bestCount := 0
	for h, c := range counts {
		if c > bestCount || (c == bestCount && first[h] < first[bestHash]) {
			bestHash = h
			bestCount = c
		}
	}
	// Verify winner by exact comparison against its first holder —
	// protects against (astronomically unlikely) hash collisions
	// electing a wrong bucket representative.
	winner := replicas[first[bestHash]]
	exact := 0
	for _, r := range replicas {
		if linalg.EqualBits(r, winner) {
			exact++
		}
	}
	tied := false
	for h, c := range counts {
		if h != bestHash && c == bestCount {
			tied = true
		}
	}
	return ResultOf[T]{
		Winner:    winner,
		Count:     exact,
		Unanimous: exact == n,
		Tied:      tied,
	}, nil
}

// majoritySmall elects by direct pairwise comparison with stack-only
// state: each replica is mapped to the index of its first bit-identical
// predecessor (its canonical candidate), and the canonical candidate
// with the highest count — lowest first index on ties — wins.
func majoritySmall[T linalg.Float](replicas [][]T) ResultOf[T] {
	n := len(replicas)
	var canon, counts [smallN]int
	for i := 0; i < n; i++ {
		c := i
		for j := 0; j < i; j++ {
			if canon[j] == j && linalg.EqualBits(replicas[j], replicas[i]) {
				c = j
				break
			}
		}
		canon[i] = c
		counts[c]++
	}
	best := 0
	for i := 1; i < n; i++ {
		if canon[i] == i && counts[i] > counts[best] {
			best = i
		}
	}
	tied := false
	for i := 0; i < n; i++ {
		if canon[i] == i && i != best && counts[i] == counts[best] {
			tied = true
		}
	}
	return ResultOf[T]{
		Winner:    replicas[best],
		Count:     counts[best],
		Unanimous: counts[best] == n,
		Tied:      tied,
	}
}

// hashVec hashes the raw IEEE-754 bytes of v (sizeof(T) per value,
// little-endian) with FNV-1a.
func hashVec[T linalg.Float](v []T) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	w := linalg.Width[T]()
	for _, x := range v {
		binary.LittleEndian.PutUint64(buf[:], linalg.Bits(x))
		h.Write(buf[:w])
	}
	return h.Sum64()
}
