package cluster

import (
	"math/bits"
	"slices"

	"byzshield/internal/linalg"
	"byzshield/internal/wire"
)

// shardPlane is the sharded aggregation plane: the parameter vector is
// split into n contiguous coordinate ranges (wire.ShardRange), and each
// shard owns the per-file range votes and the aggregate/step work for
// its range. The plane exists so a network source can stream per-shard
// report frames and vote a shard the moment its last frame lands —
// while other shards still collect — and so the later multi-process PS
// can move a shard out of process without changing the vote semantics.
//
// Bit-identity with the serial (unsharded) vote is by construction, not
// by luck. A shard's range vote groups the surviving replicas of a file
// by bit-equality restricted to the shard's coordinates — a coarsening
// of the global grouping. The fast path elects a file only when every
// shard elects the same untied supporter mask M: members of M then
// agree on every range, hence globally, so M is contained in a global
// equality group G; conversely G's members agree on every range, so
// within each shard G sits inside the one group that elected M, giving
// G ⊆ M and therefore M = G exactly. Any other global group lies
// inside some losing shard group and is strictly smaller, so M is the
// strict global plurality winner — the same replica the serial vote
// elects, with the same lowest-first-index representative. Every other
// case — a tied shard, disagreeing masks, an empty survivor set — falls
// back to the serial full-vector vote for that file, which also keeps
// the degraded-tie handling (reputation runoff, drop-on-tie) in exactly
// one place.
type shardPlane struct {
	n      int
	ranges [][2]int
	// mask[s][v] is the supporter bitmask shard s elected for file v
	// over positions in the file's replica list (0 = no survivors or
	// replica list too wide for the mask); tied[s][v] flags a shard-
	// level tie. dist[s][v] records that the elected replica differs
	// from the oracle gradient inside the shard's range.
	mask [][]uint64
	tied [][]bool
	dist [][]bool
	// voted[s] marks shard s's range votes as computed for this round;
	// earlyValid[s]/early[s] record that the votes were taken
	// mid-collection against a snapshot of the missing set, which must
	// match the final set for the early result to stand.
	voted      []bool
	earlyValid []bool
	early      [][]uint64
	final      []uint64
}

// maskWidth bounds the replica-position bitmask. Replication factors
// are tiny in every real assignment; a wider replica list disables the
// fast path (every file falls back to the serial vote) rather than the
// plane.
const maskWidth = 64

func newShardPlane(n, dim, files, workers int) *shardPlane {
	pl := &shardPlane{
		n:          n,
		ranges:     make([][2]int, n),
		mask:       make([][]uint64, n),
		tied:       make([][]bool, n),
		dist:       make([][]bool, n),
		voted:      make([]bool, n),
		earlyValid: make([]bool, n),
		early:      make([][]uint64, n),
	}
	words := (workers + 63) / 64
	for s := 0; s < n; s++ {
		lo, hi := wire.ShardRange(dim, n, s)
		pl.ranges[s] = [2]int{lo, hi}
		pl.mask[s] = make([]uint64, files)
		pl.tied[s] = make([]bool, files)
		pl.dist[s] = make([]bool, files)
		pl.early[s] = make([]uint64, words)
	}
	pl.final = make([]uint64, words)
	return pl
}

// beginRound clears the per-round vote state.
func (pl *shardPlane) beginRound() {
	for s := 0; s < pl.n; s++ {
		pl.voted[s] = false
		pl.earlyValid[s] = false
	}
}

// missingBits packs the missing flags into dst as a bitset.
func missingBits(dst []uint64, missing []bool) {
	clear(dst)
	for u, m := range missing {
		if m {
			dst[u>>6] |= 1 << (u & 63)
		}
	}
}

// voteShard computes shard s's range votes for every file against the
// arena's current missing set. Safe to run concurrently for distinct
// shards (disjoint state, read-only arena access), and safe to run on
// the collecting goroutine mid-round once every live worker's shard-s
// frame has been delivered (the inbox handoff ordered those decodes
// before this read).
func (e *EngineOf[T]) voteShard(s int) {
	pl, ar := e.plane, e.arena
	lo, hi := pl.ranges[s][0], pl.ranges[s][1]
	mask, tied, dist := pl.mask[s], pl.tied[s], pl.dist[s]
	var pos [maskWidth]int
	var canon, counts [maskWidth]int
	for v := range ar.fileReplicas {
		refs := ar.fileReplicas[v]
		mask[v], tied[v], dist[v] = 0, false, false
		if len(refs) > maskWidth {
			tied[v] = true // force the serial fallback
			continue
		}
		n := 0
		for i := range refs {
			if !ar.missing[refs[i].worker] {
				pos[n] = i
				n++
			}
		}
		if n == 0 {
			continue
		}
		rng := func(i int) []T {
			ref := refs[pos[i]]
			return ar.cur[ref.worker][ref.slot][lo:hi]
		}
		best := 0
		if n == 1 {
			mask[v] = 1 << pos[0]
		} else {
			// Mirror of vote.majoritySmall restricted to the shard's
			// coordinate range: group replicas by bit-equality, elect
			// the largest group, break ties toward the lowest index.
			for i := 0; i < n; i++ {
				c := i
				gi := rng(i)
				for j := 0; j < i; j++ {
					if canon[j] == j && linalg.EqualBits(rng(j), gi) {
						c = j
						break
					}
				}
				canon[i] = c
				if c == i {
					counts[i] = 1
				} else {
					counts[c]++
				}
			}
			for i := 1; i < n; i++ {
				if canon[i] == i && counts[i] > counts[best] {
					best = i
				}
			}
			m := uint64(0)
			for i := 0; i < n; i++ {
				if canon[i] == best {
					m |= 1 << pos[i]
				}
				if canon[i] == i && i != best && counts[i] == counts[best] {
					tied[v] = true
				}
			}
			mask[v] = m
		}
		if ar.trueGrads[v] != nil {
			dist[v] = !linalg.EqualBits(rng(best), ar.trueGrads[v][lo:hi])
		}
	}
}

// voteShardEarly runs shard s's range votes mid-collection, recording
// the missing-set snapshot they were taken against. Called by network
// sources from the collecting goroutine when every live worker's
// shard-s frame has arrived; shardedVotePhase revalidates the snapshot
// once collection closes and recomputes the shard if participation
// changed after the early vote.
func (e *EngineOf[T]) voteShardEarly(s int) {
	pl := e.plane
	if pl == nil || s < 0 || s >= pl.n || pl.voted[s] {
		return
	}
	missingBits(pl.early[s], e.arena.missing)
	e.voteShard(s)
	pl.voted[s] = true
	pl.earlyValid[s] = true
}

// shardedVotePhase is the plane's replacement for the pooled
// whole-vector vote phase: it completes (or revalidates) every shard's
// range votes, then reconciles them serially per file — electing on the
// agreed-mask fast path and falling back to the exact serial vote for
// every file a shard tied or disagreed on. Counters land in the slot-0
// arena scratch, which the caller's existing summing loop picks up.
func (e *EngineOf[T]) shardedVotePhase() {
	pl := e.plane
	ar := e.arena
	missingBits(pl.final, ar.missing)
	e.runPhase(pl.n, e.phase.voteShard)
	for v := range ar.fileReplicas {
		refs := ar.fileReplicas[v]
		n := 0
		for i := range refs {
			if !ar.missing[refs[i].worker] {
				n++
			}
		}
		if n < e.quorum {
			ar.winners[v] = nil
			ar.dropped[0]++
			continue
		}
		m := pl.mask[0][v]
		fast := m != 0 && !pl.tied[0][v]
		for s := 1; fast && s < pl.n; s++ {
			if pl.mask[s][v] != m || pl.tied[s][v] {
				fast = false
			}
		}
		if !fast {
			e.voteFile(0, v)
			continue
		}
		if n < len(refs) {
			ar.degraded[0]++
		}
		ref := refs[bits.TrailingZeros64(m)]
		ar.winners[v] = ar.cur[ref.worker][ref.slot]
		// Same lossy-tier exemption as voteFile: quantized replicas never
		// bit-match the unquantized true gradient.
		if !e.cfg.SignMessages && !e.cfg.UplinkTier.Lossy() && ar.trueGrads[v] != nil {
			for s := 0; s < pl.n; s++ {
				if pl.dist[s][v] {
					ar.distorted[0]++
					break
				}
			}
		}
	}
}

// finishShardVote is shardedVotePhase's pool task: shard s keeps its
// early vote when that was taken against the final missing set, and
// votes (again) otherwise.
func (e *EngineOf[T]) finishShardVote(_, s int) {
	pl := e.plane
	if pl.voted[s] && pl.earlyValid[s] && slices.Equal(pl.early[s], pl.final) {
		return
	}
	e.voteShard(s)
	pl.voted[s] = true
	pl.earlyValid[s] = false
}
