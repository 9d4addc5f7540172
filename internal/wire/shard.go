package wire

// ShardRange returns the contiguous coordinate range [lo, hi) owned by
// shard s of n balanced shards over a dim-dimensional vector. The first
// dim%n shards hold one extra coordinate, so widths differ by at most
// one. Nothing in this module calls it since protocol v10 deleted the
// sharded aggregation plane: bench/adapter_layers.go is its only caller,
// and ROADMAP item 1a deletes it with the benchmark's other leftovers.
func ShardRange(dim, n, s int) (lo, hi int) {
	if n <= 1 {
		return 0, dim
	}
	per, extra := dim/n, dim%n
	lo = s*per + min(s, extra)
	hi = lo + per
	if s < extra {
		hi++
	}
	return lo, hi
}
