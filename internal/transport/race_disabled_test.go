//go:build !race

package transport

// raceEnabled reports whether the race detector is active.
const raceEnabled = false
