//go:build race

package transport

// raceEnabled reports that the race detector is active; its runtime
// instrumentation allocates, so allocation-count assertions are
// skipped under -race.
const raceEnabled = true
