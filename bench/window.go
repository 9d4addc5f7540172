package main

import (
	"fmt"
	"runtime"
	"time"
)

// roundInfo is what an adapter reports to the harness after every
// completed round, in the program's own terms.
type roundInfo struct {
	distorted, missing, degraded, dropped int
	reportBytes, broadcastBytes           int64
	compute, comm, aggregation            time.Duration
}

// instance is one deployed workload: everything setup_s pays for (data,
// assignment, Byzantine search, listener, handshakes) has been built.
type instance interface {
	// run executes rounds, calling observe after each one on the
	// goroutine that drives the rounds, until observe returns true.
	run(observe func(roundInfo) (stop bool)) error
	// accuracy is the test-set accuracy of the current parameters.
	accuracy() (float64, error)
	// paramsHash fingerprints the exact parameter bits.
	paramsHash() uint64
	// verify runs the workload's run-level correctness check after
	// `rounds` rounds have completed (fleets: bit-identity against the
	// in-process engine and clean lifecycle counters).
	verify(rounds int) error
	// layers hands the traced run the objects the layer replay calls
	// into, with the parameters as they are now.
	layers() (layerInputs, error)
	// distortionBound is the paper's c_max(q) for the workload's
	// assignment and Byzantine count (0 on attack-free workloads).
	distortionBound() (int, error)
	// tracedPhases returns the program-reported phases of every round
	// run so far, or nil when the instance was not set up traced.
	tracedPhases() *phaseLog
	close()
}

// maxWindowRounds bounds the preallocated per-round stamp slice. At the
// fastest fleet round seen (about 2 ms) a 60 s window needs 30k.
const maxWindowRounds = 1 << 18

// window measures one timed run of an instance: warm-up rounds, then
// rounds until `seconds` have passed (or exactly `rounds`, when set).
type window struct {
	warmup  int
	seconds float64
	rounds  int // > 0: stop after exactly this many timed rounds
	cmax    int // paper bound on distorted files per round

	seen       int
	begin, end counters
	stamps     []time.Duration // end of each timed round, since begin
	cpus       []time.Duration // process CPU time at the same instants
	failed     int
	firstFail  string
	sum        roundInfo
	counterErr error
	overflowed bool
}

func newWindow(warmup int, seconds float64, rounds, cmax int) *window {
	n := maxWindowRounds
	if rounds > 0 {
		n = rounds
	}
	return &window{warmup: warmup, seconds: seconds, rounds: rounds, cmax: cmax,
		stamps: make([]time.Duration, 0, n), cpus: make([]time.Duration, 0, n)}
}

// observe is the per-round callback. Inside the window it only appends
// to the preallocated slices and adds to sums, so the harness itself
// stays off the allocation and CPU counters it reads.
func (w *window) observe(ri roundInfo) bool {
	w.seen++
	if w.seen < w.warmup {
		return false
	}
	if w.seen == w.warmup {
		runtime.GC()
		w.begin, w.counterErr = readCounters()
		return w.counterErr != nil
	}
	now := time.Now()
	cpu, err := cpuTime()
	if err != nil {
		w.counterErr = err
		return true
	}
	w.stamps = append(w.stamps, now.Sub(w.begin.wall))
	w.cpus = append(w.cpus, cpu)
	if ri.distorted > w.cmax || ri.missing > 0 || ri.degraded > 0 || ri.dropped > 0 {
		w.failed++
		if w.firstFail == "" {
			w.firstFail = fmt.Sprintf("timed round %d: distorted=%d (bound %d) missing=%d degraded=%d dropped=%d",
				len(w.stamps), ri.distorted, w.cmax, ri.missing, ri.degraded, ri.dropped)
		}
	}
	w.sum.reportBytes += ri.reportBytes
	w.sum.broadcastBytes += ri.broadcastBytes
	w.sum.compute += ri.compute
	w.sum.comm += ri.comm
	w.sum.aggregation += ri.aggregation
	done := false
	switch {
	case w.rounds > 0:
		done = len(w.stamps) == w.rounds
	case len(w.stamps) == cap(w.stamps):
		done, w.overflowed = true, true
	default:
		done = now.Sub(w.begin.wall).Seconds() >= w.seconds
	}
	if done {
		w.end, w.counterErr = readCounters()
	}
	return done
}

func (w *window) timed() int { return len(w.stamps) }

// roundWalls returns each timed round's wall time in ms.
func (w *window) roundWalls() []float64 {
	out := make([]float64, len(w.stamps))
	prev := time.Duration(0)
	for i, s := range w.stamps {
		out[i] = ms(s - prev)
		prev = s
	}
	return out
}

// segmentMedian cuts the window into five consecutive segments of equal
// round count and returns the median of per(rounds, wall, cpu) over
// them, which a stall or a burst from a neighbour in one or two
// segments cannot move.
func (w *window) segmentMedian(per func(rounds int, wall, cpu time.Duration) float64) float64 {
	n := len(w.stamps)
	segs := 5
	if n < segs {
		segs = 1
	}
	vals := make([]float64, 0, segs)
	prevIdx, prevT, prevCPU := 0, time.Duration(0), w.begin.cpu
	for s := 1; s <= segs; s++ {
		idx := n * s / segs
		t, cpu := w.stamps[idx-1], w.cpus[idx-1]
		vals = append(vals, per(idx-prevIdx, t-prevT, cpu-prevCPU))
		prevIdx, prevT, prevCPU = idx, t, cpu
	}
	return median(vals)
}

func (w *window) roundsPerSec() float64 {
	return w.segmentMedian(func(rounds int, wall, _ time.Duration) float64 {
		return float64(rounds) / wall.Seconds()
	})
}

// cpuPerRound is the process's CPU time per round in ms: the parameter
// server and every in-process worker together.
func (w *window) cpuPerRound() float64 {
	return w.segmentMedian(func(rounds int, _, cpu time.Duration) float64 {
		return ms(cpu) / float64(rounds)
	})
}

// perRound divides a window total by the timed round count.
func (w *window) perRound(total float64) float64 { return total / float64(len(w.stamps)) }

func (w *window) check() error {
	switch {
	case w.counterErr != nil:
		return w.counterErr
	case len(w.stamps) == 0:
		return fmt.Errorf("no timed round completed")
	case w.overflowed:
		return fmt.Errorf("window overflowed %d rounds", maxWindowRounds)
	case w.end.wall.IsZero():
		return fmt.Errorf("window never closed (%d timed rounds)", len(w.stamps))
	}
	return nil
}
