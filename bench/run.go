package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// setupReps is how many times one run builds its instance; setup_s is
// the median, and the last instance built is the one that runs.
const setupReps = 7

const (
	// warmupRounds run before every timed window: caches fill, fleets
	// finish their first broadcasts, the pipelined plane gets ahead.
	warmupRounds = 20
	// accuracyFloor fails a run whose final parameters classify the
	// test set worse than this; every workload trains to about 0.9.
	accuracyFloor = 0.5
)

// tracedShare is the part of -seconds the traced run spends in each of
// its two live windows; the layer replay takes the rest.
const tracedShare = 0.4

// options are one run's inputs.
type options struct {
	seed    int64
	seconds float64
	outDir  string
	// rounds > 0 replaces the timed window by exactly that many timed
	// rounds after 5 warm-up rounds (the self-test's seconds-long runs).
	rounds int
}

// value is one metric as the result line carries it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the result line of one run.
type outcome struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	// why says what made the run incorrect; printed, not part of the line.
	why string
}

// hashBits fingerprints a vector's exact bits (FNV-1a over the IEEE
// words, little-endian).
func hashBits[T any, B uint32 | uint64](p []T, word func(T) B) uint64 {
	h := fnv.New64a()
	var b [8]byte
	n := bits.Len64(uint64(^B(0))) / 8 // bytes per word
	for _, v := range p {
		w := uint64(word(v))
		for i := 0; i < n; i++ {
			b[i] = byte(w >> (8 * i))
		}
		h.Write(b[:n])
	}
	return h.Sum64()
}

func (o options) window(seconds float64, cmax int) *window {
	if o.rounds > 0 {
		return newWindow(5, 0, o.rounds, cmax)
	}
	return newWindow(warmupRounds, seconds, 0, cmax)
}

// fail marks every round of the run failed: a run whose output cannot
// be trusted has no good operations.
func (out *outcome) fail(format string, args ...any) {
	out.Correct = false
	out.Failed = out.Attempted
	if out.why == "" {
		out.why = fmt.Sprintf(format, args...)
	}
}

func fill(defs []metricDef, vals map[string]float64) (map[string]value, error) {
	m := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s has no finite value (%v)", d.name, v)
		}
		m[d.name] = value{Value: v, Unit: d.unit}
	}
	if len(vals) != len(defs) {
		return nil, fmt.Errorf("%d values for %d declared metrics", len(vals), len(defs))
	}
	return m, nil
}

// runUntraced is the run that produces the end-to-end metrics.
func runUntraced(wl *workload, o options) (outcome, error) {
	var out outcome
	setups := make([]float64, 0, setupReps)
	var inst instance
	for i := 0; i < setupReps; i++ {
		if inst != nil {
			inst.close()
		}
		// Each set-up starts from a collected heap, as a fresh process
		// would, so it neither pays for nor grows on the last one's garbage.
		runtime.GC()
		begin := time.Now()
		var err error
		if inst, err = wl.setup(o.seed, nil); err != nil {
			return out, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(begin).Seconds())
	}
	defer inst.close()
	cmax, err := inst.distortionBound()
	if err != nil {
		return out, err
	}
	w := o.window(o.seconds, cmax)
	if err := inst.run(w.observe); err != nil {
		return out, err
	}
	if err := w.check(); err != nil {
		return out, err
	}
	// Read before the checks below build their own copies of the data.
	rss, err := peakRSSMiB()
	if err != nil {
		return out, err
	}
	acc, err := inst.accuracy()
	if err != nil {
		return out, err
	}
	out = outcome{Correct: true, Attempted: w.timed(), Failed: w.failed, why: w.firstFail}
	if w.failed > 0 {
		out.Correct = false
	}
	if err := inst.verify(w.seen); err != nil {
		out.fail("%v", err)
	}
	if acc < accuracyFloor {
		out.fail("final accuracy %.4f below the floor %.2f", acc, accuracyFloor)
	}
	out.Metrics, err = fill(endToEnd, map[string]float64{
		"rounds_per_s":             w.roundsPerSec(),
		"round_ms_p50":             median(w.roundWalls()),
		"cpu_ms_per_round":         w.cpuPerRound(),
		"allocs_per_round":         w.perRound(float64(w.end.mallocs - w.begin.mallocs)),
		"peak_rss_mb":              rss,
		"uplink_bytes_per_round":   w.perRound(float64(w.sum.reportBytes)),
		"downlink_bytes_per_round": w.perRound(float64(w.sum.broadcastBytes)),
		"final_accuracy":           acc,
		"setup_s":                  median(setups),
	})
	return out, err
}

// runTraced is the run that produces the per-layer metrics: a short
// untraced window, the same rounds again with tracing attached, and the
// layer replay at the parameters the first window ended on.
func runTraced(wl *workload, o options) (outcome, error) {
	var out outcome
	spans := newSpanLog(wl.name)
	plain, err := wl.setup(o.seed, nil)
	if err != nil {
		return out, fmt.Errorf("set-up: %w", err)
	}
	defer plain.close()
	cmax, err := plain.distortionBound()
	if err != nil {
		return out, err
	}
	w1 := o.window(o.seconds*tracedShare, cmax)
	if err := plain.run(w1.observe); err != nil {
		return out, err
	}
	if err := w1.check(); err != nil {
		return out, err
	}
	in, err := plain.layers()
	if err != nil {
		return out, err
	}
	plainHash := plain.paramsHash()
	plain.close()

	traced, err := wl.setup(o.seed, plain)
	if err != nil {
		return out, fmt.Errorf("traced set-up: %w", err)
	}
	defer traced.close()
	w2 := newWindow(w1.warmup, 0, w1.timed(), cmax)
	if err := traced.run(w2.observe); err != nil {
		return out, err
	}
	if err := w2.check(); err != nil {
		return out, err
	}
	out = outcome{Correct: true, Attempted: w1.timed() + w2.timed(), Failed: w1.failed + w2.failed, why: w1.firstFail + w2.firstFail}
	if out.Failed > 0 {
		out.Correct = false
	}
	if h := traced.paramsHash(); h != plainHash {
		out.fail("traced run's parameters (hash %016x) differ from the untraced run's (%016x) after the same %d rounds", h, plainHash, w2.seen)
	}
	log := traced.tracedPhases()
	traced.close()

	// Live spans: each timed round of the traced window with the phases
	// the program reported for it.
	phaseMS := make(map[string][]float64)
	first := log.rounds() - w2.timed()
	if first < 0 {
		return out, fmt.Errorf("tracer kept %d rounds of %d", log.rounds(), w2.timed())
	}
	prev := time.Duration(0)
	for i, s := range w2.stamps {
		phases := log.round(first + i)
		spans.liveRound(w2.warmup+i, w2.begin.wall.Add(prev), w2.begin.wall.Add(s), phases)
		prev = s
		for _, p := range phases {
			phaseMS[p.name] = append(phaseMS[p.name], ms(p.d))
		}
	}

	costs, err := replayLayers(in, spans)
	if err != nil {
		return out, fmt.Errorf("layer replay: %w", err)
	}
	vals := costs.metrics
	for _, name := range tracerPhaseNames {
		v := float64(notInstrumented)
		if xs := phaseMS[name]; len(xs) > 0 {
			v = median(xs)
		}
		vals["cluster.phase_"+name+"_ms_p50"] = v
	}
	walls := w1.roundWalls()
	cpu := w1.cpuPerRound()
	replayed := 0.0
	for _, c := range costs.perRound {
		replayed += c
	}
	vals["transport.read_syscalls_per_round"] = w1.perRound(float64(w1.end.syscr - w1.begin.syscr))
	vals["transport.write_syscalls_per_round"] = w1.perRound(float64(w1.end.syscw - w1.begin.syscw))
	vals["cluster.round_ms_p95"] = quantile(walls, 0.95)
	vals["cluster.compute_ms_per_round"] = w1.perRound(ms(w1.sum.compute))
	vals["cluster.glue_ms_per_round"] = cpu - replayed
	vals["cluster.replay_coverage"] = replayed / cpu
	vals["cluster.alloc_kb_per_round"] = w1.perRound(float64(w1.end.allocBytes-w1.begin.allocBytes) / 1024)
	vals["cluster.gc_pause_ms_per_round"] = w1.perRound(ms(w1.end.gcPause - w1.begin.gcPause))
	vals["obs.trace_overhead_ratio"] = median(w2.roundWalls()) / median(walls)
	if out.Metrics, err = fill(perLayer, vals); err != nil {
		return out, err
	}
	path := filepath.Join(o.outDir, "trace-"+wl.name+".jsonl")
	self := spans.selfTimes()
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "bench: %s: %d spans to %s; mean self time in ms:", wl.name, len(spans.spans), path)
	for _, name := range names {
		fmt.Fprintf(os.Stderr, " %s=%.4g", name, self[name])
	}
	fmt.Fprintln(os.Stderr)
	return out, spans.write(path)
}
