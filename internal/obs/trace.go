package obs

import (
	"io"
	"strconv"
	"sync"
	"time"
)

// Phase indexes one span of a protocol round in a RoundTrace.
type Phase int

const (
	// PhasePrep is the round's file→samples table: the engine's own
	// data.FileStream.Round call (sampler draw + partition; after a
	// restore, the seek to the round).
	PhasePrep Phase = iota
	// PhaseBroadcast is the parameter broadcast send (subset of the
	// communication span; zero on the in-process engine, which has no
	// separately timed send).
	PhaseBroadcast
	// PhaseCollect is gradient computation + collection. On a wire
	// source this is the whole Collect call; in-process it is the
	// compute+communication sum.
	PhaseCollect
	// PhaseVote is the per-file majority vote.
	PhaseVote
	// PhaseAggregate is robust aggregation + the optimizer step.
	PhaseAggregate
	// PhaseDetect is the detection/reputation pass (zero when no
	// detector is configured).
	PhaseDetect
	// PhaseEval is the held-out evaluation attached after the fact
	// (evals run off the round path on a snapshot).
	PhaseEval
	// NumPhases sizes per-phase arrays.
	NumPhases
)

// phaseNames is the JSONL/exposition name of each phase.
var phaseNames = [NumPhases]string{
	"prep", "broadcast", "collect", "vote", "aggregate", "detect", "eval",
}

// Name returns the phase's wire name.
func (p Phase) Name() string { return phaseNames[p] }

// RoundTrace is one recorded round. The worker-set slices are reused
// ring storage: Record copies into them with append(dst[:0], ...), so
// steady-state recording does not allocate once every slot has seen
// its largest set.
type RoundTrace struct {
	Round          int
	PhaseNS        [NumPhases]int64
	ReportBytes    int64
	ReportRawBytes int64
	BroadcastBytes int64
	DistortedFiles int
	DegradedFiles  int
	DroppedFiles   int
	Rejoins        int
	Evictions      int
	StaleFrames    int
	MeanReputation float64
	Missing        []int // worker ids absent this round
	Flagged        []int // worker ids flagged by the detector
	Blacklisted    []int // worker ids newly blacklisted this round
}

// Tracer is a bounded ring of RoundTraces plus an optional JSONL sink.
// Record is alloc-free in steady state (the ring slots own their
// slices); the sink path allocates freely — it is only wired up for
// CLI runs, never in the alloc-gated benchmarks.
type Tracer struct {
	mu    sync.Mutex
	ring  []RoundTrace
	total int // rounds ever recorded
	label string
	sink  io.Writer
	buf   []byte // JSONL encode scratch
}

// NewTracer returns a tracer retaining the last capacity rounds
// (minimum 1).
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{ring: make([]RoundTrace, capacity)}
}

// SetSink streams every subsequent Record (and eval attach) to w as
// one JSON object per line. Pass nil to detach.
func (t *Tracer) SetSink(w io.Writer) {
	t.mu.Lock()
	t.sink = w
	t.mu.Unlock()
}

// SetLabel tags subsequent JSONL records with a run label — byzfleet
// uses it to distinguish the points of a sweep in one trace file.
func (t *Tracer) SetLabel(label string) {
	t.mu.Lock()
	t.label = label
	t.mu.Unlock()
}

// Record copies rt into the ring (and the sink, when set). rt is the
// caller's scratch and is not retained.
func (t *Tracer) Record(rt *RoundTrace) {
	t.mu.Lock()
	slot := &t.ring[t.total%len(t.ring)]
	t.total++
	missing, flagged, black := slot.Missing, slot.Flagged, slot.Blacklisted
	*slot = *rt
	slot.Missing = append(missing[:0], rt.Missing...)
	slot.Flagged = append(flagged[:0], rt.Flagged...)
	slot.Blacklisted = append(black[:0], rt.Blacklisted...)
	if t.sink != nil {
		t.writeRoundLocked(slot)
	}
	t.mu.Unlock()
}

// AttachEval late-fills the eval span for round (evals run async on a
// snapshot). When the sink is set the eval is also emitted as its own
// "eval" event, since the round's line has already been written.
func (t *Tracer) AttachEval(round int, d time.Duration, loss, acc float64) {
	t.mu.Lock()
	for i := range t.ring {
		if t.ring[i].Round == round && t.slotLive(i) {
			t.ring[i].PhaseNS[PhaseEval] = int64(d)
			break
		}
	}
	if t.sink != nil {
		b := t.buf[:0]
		b = append(b, `{"event":"eval"`...)
		if t.label != "" {
			b = append(b, `,"label":`...)
			b = strconv.AppendQuote(b, t.label)
		}
		b = append(b, `,"round":`...)
		b = strconv.AppendInt(b, int64(round), 10)
		b = append(b, `,"eval_ns":`...)
		b = strconv.AppendInt(b, int64(d), 10)
		b = append(b, `,"loss":`...)
		b = strconv.AppendFloat(b, loss, 'g', -1, 64)
		b = append(b, `,"accuracy":`...)
		b = strconv.AppendFloat(b, acc, 'g', -1, 64)
		b = append(b, "}\n"...)
		t.buf = b
		t.sink.Write(b)
	}
	t.mu.Unlock()
}

// slotLive reports whether ring index i holds a recorded round (vs a
// zero-valued slot before the ring first wraps).
func (t *Tracer) slotLive(i int) bool {
	if t.total >= len(t.ring) {
		return true
	}
	return i < t.total
}

// Total returns the number of rounds ever recorded.
func (t *Tracer) Total() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Snapshot appends deep copies of the retained rounds to dst in
// chronological order and returns it.
func (t *Tracer) Snapshot(dst []RoundTrace) []RoundTrace {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.total
	if n > len(t.ring) {
		n = len(t.ring)
	}
	start := t.total - n
	for i := 0; i < n; i++ {
		src := &t.ring[(start+i)%len(t.ring)]
		cp := *src
		cp.Missing = append([]int(nil), src.Missing...)
		cp.Flagged = append([]int(nil), src.Flagged...)
		cp.Blacklisted = append([]int(nil), src.Blacklisted...)
		dst = append(dst, cp)
	}
	return dst
}

// writeRoundLocked emits one "round" JSONL line. Hand-rolled append
// encoding: no reflection, stable field order, and the scratch buffer
// is reused across rounds.
func (t *Tracer) writeRoundLocked(rt *RoundTrace) {
	b := t.buf[:0]
	b = append(b, `{"event":"round"`...)
	if t.label != "" {
		b = append(b, `,"label":`...)
		b = strconv.AppendQuote(b, t.label)
	}
	b = append(b, `,"round":`...)
	b = strconv.AppendInt(b, int64(rt.Round), 10)
	b = append(b, `,"phases_ns":{`...)
	for p := Phase(0); p < NumPhases; p++ {
		if p > 0 {
			b = append(b, ',')
		}
		b = append(b, '"')
		b = append(b, phaseNames[p]...)
		b = append(b, `":`...)
		b = strconv.AppendInt(b, rt.PhaseNS[p], 10)
	}
	b = append(b, '}')
	b = appendIntField(b, "report_bytes", int64(rt.ReportBytes))
	b = appendIntField(b, "report_raw_bytes", int64(rt.ReportRawBytes))
	b = appendIntField(b, "broadcast_bytes", int64(rt.BroadcastBytes))
	b = appendIntField(b, "distorted_files", int64(rt.DistortedFiles))
	b = appendIntField(b, "degraded_files", int64(rt.DegradedFiles))
	b = appendIntField(b, "dropped_files", int64(rt.DroppedFiles))
	b = appendIntField(b, "rejoins", int64(rt.Rejoins))
	b = appendIntField(b, "evictions", int64(rt.Evictions))
	b = appendIntField(b, "stale_frames", int64(rt.StaleFrames))
	b = append(b, `,"mean_reputation":`...)
	b = strconv.AppendFloat(b, rt.MeanReputation, 'g', -1, 64)
	b = appendIDs(b, "missing", rt.Missing)
	b = appendIDs(b, "flagged", rt.Flagged)
	b = appendIDs(b, "blacklisted", rt.Blacklisted)
	b = append(b, "}\n"...)
	t.buf = b
	t.sink.Write(b)
}

func appendIntField(b []byte, name string, v int64) []byte {
	b = append(b, ',', '"')
	b = append(b, name...)
	b = append(b, `":`...)
	return strconv.AppendInt(b, v, 10)
}

func appendIDs(b []byte, name string, ids []int) []byte {
	b = append(b, ',', '"')
	b = append(b, name...)
	b = append(b, `":[`...)
	for i, id := range ids {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(id), 10)
	}
	return append(b, ']')
}
