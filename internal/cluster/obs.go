package cluster

import (
	"runtime/metrics"
	"time"

	"byzshield/internal/obs"
)

// phaseBuckets spans 50µs–~6.5s exponentially: round phases on the
// quickstart config sit in the 100µs–10ms range, loopback fleets reach
// into seconds under injected stragglers.
var phaseBuckets = obs.ExpBuckets(50e-6, 2.4, 14)

// engineInstruments is the engine's preallocated metric state. Every
// field is registered once at construction; observeRound performs only
// atomic stores/adds on those pointers, keeping the steady-state
// allocation budget intact with metrics enabled.
type engineInstruments struct {
	rounds    *obs.Counter
	distorted *obs.Counter
	degraded  *obs.Counter
	dropped   *obs.Counter

	reportBytes    *obs.Counter
	reportRawBytes *obs.Counter
	broadcastBytes *obs.Counter

	phase [obs.NumPhases]*obs.Histogram

	lr            *obs.Gauge
	meanRep       *obs.Gauge
	flagged       *obs.Gauge
	blacklisted   *obs.Gauge
	missing       *obs.Gauge
	aggDegraded   *obs.Counter
	arenaOccupied *obs.Gauge
	arenaSlots    *obs.Gauge

	// Allocation guard: heapAllocs is the per-round delta of
	// /gc/heap/allocs:objects, sampled with a preallocated sample slice
	// so the read itself stays off the allocator. A steady-state value
	// above the low single digits means the hot path regressed — the
	// live counterpart of TestSteadyStateAllocsPerRound.
	heapAllocs   *obs.Gauge
	allocSamples [1]metrics.Sample
	prevAllocs   uint64

	// slotCount[u] is worker u's replica slot count (its file count), so
	// the occupancy pass does not chase slice headers per round.
	slotCount  []int
	totalSlots int
}

// newEngineInstruments registers the engine's metric families on r.
func newEngineInstruments(r *obs.Registry, workerFiles [][]int) *engineInstruments {
	ins := &engineInstruments{
		rounds:         r.Counter("byzshield_rounds_total", "", "protocol rounds completed"),
		distorted:      r.Counter("byzshield_files_distorted_total", "", "files whose vote the Byzantines won"),
		degraded:       r.Counter("byzshield_files_degraded_total", "", "files voted over fewer than R surviving replicas"),
		dropped:        r.Counter("byzshield_files_dropped_total", "", "files excluded from aggregation (below quorum or tied degraded vote)"),
		reportBytes:    r.Counter("byzshield_report_bytes_total", "", "serialized worker-to-PS gradient report bytes"),
		reportRawBytes: r.Counter("byzshield_report_raw_bytes_total", "", "raw-frame equivalent of the report bytes"),
		broadcastBytes: r.Counter("byzshield_broadcast_bytes_total", "", "serialized PS-to-worker parameter broadcast bytes"),
		lr:             r.Gauge("byzshield_learning_rate", "", "learning rate of the last round"),
		meanRep:        r.Gauge("byzshield_mean_reputation", "", "fleet-wide mean reputation after the last detection pass"),
		flagged:        r.Gauge("byzshield_flagged_workers", "", "workers flagged by the detector in the last round"),
		blacklisted:    r.Gauge("byzshield_blacklisted_workers", "", "cumulative blacklist size"),
		missing:        r.Gauge("byzshield_missing_workers", "", "workers absent from the last round"),
		aggDegraded:    r.Counter("byzshield_aggregator_degraded_total", "", "rounds aggregated with the median fallback after dropped files broke feasibility"),
		arenaOccupied:  r.Gauge("byzshield_arena_occupied_slots", "", "gradient arena replica slots filled in the last round"),
		arenaSlots:     r.Gauge("byzshield_arena_total_slots", "", "gradient arena replica slot capacity"),
		heapAllocs:     r.Gauge("byzshield_heap_allocs_per_round", "", "heap objects allocated during the last round (steady-state budget is low single digits)"),
	}
	for p := obs.Phase(0); p < obs.NumPhases; p++ {
		ins.phase[p] = r.Histogram("byzshield_phase_seconds", `phase="`+p.Name()+`"`,
			"wall-clock time per round phase", phaseBuckets)
	}
	ins.slotCount = make([]int, len(workerFiles))
	for u, files := range workerFiles {
		ins.slotCount[u] = len(files)
		ins.totalSlots += len(files)
	}
	ins.arenaSlots.Set(float64(ins.totalSlots))
	ins.allocSamples[0].Name = "/gc/heap/allocs:objects"
	metrics.Read(ins.allocSamples[:])
	ins.prevAllocs = ins.allocSamples[0].Value.Uint64()
	return ins
}

// observeRound feeds one completed round into the instruments.
func (ins *engineInstruments) observeRound(stats *RoundStats, prep, collect, vote, aggTotal, broadcast time.Duration) {
	ins.rounds.Inc()
	ins.distorted.Add(int64(stats.DistortedFiles))
	ins.degraded.Add(int64(stats.DegradedFiles))
	ins.dropped.Add(int64(stats.DroppedFiles))
	ins.reportBytes.Add(stats.Times.ReportBytes)
	ins.reportRawBytes.Add(stats.Times.ReportRawBytes)
	ins.broadcastBytes.Add(stats.Times.BroadcastBytes)
	if stats.AggregatorDegraded {
		ins.aggDegraded.Inc()
	}
	ins.phase[obs.PhasePrep].Observe(prep.Seconds())
	ins.phase[obs.PhaseBroadcast].Observe(broadcast.Seconds())
	ins.phase[obs.PhaseCollect].Observe(collect.Seconds())
	ins.phase[obs.PhaseVote].Observe(vote.Seconds())
	ins.phase[obs.PhaseAggregate].Observe((aggTotal - vote).Seconds())
	ins.phase[obs.PhaseDetect].Observe(stats.Times.Detect.Seconds())
	ins.lr.Set(stats.LR)
	ins.meanRep.Set(stats.MeanReputation)
	ins.flagged.Set(float64(stats.FlaggedWorkers))
	ins.blacklisted.Set(float64(stats.Blacklisted))
	ins.missing.Set(float64(len(stats.MissingWorkers)))
	occupied := ins.totalSlots
	for _, u := range stats.MissingWorkers {
		occupied -= ins.slotCount[u]
	}
	ins.arenaOccupied.Set(float64(occupied))
	// The allocation guard reads the runtime's cumulative heap-object
	// counter and publishes the per-round delta. Reading into the
	// preallocated sample is itself allocation-free, so the guard does
	// not distort what it measures — minus the handful of objects the
	// round legitimately allocates, the published number tracks the
	// TestSteadyStateAllocsPerRound budget live.
	metrics.Read(ins.allocSamples[:])
	cur := ins.allocSamples[0].Value.Uint64()
	ins.heapAllocs.Set(float64(cur - ins.prevAllocs))
	ins.prevAllocs = cur
}
