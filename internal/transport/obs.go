package transport

import "byzshield/internal/obs"

// registerInstruments adds the transport's metric families to r. The
// lifecycle counters are CounterFuncs over the very atomics
// Server.Counters reads, so /metrics, /statusz, and the shutdown
// summary can never disagree — there is one source of truth and three
// views of it. Nothing here touches the round hot path: every function
// is evaluated only when a scrape walks the registry.
func (s *ServerOf[T]) registerInstruments(r *obs.Registry) {
	src := s.src
	r.CounterFunc("byzshield_joins_total", "", "first-time worker admissions",
		func() float64 { return float64(src.joins.Load()) })
	r.CounterFunc("byzshield_rejoins_total", "", "re-admissions of returning workers at round boundaries",
		func() float64 { return float64(src.rejoins.Load()) })
	r.CounterFunc("byzshield_evictions_total", "", "live connections torn down mid-run (shutdown excluded)",
		func() float64 { return float64(src.evictions.Load()) })
	r.CounterFunc("byzshield_stale_frames_total", "", "gradient reports retired as too late or duplicate",
		func() float64 { return float64(src.staleFrames.Load()) })
	r.CounterFunc("byzshield_blacklist_rejections_total", "", "rejoin attempts refused because the worker is blacklisted",
		func() float64 { return float64(src.blacklistRejections.Load()) })
	r.GaugeFunc("byzshield_inbox_depth", "", "reader-pump inbox occupancy (reports parsed but not yet attributed)",
		func() float64 { return float64(len(src.inbox)) })
	r.GaugeFunc("byzshield_inbox_capacity", "", "reader-pump inbox capacity",
		func() float64 { return float64(cap(src.inbox)) })
	r.GaugeFunc("byzshield_current_round", "", "iteration currently being collected (-1 before the first round)",
		func() float64 { return float64(src.curRound.Load()) })
	fleet := s.src.fleet
	r.GaugeFunc("byzshield_live_workers", "", "workers with a live pumping connection",
		func() float64 {
			live := 0
			for u := 0; u < fleet.Size(); u++ {
				if fleet.State(u) == obs.WorkerLive {
					live++
				}
			}
			return float64(live)
		})
}

// workerInstruments is the worker-side mirror of the PS registry: a
// worker process exposes its own participation counters on its
// -metrics-addr, so a fleet operator can tell a worker that is
// computing from one that is wedged without asking the PS.
type workerInstruments struct {
	rounds      *obs.Counter
	skips       *obs.Counter
	reportBytes *obs.Counter
	reconnects  *obs.Counter
	rejections  *obs.Counter
	round       *obs.Gauge
	tier        *obs.Gauge
	computeSec  *obs.Histogram
}

// workerPhaseBuckets spans 50µs–~6.5s like the PS phase histograms.
var workerPhaseBuckets = obs.ExpBuckets(50e-6, 2.4, 14)

// newWorkerInstruments registers the worker families on r.
func newWorkerInstruments(r *obs.Registry) *workerInstruments {
	return &workerInstruments{
		rounds:      r.Counter("byzworker_rounds_total", "", "rounds the worker reported gradients for"),
		skips:       r.Counter("byzworker_skips_total", "", "rounds the worker sent an explicit empty report"),
		reportBytes: r.Counter("byzworker_report_bytes_total", "", "serialized gradient report bytes sent"),
		reconnects:  r.Counter("byzworker_reconnects_total", "", "reconnect attempts after a broken PS connection"),
		rejections:  r.Counter("byzworker_rejections_total", "", "typed Reject frames received from the PS"),
		round:       r.Gauge("byzworker_current_round", "", "iteration of the last RoundStart received"),
		tier:        r.Gauge("byzworker_uplink_tier", "", "uplink codec tier code the PS named"),
		computeSec:  r.Histogram("byzworker_compute_seconds", "", "wall-clock time of local gradient computation per round", workerPhaseBuckets),
	}
}

// All workerInstruments methods are nil-safe: a worker without
// -metrics-addr carries a nil pointer and every call is a no-op.

// reportSent counts one sent gradient report of frameBytes frame bytes.
func (wi *workerInstruments) reportSent(frameBytes int) {
	if wi != nil {
		wi.rounds.Inc()
		wi.reportBytes.Add(int64(frameBytes))
	}
}

// skipSent counts one explicit empty report.
func (wi *workerInstruments) skipSent() {
	if wi != nil {
		wi.skips.Inc()
	}
}

// reconnecting counts one reconnect attempt.
func (wi *workerInstruments) reconnecting() {
	if wi != nil {
		wi.reconnects.Inc()
	}
}

// rejected counts one typed Reject from the PS.
func (wi *workerInstruments) rejected() {
	if wi != nil {
		wi.rejections.Inc()
	}
}

// roundStarted publishes the RoundStart iteration.
func (wi *workerInstruments) roundStarted(iter int) {
	if wi != nil {
		wi.round.Set(float64(iter))
	}
}

// tierNamed publishes the Welcome's uplink tier code.
func (wi *workerInstruments) tierNamed(code int32) {
	if wi != nil {
		wi.tier.Set(float64(code))
	}
}

// computeObserved records one round's local gradient-computation span.
func (wi *workerInstruments) computeObserved(sec float64) {
	if wi != nil {
		wi.computeSec.Observe(sec)
	}
}
