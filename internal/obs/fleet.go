package obs

import (
	"fmt"
	"io"
	"math"
	"sync/atomic"
	"time"
)

// WorkerState is a fleet-table row's connection state.
type WorkerState int32

const (
	// WorkerUnseen: never completed a handshake.
	WorkerUnseen WorkerState = iota
	// WorkerLive: connected and pumping.
	WorkerLive
	// WorkerDown: evicted or disconnected; may rejoin.
	WorkerDown
	// WorkerBlacklisted: token revoked; rejoins are rejected.
	WorkerBlacklisted
)

// String returns the state's display name.
func (s WorkerState) String() string {
	switch s {
	case WorkerLive:
		return "live"
	case WorkerDown:
		return "down"
	case WorkerBlacklisted:
		return "blacklisted"
	default:
		return "unseen"
	}
}

// fleetRow is one worker's live state: every field is an atomic so the
// transport's handshake/eviction/round paths write without locks and
// the scrape side reads a consistent-enough snapshot.
type fleetRow struct {
	state     atomic.Int32
	lastRound atomic.Int64 // last round a report landed; -1 before any
	rejoins   atomic.Int64
	repBits   atomic.Uint64 // reputation as float bits
	lastSeen  atomic.Int64  // unix nanos of last handshake/report
}

// FleetTable is the per-worker status table behind /statusz and the
// per-worker series on /metrics. Rows are preallocated at server
// construction (one per worker id); all updates are single atomic
// stores.
type FleetTable struct {
	rows []fleetRow
}

// NewFleetTable returns a table with k rows, all unseen, reputation 1.
func NewFleetTable(k int) *FleetTable {
	t := &FleetTable{rows: make([]fleetRow, k)}
	for i := range t.rows {
		t.rows[i].lastRound.Store(-1)
		t.rows[i].repBits.Store(math.Float64bits(1))
	}
	return t
}

// Size returns the number of rows.
func (t *FleetTable) Size() int { return len(t.rows) }

// SetState records worker u's connection state.
func (t *FleetTable) SetState(u int, s WorkerState) { t.rows[u].state.Store(int32(s)) }

// State returns worker u's connection state.
func (t *FleetTable) State(u int) WorkerState { return WorkerState(t.rows[u].state.Load()) }

// ObserveRound records that worker u participated in round r.
func (t *FleetTable) ObserveRound(u, r int) { t.rows[u].lastRound.Store(int64(r)) }

// LastRound returns the last round worker u participated in (-1 if
// none).
func (t *FleetTable) LastRound(u int) int64 { return t.rows[u].lastRound.Load() }

// IncRejoins counts one successful rejoin for worker u.
func (t *FleetTable) IncRejoins(u int) { t.rows[u].rejoins.Add(1) }

// Rejoins returns worker u's rejoin count.
func (t *FleetTable) Rejoins(u int) int64 { return t.rows[u].rejoins.Load() }

// SetReputation records worker u's current reputation score.
func (t *FleetTable) SetReputation(u int, rep float64) {
	t.rows[u].repBits.Store(math.Float64bits(rep))
}

// Reputation returns worker u's recorded reputation.
func (t *FleetTable) Reputation(u int) float64 {
	return math.Float64frombits(t.rows[u].repBits.Load())
}

// Touch stamps worker u's last-seen time with now.
func (t *FleetTable) Touch(u int, now time.Time) { t.rows[u].lastSeen.Store(now.UnixNano()) }

// WritePrometheus writes the per-worker series: state, last round,
// rejoins, and reputation, labeled by worker id.
func (t *FleetTable) WritePrometheus(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# HELP byzshield_worker_state worker connection state (0 unseen, 1 live, 2 down, 3 blacklisted)\n# TYPE byzshield_worker_state gauge\n"); err != nil {
		return err
	}
	for u := range t.rows {
		if _, err := fmt.Fprintf(w, "byzshield_worker_state{worker=\"%d\"} %d\n", u, t.rows[u].state.Load()); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "# HELP byzshield_worker_last_round last round the worker reported in (-1 before any)\n# TYPE byzshield_worker_last_round gauge\n"); err != nil {
		return err
	}
	for u := range t.rows {
		if _, err := fmt.Fprintf(w, "byzshield_worker_last_round{worker=\"%d\"} %d\n", u, t.rows[u].lastRound.Load()); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "# HELP byzshield_worker_rejoins_total successful session-token rejoins per worker\n# TYPE byzshield_worker_rejoins_total counter\n"); err != nil {
		return err
	}
	for u := range t.rows {
		if _, err := fmt.Fprintf(w, "byzshield_worker_rejoins_total{worker=\"%d\"} %d\n", u, t.rows[u].rejoins.Load()); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "# HELP byzshield_worker_reputation detector reputation score per worker\n# TYPE byzshield_worker_reputation gauge\n"); err != nil {
		return err
	}
	for u := range t.rows {
		if _, err := fmt.Fprintf(w, "byzshield_worker_reputation{worker=\"%d\"} %v\n", u, t.Reputation(u)); err != nil {
			return err
		}
	}
	return nil
}

// WriteStatusz writes the human-readable fleet table.
func (t *FleetTable) WriteStatusz(w io.Writer, now time.Time) error {
	if _, err := fmt.Fprintf(w, "%-6s %-12s %10s %8s %6s %10s\n",
		"worker", "state", "last_round", "rejoins", "rep", "last_seen"); err != nil {
		return err
	}
	for u := range t.rows {
		r := &t.rows[u]
		seen := "never"
		if ns := r.lastSeen.Load(); ns != 0 {
			seen = now.Sub(time.Unix(0, ns)).Truncate(time.Millisecond).String() + " ago"
		}
		if _, err := fmt.Fprintf(w, "%-6d %-12s %10d %8d %6.3f %10s\n",
			u, WorkerState(r.state.Load()), r.lastRound.Load(), r.rejoins.Load(), t.Reputation(u), seen); err != nil {
			return err
		}
	}
	return nil
}
