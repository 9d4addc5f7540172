// The worker slot table: every connection the source holds (handshaking,
// live and parked), each worker's token, join and blacklist state, and
// the closing flag — all guarded by wireSource.mu. This file declares
// the source, whose fields are grouped by owner, and holds the methods
// that change a slot: admission, promotion, clearing, eviction,
// blacklisting and shutdown.

package transport

import (
	"sync"
	"sync/atomic"
	"time"

	"byzshield/internal/assign"
	"byzshield/internal/linalg"
	"byzshield/internal/obs"
	"byzshield/internal/wire"
)

// workerEntry is one worker's connection-lifecycle state, guarded by
// wireSource.mu.
type workerEntry struct {
	// conn is the live connection (nil before the first join and while
	// the worker is down).
	conn *Conn
	// pending is a validated rejoin connection awaiting admission at
	// the next round boundary.
	pending *Conn
	// token is the session token rejoins must present.
	token uint64
	// joined records that the worker completed a first handshake.
	joined bool
	// blacklisted records that the detection layer evicted the worker
	// permanently: its token stays on file but every handshake is
	// refused with Reject{RejectBlacklisted}.
	blacklisted bool
}

// wireSource is the network GradientSource: it broadcasts RoundStart
// (full parameters or XOR deltas, by acknowledgement state) to the
// connected workers through one sender goroutine per worker slot, then
// collects their gradient reports from the reader pumps' inbox under a
// single round deadline. Reports are already parsed and decoded into the
// source's per-slot receive buffers when they reach the collection loop; absent or
// misbehaving workers are marked missing so the round core's quorum rule
// decides the fate of their files.
type wireSource[T linalg.Float] struct {
	// Fixed by NewServerOf before any goroutine starts, read-only after.
	// files[u] is worker u's assigned file list in slot order; uplink is
	// the run's codec tier, named in every Welcome. grads[u][j] is the
	// receive buffer for worker u's j-th file (rows of one flat K·l × dim
	// slab, each capped at dim): the reader pumps decode reports into it
	// in place, and Collect delivers it to the engine. Its slice headers
	// never change; its contents are written only under arenaMu[u].
	timeout   time.Duration
	fullEvery int
	logf      func(format string, args ...any)
	dim       int
	uplink    wire.UplinkTier
	files     [][]int
	grads     [][][]T
	// fleet is the per-worker status table (never nil). Its rows are
	// single atomic stores: handshakes, admission, eviction and
	// blacklisting flip the states, Collect stamps report arrivals.
	fleet *obs.FleetTable
	// serveDone is the Serve context's Done channel, set by Serve before
	// it starts the first goroutine that can evict (see isClosed).
	serveDone <-chan struct{}

	// The connection registry, for the server's lifetime. Every field is
	// written only under mu: by the handshakes (handshake.go), and by the
	// slot methods below, which run on the serve goroutine, a pump, a
	// sender or teardown. A connection is in handshaking from accept
	// until its handshake returns, then in a slot until clearLocked,
	// promoteLocked or evict closes it. joinedCount counts published
	// first joins; the handshake that brings it to K closes allJoined.
	// closing marks shutdown (set once): no new pumps start, and pump
	// exits stop counting as evictions. handshakes joins the handshake
	// goroutines; its one Add is in acceptLoop, which Serve joins before
	// shutdown waits, so the Wait cannot race a late Add.
	mu          sync.Mutex
	workers     []workerEntry
	handshaking map[*Conn]struct{}
	joinedCount int
	allJoined   chan struct{}
	closing     bool
	handshakes  sync.WaitGroup

	// The reader pumps (collect.go), one per live connection, from
	// startPump until the connection dies; pumps joins them. inbox is
	// their bounded fan-in: capacity covers one report per worker per
	// round (the pumps' delivered guard), leftovers of one previous
	// round, a death notice per worker and a worker's worth of margin
	// (4·K + 8), so pumps block only when the collector is about to
	// drain. stopCh is closed with closing and releases blocked pushes.
	// arenaMu[u] serializes decodes into worker u's arena buffers: an old
	// pump superseded by a rejoin must never write them concurrently with
	// (or after) the replacement connection's pump. Adds to pumps happen
	// under mu with closing false, so shutdown's Wait cannot race a late
	// Add.
	inbox   chan pumpItem
	stopCh  chan struct{}
	pumps   sync.WaitGroup
	arenaMu []sync.Mutex

	// Written by Collect, read by the pumps. curRound is the iteration
	// being collected; retireBelow the bound under which the pumps retire
	// reports as stale. During collection retireBelow == curRound; the
	// moment collection closes it advances to curRound+1, so a report
	// landing mid-aggregation is retired on arrival rather than
	// discovered next round.
	curRound    atomic.Int64
	retireBelow atomic.Int64

	// Cumulative lifecycle counters (see Counters): atomics, added by
	// whichever goroutine sees the event.
	joins, rejoins, evictions, staleFrames atomic.Int64
	blacklistRejections                    atomic.Int64

	// Owned by the serve goroutine for the run: Collect (collect.go) is
	// the one writer, and admitPending, which Collect calls, resets a
	// re-admitted worker's ack. roundConns[u] is the connection worker u
	// is served by this round and done[u] whether it has been accounted
	// for; acks[u] is the last round whose broadcast the worker
	// acknowledged with a report or a skip (-1: none since it joined).
	// lastEvictions/lastStaleFrames are the counter totals at the end of
	// the previous collection, so each round reports the delta —
	// including events that landed between rounds. collectTimer is the
	// reused collection deadline (see armTimer).
	roundConns                     []*Conn
	acks                           []int
	done                           []bool
	lastEvictions, lastStaleFrames int64
	collectTimer                   *time.Timer

	// The broadcast (broadcast.go), written by the serve goroutine.
	// prevParams is the vector broadcast last round (the delta base) and
	// prevIter its iteration (-1 = none). fullFrame/deltaFrame are the
	// round's two RoundStart frames, complete and encoded once — the
	// whole vector, and (empty when no worker can use it) the XOR delta
	// against prevParams — shared read-only by every slot sender while
	// the round's sends are in flight. sendQ[u] is slot u's 1-deep queue:
	// Collect queues at most one job per slot per round, startSenders
	// and stopSenders open and close the queues around the rounds.
	// senders joins the sender goroutines; sends joins one round's sends
	// and bcastBytes sums their bytes (both reset every round).
	prevParams            []T
	prevIter              int
	fullFrame, deltaFrame []byte
	sendQ                 []chan sendJob
	senders               sync.WaitGroup
	sends                 sync.WaitGroup
	bcastBytes            atomic.Int64
}

// newWireSource prepares the per-worker state tables and the receive
// buffers of a dim-coordinate model.
func newWireSource[T linalg.Float](asn *assign.Assignment, dim int, cfg *ServerConfig) *wireSource[T] {
	ws := &wireSource[T]{
		timeout:     cfg.RoundTimeout,
		fullEvery:   cfg.FullBroadcastEvery,
		logf:        cfg.Logf,
		dim:         dim,
		uplink:      cfg.Uplink,
		files:       make([][]int, asn.K),
		grads:       make([][][]T, asn.K),
		fleet:       obs.NewFleetTable(asn.K),
		workers:     make([]workerEntry, asn.K),
		handshaking: make(map[*Conn]struct{}),
		allJoined:   make(chan struct{}),
		inbox:       make(chan pumpItem, 4*asn.K+8),
		stopCh:      make(chan struct{}),
		arenaMu:     make([]sync.Mutex, asn.K),
		roundConns:  make([]*Conn, asn.K),
		acks:        make([]int, asn.K),
		done:        make([]bool, asn.K),
		prevIter:    -1,
	}
	ws.curRound.Store(-1)
	ws.retireBelow.Store(-1)
	slots := 0
	for u := 0; u < asn.K; u++ {
		ws.files[u] = asn.WorkerFiles(u)
		ws.acks[u] = -1
		slots += len(ws.files[u])
	}
	backing := make([]T, slots*dim)
	for u := range ws.grads {
		ws.grads[u] = make([][]T, len(ws.files[u]))
		for j := range ws.grads[u] {
			ws.grads[u][j] = backing[:dim:dim]
			backing = backing[dim:]
		}
	}
	return ws
}

// startPump launches worker u's reader goroutine for conn. Callers
// must hold ws.mu (which is what orders the pumps.Add against
// shutdown's closing check).
func (ws *wireSource[T]) startPump(u int, conn *Conn) {
	if ws.closing {
		return
	}
	ws.pumps.Add(1)
	p := &pump[T]{ws: ws, u: u, conn: conn, deliveredIter: -1, dec: wire.UplinkDecoderOf[T]{Tier: ws.uplink}}
	go p.run()
}

// liveConn returns worker u's current live connection (nil when down).
func (ws *wireSource[T]) liveConn(u int) *Conn {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	return ws.workers[u].conn
}

// promoteLocked makes worker u's parked connection live: the connection
// it displaces, if any, is closed, and the parked one's pump starts.
// Callers hold ws.mu and have checked that one is parked.
func (ws *wireSource[T]) promoteLocked(u int) {
	w := &ws.workers[u]
	if w.conn != nil {
		w.conn.Close()
	}
	w.conn, w.pending = w.pending, nil
	ws.startPump(u, w.conn)
}

// clearLocked closes worker u's live and parked connections and empties
// the slot. A pump whose connection it closes finds the slot cleared and
// exits silently. Callers hold ws.mu.
func (ws *wireSource[T]) clearLocked(u int) {
	w := &ws.workers[u]
	for _, c := range [...]*Conn{w.conn, w.pending} {
		if c != nil {
			c.Close()
		}
	}
	w.conn, w.pending = nil, nil
}

// admitPending moves validated rejoin connections into the live slots —
// the "next round boundary" of the rejoin handshake — and starts their
// reader pumps. A re-admitted worker's ack is reset, so this round sends
// it the full vector. Returns how many workers were admitted.
func (ws *wireSource[T]) admitPending(t int) int {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	admitted := 0
	for u := range ws.workers {
		w := &ws.workers[u]
		if w.pending == nil {
			continue
		}
		if w.blacklisted {
			ws.clearLocked(u)
			continue
		}
		ws.promoteLocked(u)
		ws.acks[u] = -1
		ws.rejoins.Add(1)
		ws.fleet.SetState(u, obs.WorkerLive)
		ws.fleet.IncRejoins(u)
		ws.fleet.Touch(u, time.Now())
		admitted++
		ws.logf("round %d: worker %d re-admitted", t, u)
	}
	return admitted
}

// shutdownConns returns each worker slot's connection (nil when none)
// for the final Shutdown message, promoting any still-parked rejoin
// first (with a pump, so its stream drains) — a worker that came back
// after the last round still hears the shutdown. It also flips the
// source into closing mode before returning, so workers hanging up
// after reading the Shutdown are not miscounted as evictions (the flip
// must precede the Shutdown sends, or a fast worker's EOF races it).
func (ws *wireSource[T]) shutdownConns() []*Conn {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	out := make([]*Conn, len(ws.workers))
	for u := range ws.workers {
		if ws.workers[u].pending != nil {
			ws.promoteLocked(u)
		}
		out[u] = ws.workers[u].conn
	}
	ws.markClosingLocked()
	return out
}

// markClosingLocked flips the source into closing mode exactly once: no
// new pumps start, pump exits stop counting as evictions, and blocked
// inbox pushes release. Callers hold ws.mu.
func (ws *wireSource[T]) markClosingLocked() {
	if !ws.closing {
		ws.closing = true
		close(ws.stopCh)
	}
}

// shutdown closes every connection and joins every reader pump and
// handshake. It runs on every Serve exit path, after the accept loop
// has returned, making teardown deterministic: no pump or handshake
// goroutine outlives Serve.
func (ws *wireSource[T]) shutdown() {
	ws.closeConns()
	ws.pumps.Wait()
	ws.handshakes.Wait()
}

// closeConns marks the source closing and closes every connection it
// holds: handshaking, live and parked.
func (ws *wireSource[T]) closeConns() {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	ws.markClosingLocked()
	for c := range ws.handshaking {
		c.Close()
	}
	for u := range ws.workers {
		ws.clearLocked(u)
	}
}

// blacklist evicts worker u permanently on the detection layer's
// verdict: any live or pending connection is closed and every later
// handshake — even with the valid session token — is refused with a
// typed Reject. The closed connection's pump exit is not double-counted
// as an eviction (the slot is already cleared).
func (ws *wireSource[T]) blacklist(u int) {
	ws.mu.Lock()
	ws.workers[u].blacklisted = true
	ws.clearLocked(u)
	ws.mu.Unlock()
	ws.fleet.SetState(u, obs.WorkerBlacklisted)
	ws.logf("worker %d blacklisted: connection closed, rejoin token revoked", u)
}

// isClosed reports whether done is closed. evict asks it of the Serve
// context's Done channel: workers sharing that context hang up on their
// own the moment it is cancelled, so their EOFs can reach the pumps
// before teardown has marked the source closing — and a connection that
// breaks after the cancel is shutdown, not an eviction.
func isClosed(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// evict tears down a connection whose stream broke or misbehaved: it
// is closed, and if it was still the worker's live connection the slot
// is cleared and the eviction counted, so later rounds mark the worker
// missing up front — until it rejoins with its session token. During
// shutdown the same path runs silently (pump exits are expected).
// Safe for concurrent calls on distinct or identical workers.
func (ws *wireSource[T]) evict(u int, conn *Conn, err error) {
	ws.mu.Lock()
	conn.Close()
	live := ws.workers[u].conn == conn
	if live {
		ws.workers[u].conn = nil
	}
	closing := ws.closing || isClosed(ws.serveDone)
	ws.mu.Unlock()
	if live && !closing {
		ws.evicted(u, err)
	}
}

// evicted records that worker u's live connection was torn down mid-run.
func (ws *wireSource[T]) evicted(u int, err error) {
	ws.evictions.Add(1)
	if ws.fleet.State(u) != obs.WorkerBlacklisted {
		ws.fleet.SetState(u, obs.WorkerDown)
	}
	ws.logf("round %d: evicting worker %d: %v", ws.curRound.Load(), u, err)
}
