// Collection: the reader pumps, one per live connection, which own
// their connection's reads and their worker's arena rows while they
// decode; and Collect, which runs on the serve goroutine and owns the
// round's scratch (roundConns, done), the broadcast acknowledgements
// (acks) and the collection deadline timer.

package transport

import (
	"context"
	"fmt"
	"slices"
	"time"

	"byzshield/internal/cluster"
	"byzshield/internal/linalg"
	"byzshield/internal/wire"
)

// pumpItemKind tags inbox entries.
type pumpItemKind int

const (
	// pumpReport: a validated current-round gradient report, already
	// decoded into the engine's arena buffers.
	pumpReport pumpItemKind = iota
	// pumpSkip: an explicit empty report — alive, no gradients.
	pumpSkip
	// pumpDeath: the pump exited (connection broke or misbehaved).
	pumpDeath
)

// pumpItem is one parsed event flowing from a reader pump to the
// collection loop.
type pumpItem struct {
	kind pumpItemKind
	u    int
	conn *Conn
	iter int
	// wireBytes/rawBytes are the report's actual frame size and its
	// raw-equivalent size (pumpReport only).
	wireBytes, rawBytes int
	err                 error
}

// pump is one connection's dedicated reader: it blocks on the socket,
// decodes every deliverable report the moment it arrives, and forwards
// it to the collection inbox. Stale reports — duplicates, or reports
// that missed their round's deadline — are counted and dropped unread
// (uplink frames are self-contained, so skipping one costs the next
// nothing). The pump never sets read deadlines: the round loop's single
// collection timer is the only clock on the hot path.
type pump[T linalg.Float] struct {
	ws   *wireSource[T]
	u    int
	conn *Conn
	dec  wire.UplinkDecoderOf[T]
	// frame is the decode target; its Grads point at the engine's arena
	// buffers.
	frame wire.GradFrameOf[T]
	// deliveredIter/delivered bound the inbox: at most one report frame
	// (or skip) enters it per (connection, round), which keeps a
	// duplicate frame from being decoded into an arena buffer the engine
	// is reading. delivered marks deliveredIter's frame as forwarded.
	deliveredIter int
	delivered     bool
}

// run pumps frames until the connection dies or misbehaves.
func (p *pump[T]) run() {
	defer p.ws.pumps.Done()
	for {
		typ, body, err := p.conn.next()
		if err == nil {
			err = p.handleFrame(typ, body)
		}
		if err != nil {
			p.ws.evict(p.u, p.conn, err)
			p.notifyDeath(err)
			return
		}
	}
}

// handleFrame decodes one frame into a stack GradientReport and handles
// it. Any other frame type is a protocol violation: the error names it
// (or is the decode error of a frame that is not even well formed).
func (p *pump[T]) handleFrame(typ byte, body []byte) error {
	if typ != msgGradientReport {
		msg, err := decodeMessage(typ, body)
		if err != nil {
			return err
		}
		return fmt.Errorf("expected GradientReport, got %T", msg)
	}
	var rep GradientReport
	if err := rep.decodePayload(body); err != nil {
		return err
	}
	return p.handle(&rep)
}

// handle processes one gradient report frame in stream order.
func (p *pump[T]) handle(rep *GradientReport) error {
	ws := p.ws
	if rep.WorkerID != p.u {
		return fmt.Errorf("report claims worker %d", rep.WorkerID)
	}
	it := rep.Iteration
	cur := int(ws.curRound.Load())
	if it > cur || it < 0 {
		return fmt.Errorf("report for future round %d (current %d)", it, cur)
	}
	if it > p.deliveredIter {
		p.deliveredIter = it
		p.delivered = false
	}
	retire := int(ws.retireBelow.Load())
	if it < retire || it < p.deliveredIter || p.delivered {
		// Too late for its round, or a duplicate frame: retire it
		// unread.
		ws.staleFrames.Add(1)
		return nil
	}
	p.delivered = true
	if len(rep.Frame) == 0 {
		// Explicit skip: alive, no gradients this round.
		p.push(pumpItem{kind: pumpSkip, u: p.u, conn: p.conn, iter: it})
		return nil
	}
	// Arena decodes for one worker are serialized, and liveness is
	// re-checked under that lock: after a rejoin displaces this
	// connection, the new pump owns the worker's arena slots, and a
	// superseded pump that already passed the round checks must not race
	// it — its report is retired unread.
	wf := ws.files[p.u]
	ws.arenaMu[p.u].Lock()
	if ws.liveConn(p.u) != p.conn {
		ws.arenaMu[p.u].Unlock()
		ws.staleFrames.Add(1)
		return nil
	}
	err := p.decode(rep.Frame)
	ws.arenaMu[p.u].Unlock()
	if err != nil {
		return fmt.Errorf("%w: %w", ErrBadReport, err)
	}
	p.push(pumpItem{
		kind: pumpReport, u: p.u, conn: p.conn, iter: it,
		wireBytes: len(rep.Frame),
		rawBytes:  wire.UplinkRawSizeOf[T](len(wf), ws.dim),
	})
	return nil
}

// decode runs one report frame through the uplink decoder into the
// worker's arena buffers and validates its structure against the
// worker's static file assignment and the model dimension.
func (p *pump[T]) decode(frameBytes []byte) error {
	ws := p.ws
	wf := ws.files[p.u]
	p.frame.Grads = p.arenaBufs()
	_, consumed, err := p.dec.Decode(frameBytes, &p.frame)
	switch {
	case err != nil:
		return err
	case consumed != len(frameBytes):
		return fmt.Errorf("frame has %d trailing bytes", len(frameBytes)-consumed)
	case p.frame.Worker != p.u:
		return fmt.Errorf("frame claims worker %d", p.frame.Worker)
	case !slices.Equal(p.frame.Files, wf):
		return fmt.Errorf("frame files %v, want %v", p.frame.Files, wf)
	}
	for j := range wf {
		if len(p.frame.Grads[j]) != ws.dim {
			return fmt.Errorf("frame gradient %d has dim %d, want %d", j, len(p.frame.Grads[j]), ws.dim)
		}
	}
	return nil
}

// arenaBufs points the decode at the source's stable receive buffers
// for this worker — delivering a report frame is decoding it in place.
func (p *pump[T]) arenaBufs() [][]T {
	ws := p.ws
	wf := ws.files[p.u]
	if cap(p.frame.Grads) < len(wf) {
		p.frame.Grads = make([][]T, len(wf))
	}
	bufs := p.frame.Grads[:len(wf)]
	for j := range wf {
		// The full slice expression caps the target at the row's end: a
		// hostile frame declaring a wider dimension makes the decoder
		// allocate instead of scribbling past the row into the slab's
		// next buffer, and the width check above then evicts.
		bufs[j] = ws.grads[p.u][j][:ws.dim:ws.dim]
	}
	return bufs
}

// push forwards an item to the collection inbox, giving up when the
// source shuts down (the only state in which the inbox can stay full).
func (p *pump[T]) push(item pumpItem) {
	select {
	case p.ws.inbox <- item:
	case <-p.ws.stopCh:
	}
}

// notifyDeath posts a death notice so an in-flight collection stops
// waiting for this worker immediately instead of running out the
// deadline.
func (p *pump[T]) notifyDeath(err error) {
	p.push(pumpItem{kind: pumpDeath, u: p.u, conn: p.conn, err: err})
}

// Collect implements cluster.GradientSourceOf over TCP: admit parked
// rejoins, broadcast RoundStart to every live worker (through the slot
// senders, in parallel), then drain the pumps' inbox under one deadline
// timer until every live worker is accounted for — delivered, explicitly
// skipping, or dead. The pumps have already decoded deliverable reports into the
// engine's arena, so this loop only attributes results; it never
// touches a socket.
func (ws *wireSource[T]) Collect(ctx context.Context, rd *cluster.RoundOf[T]) (cluster.CollectStats, error) {
	t := rd.Iteration()
	rejoins := ws.admitPending(t)
	// Open the round for the pumps: reports for t are deliverable,
	// anything older is retired on arrival.
	ws.curRound.Store(int64(t))
	ws.retireBelow.Store(int64(t))
	if err := ws.prepareBroadcast(t, rd.Params()); err != nil {
		return cluster.CollectStats{}, err
	}
	start := time.Now()

	// Snapshot the fleet for the round.
	ws.mu.Lock()
	outstanding := 0
	for u := range ws.workers {
		conn := ws.workers[u].conn
		ws.roundConns[u] = conn
		ws.done[u] = false
		if conn == nil {
			rd.MarkMissing(u)
		} else {
			outstanding++
		}
	}
	ws.mu.Unlock()
	bcastStart := time.Now()
	ws.broadcast(t)
	bcastDur := time.Since(bcastStart)

	// Collection: a single select over the inbox and one deadline
	// timer. No per-worker socket reads, no per-worker deadlines.
	var reportBytes, rawBytes int64
	handleItem := func(item pumpItem) {
		u := item.u
		if ws.roundConns[u] != item.conn || ws.done[u] {
			// A previous connection's leftovers, or events for a
			// worker already accounted this round.
			if item.kind != pumpDeath {
				ws.staleFrames.Add(1)
			}
			return
		}
		switch item.kind {
		case pumpReport:
			if item.iter != t {
				ws.staleFrames.Add(1)
				return
			}
			reportBytes += int64(item.wireBytes)
			rawBytes += int64(item.rawBytes)
			for j := range ws.files[u] {
				if err := rd.Deliver(u, j, ws.grads[u][j]); err != nil {
					ws.evict(u, item.conn, err)
					rd.MarkMissing(u)
					ws.done[u] = true
					outstanding--
					return
				}
			}
			ws.acks[u] = t
			ws.fleet.ObserveRound(u, t)
			ws.fleet.Touch(u, time.Now())
		case pumpSkip:
			if item.iter != t {
				ws.staleFrames.Add(1)
				return
			}
			// Explicit skip: alive, no gradients this round — but the
			// round's parameters were received and applied, so the
			// skip still acknowledges the broadcast.
			ws.logf("worker %d skipped round %d", u, t)
			ws.acks[u] = t
			ws.fleet.Touch(u, time.Now())
			rd.MarkMissing(u)
		case pumpDeath:
			rd.MarkMissing(u)
		}
		ws.done[u] = true
		outstanding--
	}
	timerC := armTimer(&ws.collectTimer, ws.timeout)
	for outstanding > 0 {
		select {
		case item := <-ws.inbox:
			handleItem(item)
		case <-timerC:
			// Deadline. A report that beat the deadline but lost the
			// select race is already parsed and queued — drain the
			// inbox non-blocking before marking anyone missing, so an
			// on-time report is never discarded by scheduling jitter.
			drained := false
			for !drained && outstanding > 0 {
				select {
				case item := <-ws.inbox:
					handleItem(item)
				default:
					drained = true
				}
			}
			for u := range ws.roundConns {
				if ws.roundConns[u] != nil && !ws.done[u] {
					ws.logf("round %d: worker %d missed the deadline", t, u)
					rd.MarkMissing(u)
				}
			}
			outstanding = 0
		case <-ctx.Done():
			return cluster.CollectStats{}, ctx.Err()
		}
	}
	// Close the round: from here every report for t is stale and the
	// pumps retire it the moment it arrives — draining overlaps with
	// aggregation instead of eating the next collection window.
	ws.retireBelow.Store(int64(t + 1))

	if err := ctx.Err(); err != nil {
		return cluster.CollectStats{}, err
	}
	ev, st := ws.evictions.Load(), ws.staleFrames.Load()
	stats := cluster.CollectStats{
		Communication:  time.Since(start),
		Broadcast:      bcastDur,
		ReportBytes:    reportBytes,
		ReportRawBytes: rawBytes,
		BroadcastBytes: ws.bcastBytes.Load(),
		Rejoins:        rejoins,
		Evictions:      int(ev - ws.lastEvictions),
		StaleFrames:    int(st - ws.lastStaleFrames),
	}
	ws.lastEvictions, ws.lastStaleFrames = ev, st
	return stats, nil
}

// armTimer (re)arms a reused timer for d and returns its channel; nil —
// never ready — when d is not positive (a collection with no deadline).
// Whoever used the timer last may have left it running (it stopped
// waiting early) or its tick pending (it fired after they stopped
// selecting): stop and drain before Reset, so a stale tick cannot end
// this wait prematurely.
func armTimer(timer **time.Timer, d time.Duration) <-chan time.Time {
	if d <= 0 {
		return nil
	}
	t := *timer
	if t == nil {
		t = time.NewTimer(d)
		*timer = t
		return t.C
	}
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	t.Reset(d)
	return t.C
}
