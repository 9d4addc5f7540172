// The broadcast: one sender goroutine per worker slot with its 1-deep
// job queue, the round's two encoded RoundStart frames, and the delta
// base (prevParams, prevIter). The serve goroutine is their one writer:
// Serve starts and stops the senders, and Collect encodes the frames and
// queues the jobs.

package transport

import (
	"fmt"
	"time"

	"byzshield/internal/wire"
)

// sendJob is one worker slot's RoundStart send of a round: the
// connection the round's snapshot found live, the round, and the
// worker's broadcast acknowledgement (acks) when the job was queued.
type sendJob struct {
	conn   *Conn
	t, ack int
}

// startSenders starts one broadcast sender per worker slot. A slot
// outlives its connections, so a sender needs no lifecycle of its own
// across evictions, rejoins or blacklisting: each job names the
// connection to write.
func (ws *wireSource[T]) startSenders() {
	ws.sendQ = make([]chan sendJob, len(ws.workers))
	for u := range ws.sendQ {
		ws.sendQ[u] = make(chan sendJob, 1)
		ws.senders.Add(1)
		go ws.sender(u, ws.sendQ[u])
	}
}

// stopSenders closes the broadcast queues and joins the senders. The
// senders do not watch stopCh: one that quit with a job still queued
// would leave Collect waiting on its round's sends forever.
func (ws *wireSource[T]) stopSenders() {
	for _, q := range ws.sendQ {
		close(q)
	}
	ws.senders.Wait()
}

// sender writes slot u's RoundStart of every round queued to it. A
// failed or partial send poisons the outbound stream — unlike reads it
// cannot be resumed — so the worker is evicted (its pump notices the
// closed conn and posts the death notice).
func (ws *wireSource[T]) sender(u int, q <-chan sendJob) {
	defer ws.senders.Done()
	for job := range q {
		n, err := sendRoundStart(job.conn, ws.timeout, job.t, job.ack, ws.fullFrame, ws.deltaFrame)
		if err != nil {
			ws.evict(u, job.conn, fmt.Errorf("send: %w", err))
		} else {
			ws.bcastBytes.Add(int64(n))
		}
		ws.sends.Done()
	}
}

// broadcast queues round t's RoundStart to the sender of every slot in
// the round's snapshot (roundConns) and waits out the sends. One slow
// socket holds one sender for a write deadline and costs the round that
// deadline, not a serial sum. Every queue is empty here — last round's
// sends were waited out — so no queueing blocks.
func (ws *wireSource[T]) broadcast(t int) {
	ws.bcastBytes.Store(0)
	for u, conn := range ws.roundConns {
		if conn != nil {
			ws.sends.Add(1)
			ws.sendQ[u] <- sendJob{conn: conn, t: t, ack: ws.acks[u]}
		}
	}
	ws.sends.Wait()
}

// prepareBroadcast encodes this round's two RoundStart frames: the one
// carrying the full vector (always needed for unacknowledged or refresh
// rounds) and the one carrying the delta against the previous round's
// vector when any worker can use it. Both buffers are read-only for the
// round. It then rolls the delta base forward: next round's deltas patch
// this round's vector.
func (ws *wireSource[T]) prepareBroadcast(t int, params []T) error {
	b, at := beginRoundStart(ws.fullFrame[:0], t, 0)
	b, err := wire.AppendParamsFullOf(b, params)
	if err == nil {
		ws.fullFrame, err = endRoundStart(b, at)
	}
	ws.deltaFrame = ws.deltaFrame[:0]
	if err == nil && !refreshRound(t, ws.fullEvery) && ws.prevIter == t-1 {
		b, at = beginRoundStart(ws.deltaFrame, t, t-1)
		if b, err = wire.AppendParamsDeltaOf(b, ws.prevParams, params); err == nil {
			ws.deltaFrame, err = endRoundStart(b, at)
		}
	}
	if err != nil {
		return fmt.Errorf("transport: broadcast: %w", err)
	}
	ws.prevParams = append(ws.prevParams[:0], params...)
	ws.prevIter = t
	return nil
}

// refreshRound reports whether round t is a full-broadcast refresh under
// the cadence fullEvery.
func refreshRound(t, fullEvery int) bool {
	return t == 0 || fullEvery <= 1 || t%fullEvery == 0
}

// sendRoundStart sends one worker round t's RoundStart and returns the
// bytes written: the round's delta frame when there is one and the
// worker acknowledged round t-1, the full frame otherwise, under the
// round timeout as the write deadline.
func sendRoundStart(conn *Conn, timeout time.Duration, t, ack int, full, delta []byte) (int, error) {
	if timeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(timeout))
		defer conn.SetWriteDeadline(time.Time{})
	}
	if len(delta) > 0 && ack == t-1 {
		return conn.raw.Write(delta)
	}
	return conn.raw.Write(full)
}
