// Admission: the accept loop and each connection's Hello/Welcome
// exchange. A handshake owns its connection from accept until it is
// rejected and closed or published into a worker slot; in between the
// connection sits in the source's handshaking set, so teardown can
// reach it.

package transport

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"byzshield/internal/obs"
	"byzshield/internal/wire"
)

// helloTimeout bounds how long an accepted connection may take to send
// its Hello before the handshake rejects it and moves on; without it a
// half-open connection could stall worker admission forever.
const helloTimeout = 30 * time.Second

// newToken draws a fresh random session token.
func newToken() (uint64, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// acceptLoop accepts connections for the whole run, handshaking each on
// its own goroutine (counted in src.handshakes): initial joins before
// round 1, rejoins any time after. It returns when the listener closes
// (teardown or end of Serve).
func (s *ServerOf[T]) acceptLoop(ctx context.Context) error {
	for {
		raw, err := s.listener.Accept()
		if err != nil {
			return ctxErr(ctx, err)
		}
		conn := newHandshakeConn(raw)
		s.src.mu.Lock()
		s.src.handshaking[conn] = struct{}{}
		s.src.mu.Unlock()
		s.src.handshakes.Add(1)
		go func() {
			defer s.src.handshakes.Done()
			s.handshake(ctx, conn)
		}()
	}
}

// handshake runs one connection's Hello/Welcome exchange. A bad
// handshake rejects this connection only: the listener keeps accepting,
// so one malformed, duplicate, or stale-token Hello cannot tear down
// the cluster.
func (s *ServerOf[T]) handshake(ctx context.Context, conn *Conn) {
	ws := s.src
	defer func() {
		ws.mu.Lock()
		delete(ws.handshaking, conn)
		ws.mu.Unlock()
	}()
	reject := func(format string, args ...any) {
		s.cfg.Logf("rejecting %s: %s", conn.RemoteAddr(), fmt.Sprintf(format, args...))
		conn.Close()
	}
	conn.SetReadDeadline(time.Now().Add(helloTimeout))
	msg, err := conn.Recv()
	conn.SetReadDeadline(time.Time{})
	if err != nil {
		if errors.Is(err, wire.ErrVersionMismatch) {
			// The peer speaks another protocol version — its very first
			// frame header says so, before any payload parses. Tell it
			// with a typed Reject instead of a silent close (an old peer
			// may not parse the v6 Reject frame, but the bytes on its
			// socket are deterministic and diagnosable either way).
			sendReject(conn, s.cfg.Logf, RejectVersion, err.Error())
			return
		}
		reject("hello: %v", ctxErr(ctx, err))
		return
	}
	hello, ok := msg.(Hello)
	if !ok {
		reject("expected Hello, got %T", msg)
		return
	}
	if hello.Version != wire.ProtocolVersion {
		sendReject(conn, s.cfg.Logf, RejectVersion,
			fmt.Sprintf("protocol version %d, want %d", hello.Version, wire.ProtocolVersion))
		return
	}
	if prec := wire.PrecisionOf[T](); hello.Precisions&prec.Mask() == 0 {
		// Every frame of this run carries values of width T; a worker
		// that does not speak that codec set cannot parse them.
		sendReject(conn, s.cfg.Logf, RejectPrecision, fmt.Sprintf("worker %d offers precision mask %#x, server runs %s",
			hello.WorkerID, hello.Precisions, prec))
		return
	}
	u, k := hello.WorkerID, len(ws.workers)
	if u < 0 || u >= k {
		reject("worker id %d out of range [0,%d)", u, k)
		return
	}
	token, err := newToken()
	if err != nil {
		reject("token: %v", err)
		return
	}
	// The peer is a worker of this run: from here it may send report
	// frames, and nothing larger.
	conn.setPayloadLimit(reportPayloadLimit[T](len(ws.files[u]), ws.dim))
	ws.mu.Lock()
	w := &ws.workers[u]
	switch {
	case w.blacklisted:
		// Blacklist beats token validation: even a valid session token is
		// permanently revoked, and the worker is told so with a typed
		// Reject instead of a silent close.
		ws.mu.Unlock()
		s.rejectBlacklisted(conn, u)
		return
	case !w.joined:
		// First join: reserve the slot (blocks duplicate Hellos) but do
		// NOT publish the connection yet — it becomes visible to the
		// join barrier and the round loop only after the Welcome is
		// fully on the wire, so a RoundStart can never race the
		// handshake's own Send on this Conn.
		w.joined = true
		w.token = token
		ws.mu.Unlock()
	case hello.Resume && hello.Token == w.token:
		ws.mu.Unlock()
	case hello.Resume:
		ws.mu.Unlock()
		reject("worker %d rejoin with bad token", u)
		return
	default:
		ws.mu.Unlock()
		reject("worker %d already connected", u)
		return
	}
	if _, err := conn.Send(Welcome{
		Version:   wire.ProtocolVersion,
		Token:     token,
		Uplink:    ws.uplink,
		Spec:      s.cfg.Spec,
		Precision: wire.PrecisionOf[T](),
	}); err != nil {
		if !hello.Resume {
			// Release the reserved slot so the worker id can join again.
			ws.mu.Lock()
			w.joined = false
			w.token = 0
			ws.mu.Unlock()
		}
		reject("welcome: %v", ctxErr(ctx, err))
		return
	}
	// The Welcome is on the wire: publish the connection. A rejoin is
	// parked for round-boundary admission (closing any stale live or
	// previously parked connection — a valid token proves the old
	// stream is dead or hijacked); a first join goes live immediately
	// (rounds wait for the full fleet behind the join barrier) with its
	// reader pump started.
	ws.mu.Lock()
	if ws.closing {
		ws.mu.Unlock()
		reject("server shutting down")
		return
	}
	if w.blacklisted {
		// Blacklisted while the Welcome was in flight.
		ws.mu.Unlock()
		s.rejectBlacklisted(conn, u)
		return
	}
	w.token = token
	// A rejoin that finds the old connection still live tears it down
	// here, before its pump has seen the stream break: that is the
	// eviction, counted now — the pump will find the slot already cleared
	// and stay silent, so the count is one whichever of the two notices
	// first.
	displaced := hello.Resume && w.conn != nil
	if hello.Resume {
		ws.clearLocked(u)
		w.pending = conn
	} else {
		w.conn = conn
		ws.joinedCount++
		ws.joins.Add(1)
		ws.startPump(u, conn)
	}
	joined := ws.joinedCount
	ws.mu.Unlock()
	if displaced {
		ws.evicted(u, errors.New("displaced by the worker's rejoin"))
	}
	ws.fleet.Touch(u, time.Now())
	if hello.Resume {
		// State flips to live at admitPending — the round boundary where
		// the rejoin actually takes effect.
		s.cfg.Logf("worker %d reconnected from %s (re-admission at next round)", u, conn.RemoteAddr())
		return
	}
	ws.fleet.SetState(u, obs.WorkerLive)
	s.cfg.Logf("worker %d joined from %s (%d/%d)", u, conn.RemoteAddr(), joined, k)
	if joined == k {
		// joinedCount grows only here, under mu: exactly one handshake
		// reads K, and it opens the join barrier once its worker is live.
		close(ws.allJoined)
	}
}

// sendReject refuses a handshake with a typed Reject before closing, so
// the peer learns why it cannot enter the run (and whether retrying can
// ever help) instead of seeing a silent close.
func sendReject(conn *Conn, logf func(string, ...any), code uint8, reason string) {
	logf("rejecting %s: %s", conn.RemoteAddr(), reason)
	conn.SetWriteDeadline(time.Now().Add(helloTimeout))
	if _, err := conn.Send(Reject{Code: code, Reason: reason}); err != nil {
		logf("reject send to %s: %v", conn.RemoteAddr(), err)
	}
	conn.Close()
}

// rejectBlacklisted refuses a blacklisted worker's handshake with a
// typed Reject frame and counts the refusal.
func (s *ServerOf[T]) rejectBlacklisted(conn *Conn, u int) {
	s.src.blacklistRejections.Add(1)
	sendReject(conn, s.cfg.Logf, RejectBlacklisted, fmt.Sprintf("worker %d blacklisted by the detection layer", u))
}
