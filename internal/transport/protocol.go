// Package transport implements a real network transport for the
// training protocol: a TCP parameter server and worker clients speaking
// the framed v12 control protocol over net.Conn. This is the repository's
// substitute for the paper's MPICH deployment — cmd/byzps and
// cmd/byzworker run the same synchronous rounds as the in-process engine
// across OS processes (or machines). The server executes every round
// through the shared cluster round core (it installs a network
// GradientSource into cluster.Engine), so the wire path votes,
// aggregates, and steps exactly like the in-process engine and
// reproduces its parameter trajectory bit-for-bit for the same Spec.
//
// Wire protocol v12 (every message one self-delimiting frame, see
// internal/wire: magic, version, type, length header + canonical
// little-endian binary payload):
//
//	worker → PS:  Hello{WorkerID, Version, Token, Resume, Precisions}
//	PS → worker:  Welcome{Version, Token, Uplink, Spec, Precision}
//	PS → worker:  Reject{Code, Reason}
//	PS → worker:  RoundStart{Iteration, BaseIteration, ParamsFrame}
//	worker → PS:  GradientReport{WorkerID, Iteration, Frame}
//	PS → worker:  Shutdown{FinalAccuracy}
//
// v12 dropped the detection policy from the Spec: the window, minimum
// observed rounds, reputation decay, detector threshold and blacklist
// floor are constants of internal/detect, so the Spec names only the
// detector and its payload is 32 bytes shorter.
//
// v11 made the Spec the one run description (spec.go): it names the
// data distribution every process samples under and the vote quorum,
// so a non-IID or quorum-tuned run has a wire twin.
//
// v10 deleted the sharded aggregation plane v5 added: a worker's round
// is one GradientReport carrying its whole rows, so the report lost its
// shard index and the Welcome its shard count.
//
// v9 made every uplink frame self-contained (wire/uplink.go). Both ends
// of a connection run the same binary — the handshake checks the
// version — so every admitted worker speaks every uplink tier, and the
// PS names the connection's tier in Welcome.Uplink instead of
// negotiating it: the Hello's tier mask went, as did the Welcome's
// full-broadcast cadence, which no worker read.
//
// v8 stopped shipping what every process can derive: round t's batch and
// its partition into files are a function of the Spec (TrainN, BatchSize,
// Seed) and the assignment's F, so each worker draws them from its own
// data.FileStream — as the PS's engine does — and a RoundStart carries
// the round number and the parameters, nothing else. The file section of
// RoundStart, the round-prep message (type 7, now unassigned) that
// pipelined the next round's sample lists, and the Welcome's pipeline flag
// went with it. v7 added the negotiated precision (Hello.Precisions,
// Welcome.Precision).
//
// v6 made the uplink codec a per-connection tier: the Welcome's uplink
// byte became a wire.UplinkTier, and two lossy quantized frame modes —
// sign (1 bit + per-row scale) and int8 (byte + per-row min/scale) —
// joined the lossless ones. Every connection of a run carries the same
// tier, because the two quantizations dequantize differently and the
// vote needs every replica bit-identical. An older peer fails the
// frame-header version check on its Hello and is refused with a typed
// Reject{RejectVersion} naming both versions.
//
// v4 added the detector configuration to the Spec payload (the PS-side detection/reputation layer of internal/detect is part of
// the experiment description, so observers evaluating the same Spec
// agree on it) and the typed Reject frame: a blacklisted worker
// presenting a valid session token is refused with
// Reject{RejectBlacklisted} instead of a silent close, so the worker
// process knows the eviction is permanent and stops reconnecting.
//
// Version negotiation happens in Hello/Welcome: both sides state the
// protocol version they speak (additionally stamped on every frame
// header) and a mismatch rejects the connection before any round state
// is exchanged — a v2 peer fails at its first frame. The Welcome
// carries a per-worker session token; an evicted or crashed worker
// reconnects by re-sending Hello with Resume=true and that token, and
// the server re-admits it at the next round boundary (see server.go).
//
// RoundStart.ParamsFrame is a full parameter vector only on join/rejoin
// and every ServerConfig.FullBroadcastEvery-th round, and a bit-exact
// XOR delta against the previous round's acknowledged vector otherwise
// (wire.AppendParamsDelta). GradientReport.Frame is a self-contained
// uplink frame (wire.UplinkEncoder) in the tier the PS named: raw by
// default, bit-exact; the lossy tiers ship quantized frames (sign, int8)
// that dequantize deterministically on both sides.
//
// Workers reconstruct the dataset, the model and every round's batch
// deterministically from the Spec (seeded synthetic data stands in for
// the shared dataset storage of a real cluster), so neither samples nor
// their indices cross the wire — every node holds the dataset, as in the
// paper's setup, and the seed.
//
// Rounds tolerate partial participation: the server gives every
// accepted connection a dedicated reader pump, and the round collects
// already-parsed reports from the pumps' inbox under a single deadline.
// A slow worker is marked missing for the round and its late report is
// retired by its pump the moment it arrives; the connection survives.
// Workers whose connection actually breaks are evicted and may rejoin.
// An empty GradientReport frame is an explicit skip — alive, but no
// gradients this round. The Spec can name fault models (internal/fault)
// that every worker injects on itself, so crash/straggler/flaky
// scenarios — including per-worker heterogeneous compositions via
// Faults — run against the server's real deadline handling.
package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"time"

	"byzshield/internal/linalg"
	"byzshield/internal/wire"
)

// Message type bytes of the v2 framing. Type 7 was the round-prep message
// until v8 and stays unassigned.
const (
	msgHello byte = iota + 1
	msgWelcome
	msgRoundStart
	msgGradientReport
	msgShutdown
	msgReject
)

// --- Spec payload codec --------------------------------------------

// appendSpec encodes the spec in canonical field order.
func appendSpec(dst []byte, s *Spec) ([]byte, error) {
	dst = wire.AppendString(dst, s.Scheme)
	for _, v := range []int{s.L, s.R, s.K, s.F} {
		dst = wire.AppendU32(dst, uint32(v))
	}
	dst = wire.AppendString(dst, s.Aggregator)
	for _, v := range []int{s.AggParams.C, s.AggParams.M, s.AggParams.Trim,
		s.AggParams.Groups, s.AggParams.Near} {
		dst = wire.AppendU32(dst, uint32(v))
	}
	dst = wire.AppendF64(dst, s.AggParams.Threshold)
	for _, v := range []int{s.TrainN, s.TestN, s.Dim, s.Classes, s.Hidden, s.BatchSize} {
		dst = wire.AppendU32(dst, uint32(v))
	}
	var err error
	dst = wire.AppendI64(dst, s.DataSeed)
	dst = wire.AppendF64(dst, s.ClassSep)
	dst = wire.AppendString(dst, s.Distribution)
	dst = wire.AppendF64(dst, s.DistParam)
	dst = wire.AppendF64(dst, s.Schedule.Base)
	dst = wire.AppendF64(dst, s.Schedule.Decay)
	dst = wire.AppendU32(dst, uint32(s.Schedule.Every))
	dst = wire.AppendF64(dst, s.Momentum)
	dst = wire.AppendI64(dst, s.Seed)
	dst = wire.AppendU32(dst, uint32(s.Rounds))
	dst = wire.AppendU32(dst, uint32(s.Quorum))
	dst = wire.AppendU32(dst, uint32(len(s.Faults)))
	for _, fs := range s.Faults {
		if dst, err = appendFaultSpec(dst, &fs); err != nil {
			return nil, err
		}
	}
	dst = wire.AppendString(dst, s.Detector)
	return dst, nil
}

// appendFaultSpec encodes one named fault model.
func appendFaultSpec(dst []byte, fs *FaultSpec) ([]byte, error) {
	dst = wire.AppendString(dst, fs.Name)
	dst, err := wire.AppendInts(dst, fs.Params.Workers)
	if err != nil {
		return nil, err
	}
	dst = wire.AppendU32(dst, uint32(fs.Params.Round))
	dst = wire.AppendF64(dst, fs.Params.P)
	dst = wire.AppendI64(dst, int64(fs.Params.Delay))
	dst = wire.AppendI64(dst, fs.Params.Seed)
	return dst, nil
}

// decodeSpec decodes the spec fields in appendSpec order.
func decodeSpec(d *wire.Dec, s *Spec) {
	s.Scheme = d.String()
	s.L, s.R, s.K, s.F = d.Int(), d.Int(), d.Int(), d.Int()
	s.Aggregator = d.String()
	s.AggParams.C, s.AggParams.M, s.AggParams.Trim = d.Int(), d.Int(), d.Int()
	s.AggParams.Groups, s.AggParams.Near = d.Int(), d.Int()
	s.AggParams.Threshold = d.F64()
	s.TrainN, s.TestN, s.Dim = d.Int(), d.Int(), d.Int()
	s.Classes, s.Hidden, s.BatchSize = d.Int(), d.Int(), d.Int()
	s.DataSeed = d.I64()
	s.ClassSep = d.F64()
	s.Distribution = d.String()
	s.DistParam = d.F64()
	s.Schedule.Base = d.F64()
	s.Schedule.Decay = d.F64()
	s.Schedule.Every = d.Int()
	s.Momentum = d.F64()
	s.Seed = d.I64()
	s.Rounds = d.Int()
	s.Quorum = d.Int()
	n := d.Int()
	if d.Err() != nil {
		return
	}
	if n > 1<<16 {
		// Poison the decoder via an impossible read rather than trusting
		// a hostile count.
		d.Skip(1 << 30)
		return
	}
	if n > 0 {
		s.Faults = make([]FaultSpec, 0, n)
		for i := 0; i < n; i++ {
			var fs FaultSpec
			fs.Name = d.String()
			fs.Params.Workers = d.Ints()
			fs.Params.Round = d.Int()
			fs.Params.P = d.F64()
			fs.Params.Delay = time.Duration(d.I64())
			fs.Params.Seed = d.I64()
			s.Faults = append(s.Faults, fs)
		}
	}
	s.Detector = d.String()
}

// --- Messages -------------------------------------------------------

// Message is a framed protocol message.
type Message interface {
	wireType() byte
	appendPayload(dst []byte) ([]byte, error)
}

// Hello is the worker's first message on every connection. A fresh
// worker sends Resume=false with Token 0; a worker reconnecting after a
// crash or eviction sends Resume=true with the session token its first
// Welcome assigned, which the server validates before re-admitting it.
type Hello struct {
	WorkerID int
	// Version is the protocol version the worker speaks (negotiation:
	// the server rejects mismatches before any round state moves).
	Version int
	Token   uint64
	Resume  bool
	// Precisions is the bitmask of numeric precision tiers the worker
	// implements (wire.Precision.Mask per bit). The server runs at one
	// width: it refuses a Hello whose mask lacks that width's bit with
	// Reject{RejectPrecision} — a zero mask included, which no shipped
	// worker sends (pre-v7 peers, which had no such field, are refused on
	// the version before the mask is read) — and pins the width in
	// Welcome.Precision.
	Precisions uint8
}

func (Hello) wireType() byte { return msgHello }

func (m Hello) appendPayload(dst []byte) ([]byte, error) {
	if m.WorkerID < 0 {
		return nil, fmt.Errorf("transport: negative worker id %d", m.WorkerID)
	}
	dst = wire.AppendU32(dst, uint32(m.WorkerID))
	dst = wire.AppendU8(dst, uint8(m.Version))
	dst = wire.AppendU64(dst, m.Token)
	var resume uint8
	if m.Resume {
		resume = 1
	}
	dst = wire.AppendU8(dst, resume)
	return wire.AppendU8(dst, m.Precisions), nil
}

func (m *Hello) decodePayload(src []byte) error {
	d := wire.NewDec(src)
	m.WorkerID = d.Int()
	m.Version = int(d.U8())
	m.Token = d.U64()
	m.Resume = d.U8() != 0
	m.Precisions = d.U8()
	return d.Done()
}

// Welcome is the PS's reply to an accepted Hello.
type Welcome struct {
	// Version echoes the negotiated protocol version.
	Version int
	// Token is the worker's session token for rejoin handshakes.
	Token uint64
	// Uplink is the run's uplink codec tier, named by the PS: the worker
	// must encode every gradient report with it and the PS's pump
	// decoders accept no other mode. The lossy tiers quantize
	// deterministically, so every honest replica still votes equal.
	Uplink wire.UplinkTier
	Spec   Spec
	// Precision is the connection's negotiated numeric width: every
	// params and gradient frame on the connection from here on carries
	// values of this precision (wire.PrecisionF64, the zero value, keeps
	// the pre-v7 float64 frames; wire.PrecisionF32 switches both
	// directions to the float32 codec set of wire/f32.go).
	Precision wire.Precision
}

func (Welcome) wireType() byte { return msgWelcome }

func (m Welcome) appendPayload(dst []byte) ([]byte, error) {
	dst = wire.AppendU8(dst, uint8(m.Version))
	dst = wire.AppendU64(dst, m.Token)
	dst = wire.AppendU8(dst, uint8(m.Uplink))
	dst, err := appendSpec(dst, &m.Spec)
	if err != nil {
		return nil, err
	}
	return wire.AppendU8(dst, uint8(m.Precision)), nil
}

func (m *Welcome) decodePayload(src []byte) error {
	d := wire.NewDec(src)
	m.Version = int(d.U8())
	m.Token = d.U64()
	m.Uplink = wire.UplinkTier(d.U8())
	decodeSpec(d, &m.Spec)
	m.Precision = wire.Precision(d.U8())
	return d.Done()
}

// ErrBadRoundStart marks a RoundStart no honest server of this run sends:
// a payload that is not exactly a header and one params frame, a round
// past the run's last, or a round this worker has already been started
// on. Reconnecting cannot help.
var ErrBadRoundStart = errors.New("transport: malformed round start")

// RoundStart opens one iteration: it carries the model parameters, and
// nothing about the worker's files — their ids are the static assignment
// and their samples come from the worker's own data.FileStream.
// ParamsFrame is a wire params frame (full or delta; wire.DecodeParams
// applies it); on a delta frame, BaseIteration names the round whose
// parameters the delta patches, and the worker must hold exactly that
// vector. Every worker of a round is sent one of two byte strings — the
// round's full frame or its delta frame — which the PS encodes once
// (beginRoundStart/endRoundStart).
//
// A decoded ParamsFrame aliases the connection's receive buffer and is
// valid only until the next Recv on that Conn — receivers apply it
// before reading again (copying the whole vector per round just to own
// it would double the broadcast's memory traffic).
type RoundStart struct {
	Iteration     int
	BaseIteration int
	ParamsFrame   []byte
}

func (RoundStart) wireType() byte { return msgRoundStart }

func (m RoundStart) appendPayload(dst []byte) ([]byte, error) {
	dst = wire.AppendU32(dst, uint32(m.Iteration))
	dst = wire.AppendU32(dst, uint32(m.BaseIteration))
	dst = wire.AppendU32(dst, uint32(len(m.ParamsFrame)))
	return append(dst, m.ParamsFrame...), nil
}

// beginRoundStart appends a complete RoundStart frame up to where its
// params frame's bytes begin, so the caller can encode the params in
// place behind it, and returns the offset endRoundStart needs.
func beginRoundStart(dst []byte, iter, base int) ([]byte, int) {
	dst, at := wire.BeginFrame(dst, msgRoundStart)
	dst, _ = RoundStart{Iteration: iter, BaseIteration: base}.appendPayload(dst)
	return dst, at
}

// endRoundStart closes the frame begun at `at`: everything appended
// since is its params frame, whose length — unknown for a delta until it
// is encoded — is patched into the header along with the frame's own.
func endRoundStart(dst []byte, at int) ([]byte, error) {
	params := at + 4 + 12 // behind the frame length and the three header fields
	binary.LittleEndian.PutUint32(dst[params-4:], uint32(len(dst)-params))
	return wire.EndFrame(dst, at)
}

func (m *RoundStart) decodePayload(src []byte) error {
	d := wire.NewDec(src)
	m.Iteration = d.Int()
	m.BaseIteration = d.Int()
	n := d.Int()
	if d.Err() == nil && n > len(src)-d.Offset() {
		return fmt.Errorf("%w: params frame declares %d bytes, have %d", ErrBadRoundStart, n, len(src)-d.Offset())
	}
	if d.Err() == nil {
		m.ParamsFrame = src[d.Offset() : d.Offset()+n : d.Offset()+n]
		d.Skip(n)
	}
	if err := d.Done(); err != nil {
		return fmt.Errorf("%w: %w", ErrBadRoundStart, err)
	}
	return nil
}

// ErrBadReport marks a GradientReport frame no honest worker of this run
// sends: one that fails to decode, or whose worker, files or row width
// disagree with the run. The PS evicts its sender.
var ErrBadReport = errors.New("transport: malformed gradient report")

// GradientReport returns the worker's per-file gradient sums for one
// round. The gradients travel whole, as one self-contained binary uplink
// frame (see internal/wire/uplink.go) in the tier the PS named; a worker
// sends exactly one report per round.
type GradientReport struct {
	WorkerID  int
	Iteration int
	// Frame is the wire-encoded uplink frame (worker, files,
	// gradients); decode with a wire.UplinkDecoder of the connection's
	// tier. Its embedded worker id must match WorkerID.
	// A decoded Frame aliases the connection's receive buffer and is
	// valid only until the next Recv on that Conn — the PS pump runs it
	// through the uplink decoder before reading again.
	// An empty Frame is an explicit skip: the worker is alive but
	// reports no gradients this round (flaky-fault injection), so the PS
	// counts it missing for the round without evicting it.
	Frame []byte
}

func (GradientReport) wireType() byte { return msgGradientReport }

func (m GradientReport) appendPayload(dst []byte) ([]byte, error) {
	return append(m.appendHead(dst), m.Frame...), nil
}

// appendHead appends the payload up to where Frame's bytes begin.
func (m GradientReport) appendHead(dst []byte) []byte {
	dst = wire.AppendU32(dst, uint32(m.WorkerID))
	return wire.AppendU32(dst, uint32(m.Iteration))
}

func (m *GradientReport) decodePayload(src []byte) error {
	d := wire.NewDec(src)
	m.WorkerID = d.Int()
	m.Iteration = d.Int()
	m.Frame = d.Rest()
	return d.Err()
}

// Reject codes.
const (
	// RejectBlacklisted refuses a rejoin because the detection layer
	// blacklisted the worker: the session token is valid but permanently
	// revoked, so the worker must stop reconnecting.
	RejectBlacklisted uint8 = 1
	// RejectVersion refuses a peer speaking another protocol version —
	// detected either on the Hello's frame header (an old peer stamps
	// its own version on every frame) or on the Hello.Version field.
	// Retrying cannot help until the peer is upgraded.
	RejectVersion uint8 = 2
	// RejectPrecision refuses a worker whose Hello precision mask does
	// not include the precision this server runs at — an f32-only
	// worker dialing an f64 run or vice versa. Retrying cannot help
	// until the worker is reconfigured.
	RejectPrecision uint8 = 3
)

// Reject is the PS's typed refusal of a handshake: unlike a silent
// close, it tells the worker process why it cannot enter the run (and
// whether retrying can ever help).
type Reject struct {
	Code   uint8
	Reason string
}

func (Reject) wireType() byte { return msgReject }

func (m Reject) appendPayload(dst []byte) ([]byte, error) {
	dst = wire.AppendU8(dst, m.Code)
	return wire.AppendString(dst, m.Reason), nil
}

func (m *Reject) decodePayload(src []byte) error {
	d := wire.NewDec(src)
	m.Code = d.U8()
	m.Reason = d.String()
	return d.Done()
}

// Shutdown terminates a worker at the end of training.
type Shutdown struct {
	FinalAccuracy float64
}

func (Shutdown) wireType() byte { return msgShutdown }

func (m Shutdown) appendPayload(dst []byte) ([]byte, error) {
	return wire.AppendF64(dst, m.FinalAccuracy), nil
}

func (m *Shutdown) decodePayload(src []byte) error {
	d := wire.NewDec(src)
	m.FinalAccuracy = d.F64()
	return d.Done()
}

// closeOnCancel arranges for closer to be closed when ctx is canceled,
// unblocking any in-flight network I/O. The returned stop function
// releases the watcher (the usual defer).
func closeOnCancel(ctx context.Context, closer interface{ Close() error }) (stop func() bool) {
	return context.AfterFunc(ctx, func() { closer.Close() })
}

// ctxErr prefers the cancellation cause over the I/O error that the
// cancel-teardown provoked.
func ctxErr(ctx context.Context, err error) error {
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	return err
}

// preHandshakePayload bounds a frame's declared payload until the
// handshake has told this end what the run's frames look like: a Hello,
// a Welcome (the Spec) and a Reject all fit with room to spare, and a
// peer that has proved nothing yet cannot make Recv allocate more.
const preHandshakePayload = 64 << 10

// payloadSlack is added to the Spec-derived payload bounds for what they
// do not itemise: a Shutdown, or a Reject with its reason string.
const payloadSlack = 4 << 10

// ErrFrameTooLarge marks a frame header declaring more payload than the
// connection's current state admits. It is fatal for the stream.
var ErrFrameTooLarge = errors.New("transport: frame exceeds the connection's payload limit")

// reportPayloadLimit is the largest GradientReport payload a worker
// holding `files` files of a dim-coordinate model may legally send, in
// any uplink tier, behind its 8-byte header, plus slack.
func reportPayloadLimit[T linalg.Float](files, dim int) int {
	return 8 + max(wire.UplinkRawSizeOf[T](files, dim), wire.UplinkSignSizeOf[T](files, dim),
		wire.UplinkInt8SizeOf[T](files, dim)) + payloadSlack
}

// roundPayloadLimit is the largest PS→worker payload of a run: a
// RoundStart — its 12-byte header and a worst-case delta params frame —
// plus slack.
func roundPayloadLimit[T linalg.Float](dim int) int {
	return 12 + wire.ParamsFullSizeOf[T](dim) + (dim+1)/2 + payloadSlack
}

// welcomeFits rejects a Spec whose Welcome no worker could read: the
// Welcome arrives before the worker's handshake completes, so it is
// read under preHandshakePayload (11 bytes of it are not the Spec).
func welcomeFits(s *Spec) error {
	b, err := appendSpec(nil, s)
	if err == nil && len(b)+11 > preHandshakePayload {
		err = fmt.Errorf("transport: spec encodes to %d bytes, a Welcome carries at most %d", len(b), preHandshakePayload-11)
	}
	return err
}

// Conn is a framed message stream over a network connection.
//
// Reads go through one receive buffer: Recv reads whatever the socket
// has into it and parses complete frames out of it, so a frame costs one
// read however its header and body arrived, and frames coalesced by the
// sender cost one read between them. Reads are resumable — a Recv
// aborted by a read deadline leaves the partial frame buffered and a
// later Recv continues it — which is what lets the server keep a slow
// worker's connection across a missed round instead of evicting it. The
// buffer grows to the largest frame the connection has carried and no
// further, and a header declaring more than the connection's state
// admits (setPayloadLimit) fails the stream before anything is
// allocated for it.
type Conn struct {
	raw net.Conn
	// wbuf is the encode scratch of every send; iov and vec are the
	// report's vectored-write scratch (vec is consumed by each write, iov
	// keeps the backing array).
	wbuf []byte
	iov  [][]byte
	vec  net.Buffers
	// rbuf[rpos:rlen] holds the bytes read but not yet returned as a
	// frame; rbuf[:rpos] still backs the frame the last Recv returned.
	rbuf       []byte
	rpos, rlen int
	limit      int
}

// NewConn wraps a net.Conn. The stream admits any frame the wire format
// does (wire.MaxFramePayload) until setPayloadLimit narrows it.
func NewConn(raw net.Conn) *Conn { return &Conn{raw: raw, limit: wire.MaxFramePayload} }

// newHandshakeConn wraps a connection whose peer has yet to prove
// anything — just accepted, or just dialed: it admits
// preHandshakePayload until the handshake replaces that with the bound
// derived from the run's Spec.
func newHandshakeConn(raw net.Conn) *Conn {
	c := NewConn(raw)
	c.setPayloadLimit(preHandshakePayload)
	return c
}

// setPayloadLimit sets the largest payload a frame may declare from here
// on. The caller must be the connection's only reader at that moment.
func (c *Conn) setPayloadLimit(n int) { c.limit = min(n, wire.MaxFramePayload) }

// Send transmits one message as a single frame and reports the frame's
// size in bytes (the exact wire cost of the message). A GradientReport
// goes through sendReport, so its Frame is not copied behind its header.
func (c *Conn) Send(msg Message) (int, error) {
	if rep, ok := msg.(GradientReport); ok {
		return c.sendReport(rep)
	}
	b, at := wire.BeginFrame(c.wbuf[:0], msg.wireType())
	b, err := msg.appendPayload(b)
	if err == nil {
		b, err = wire.EndFrame(b, at)
	}
	if err != nil {
		return 0, err
	}
	c.wbuf = b
	if _, err := c.raw.Write(b); err != nil {
		return 0, err
	}
	return len(b), nil
}

// sendReport transmits one GradientReport without boxing it: its Frame
// is already encoded, so the write is vectored over {frame header and
// report header, Frame} and the Frame is not copied. A skip's empty
// Frame is left out of the vector.
func (c *Conn) sendReport(rep GradientReport) (int, error) {
	b, at := wire.BeginFrame(c.wbuf[:0], msgGradientReport)
	b, err := wire.EndFrameWith(rep.appendHead(b), at, len(rep.Frame))
	c.wbuf = b
	if err != nil {
		return 0, err
	}
	c.iov = append(c.iov[:0], b)
	if len(rep.Frame) > 0 {
		c.iov = append(c.iov, rep.Frame)
	}
	c.vec = c.iov
	if _, err := c.vec.WriteTo(c.raw); err != nil {
		return 0, err
	}
	return len(b) + len(rep.Frame), nil
}

// Recv receives and decodes the next message. Decoded messages own their
// fields, with two documented exceptions — RoundStart.ParamsFrame and
// GradientReport.Frame alias the Conn's receive buffer and must be
// consumed before the next Recv (a frame already buffered behind the
// returned one does not disturb it: the buffer is only compacted by a
// later Recv that has to read). On a timeout error the partial frame
// remains buffered and the next Recv resumes it; any other error (or a
// malformed or over-limit frame) is fatal for the stream. The round
// loops read with next instead and decode into typed values, so a
// steady-state frame is not boxed.
func (c *Conn) Recv() (any, error) {
	typ, body, err := c.next()
	if err != nil {
		return nil, err
	}
	return decodeMessage(typ, body)
}

// next receives the next frame undecoded: its type byte and its body,
// which aliases the receive buffer under Recv's rules.
func (c *Conn) next() (typ byte, body []byte, err error) {
	for {
		need := wire.FrameHeaderSize
		if c.rlen-c.rpos >= need {
			typ, length, err := wire.ParseFrameHeader(c.rbuf[c.rpos:c.rlen])
			if err != nil {
				return 0, nil, err
			}
			if length > c.limit {
				return 0, nil, fmt.Errorf("transport: frame declares %d payload bytes, connection admits %d: %w",
					length, c.limit, ErrFrameTooLarge)
			}
			need += length
			if end := c.rpos + need; end <= c.rlen {
				body := c.rbuf[c.rpos+wire.FrameHeaderSize : end : end]
				c.rpos = end
				return typ, body, nil
			}
		}
		c.makeRoom(need)
		n, err := c.raw.Read(c.rbuf[c.rlen:])
		c.rlen += n
		if err != nil {
			return 0, nil, err
		}
	}
}

// makeRoom moves the unreturned bytes to the front of the receive
// buffer — dropping the frame the previous Recv returned — and grows the
// buffer when the frame in progress needs more than it holds.
func (c *Conn) makeRoom(need int) {
	if c.rpos == 0 && len(c.rbuf) >= need {
		return
	}
	live := c.rbuf[c.rpos:c.rlen]
	if len(c.rbuf) < need {
		c.rbuf = make([]byte, max(need, 512))
	}
	c.rlen = copy(c.rbuf, live)
	c.rpos = 0
}

// decodeMessage decodes one frame body into its message value.
func decodeMessage(typ byte, body []byte) (any, error) {
	switch typ {
	case msgHello:
		var m Hello
		if err := m.decodePayload(body); err != nil {
			return nil, err
		}
		return m, nil
	case msgWelcome:
		var m Welcome
		if err := m.decodePayload(body); err != nil {
			return nil, err
		}
		return m, nil
	case msgRoundStart:
		var m RoundStart
		if err := m.decodePayload(body); err != nil {
			return nil, err
		}
		return m, nil
	case msgGradientReport:
		var m GradientReport
		if err := m.decodePayload(body); err != nil {
			return nil, err
		}
		return m, nil
	case msgShutdown:
		var m Shutdown
		if err := m.decodePayload(body); err != nil {
			return nil, err
		}
		return m, nil
	case msgReject:
		var m Reject
		if err := m.decodePayload(body); err != nil {
			return nil, err
		}
		return m, nil
	default:
		return nil, fmt.Errorf("transport: unknown message type %d", typ)
	}
}

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.raw.Close() }

// SetReadDeadline bounds the next Recv calls; the zero time clears the
// deadline. A Recv that trips the deadline keeps the partial frame
// buffered, so the stream stays usable afterwards.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.raw.SetReadDeadline(t) }

// SetWriteDeadline bounds the next Send calls; the zero time clears the
// deadline. Unlike reads, a Send that trips the deadline may have
// written a partial frame and poisons the outbound stream — callers
// must close the connection.
func (c *Conn) SetWriteDeadline(t time.Time) error { return c.raw.SetWriteDeadline(t) }

// RemoteAddr exposes the peer address for logging.
func (c *Conn) RemoteAddr() net.Addr { return c.raw.RemoteAddr() }
