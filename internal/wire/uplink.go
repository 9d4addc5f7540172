// Uplink gradient-report codec (protocol v3). The worker→PS direction
// is the dominant byte mover of a training round: every worker ships
// its per-file gradient sums every round. This codec makes that uplink
// bandwidth-aware with the same bit-exact XOR trick the parameter
// broadcast uses (delta.go), but against a different base: each
// worker's delta base is its *own previous report* on the same
// connection, since that is the only vector both ends of the stream
// are guaranteed to share.
//
// Unlike consecutive parameter iterates, consecutive gradient reports
// decorrelate quickly — each round draws a fresh mini-batch, so only
// sign/exponent/top-mantissa agreement survives, and on some rounds a
// delta frame would be *larger* than the raw one. The encoder therefore
// self-selects per frame: it builds the delta, compares sizes, and
// falls back to a raw frame whenever the delta does not pay. The mode
// byte tells the decoder which arrived, and both modes roll the base
// forward, so encoder and decoder stay in lockstep as long as the
// frame stream is ordered and loss-free (a TCP connection); a new
// connection starts from no base, i.e. a raw first frame.
//
// Since protocol v6 the codec is tiered (UplinkTier): this file owns
// the two lossless tiers — raw and the self-selecting raw/XOR-delta
// default — and quant.go owns the two lossy quantized tiers (sign,
// int8). Encoder and decoder carry the negotiated tier and dispatch on
// it; a decoder only accepts the frame modes its tier emits, so a peer
// that sends outside the negotiated tier poisons its stream instead of
// silently changing codecs.
//
// Frame layout, little-endian:
//
//	u8  mode (1 = raw, 2 = delta, 3 = sign, 4 = int8; see quant.go
//	    for the quantized layouts)
//	raw:   one gradient frame (codec.go: u32 payload length, u32
//	       worker, u32 n, u32 d, n×u32 file ids, n×d value bit patterns
//	       of sizeof(T) bytes)
//	delta: u32 worker, u32 n, u32 d, n×u32 file ids,
//	       ⌈n·d/2⌉ nibble-packed XOR byte lengths 0–sizeof(T) (low
//	       nibble = even value index), then per value its significant
//	       low-order XOR bytes against the base value at the same
//	       (file, coordinate)
//
// A delta frame is only valid against a base with the identical file
// list and dimension; the decoder rejects anything else, and rejects
// non-canonical lengths (highest included byte zero, set padding
// nibble), so any accepted frame re-encodes to exactly the consumed
// bytes.
package wire

import (
	"encoding/binary"
	"fmt"
	"slices"

	"byzshield/internal/linalg"
)

// Uplink frame modes.
const (
	// UplinkRaw wraps a self-contained gradient frame.
	UplinkRaw = 1
	// UplinkDelta is an XOR patch against the sender's previous report.
	UplinkDelta = 2
	// UplinkSign is a 1-bit quantized frame (quant.go).
	UplinkSign = 3
	// UplinkInt8 is a linear-quantized frame (quant.go).
	UplinkInt8 = 4
)

// uplinkDeltaHeader is the mode byte plus worker, n, and d.
const uplinkDeltaHeader = 13

// UplinkRawSizeOf returns the encoded size of a raw uplink frame with n
// files of dimension d at T's width.
func UplinkRawSizeOf[T linalg.Float](n, d int) int { return 1 + GradFrameSizeOf[T](n, d) }

// UplinkEncoderOf is the worker-side streaming state of the uplink
// codec: the previous report (the delta base) plus encode scratch. One
// encoder serves one ordered frame stream; a reconnect must Reset it
// (the new connection's receiver holds no base).
type UplinkEncoderOf[T linalg.Float] struct {
	// Tier selects the codec this stream runs (the connection's
	// negotiated tier, announced by the PS in its Welcome). TierRaw
	// emits only self-contained raw frames and drops the delta base
	// rather than rolling it — a raw report is self-contained, so
	// maintaining the base would copy n×d floats per frame for
	// nothing. The lossy tiers (sign, int8) are stateless too: each
	// frame quantizes from scratch. Switching tiers mid-stream is
	// still safe: with no base held, the next delta-eligible Encode
	// falls back to raw exactly like a fresh connection.
	Tier UplinkTier

	prev      []T    // previous report's values, flat n×d
	prevFiles []int  // previous report's file ids
	scratch   []byte // delta build buffer
}

// Reset drops the delta base, as if no frame had been sent yet.
func (e *UplinkEncoderOf[T]) Reset() {
	e.prev = e.prev[:0]
	e.prevFiles = e.prevFiles[:0]
}

// Encode appends one uplink frame for the report (worker, files,
// grads) to dst, choosing the smaller of the delta and raw encodings,
// and rolls the base forward. It returns the extended buffer, the mode
// chosen, and the size a raw frame would have had (the uncompressed
// cost, for accounting the realized ratio). files and grads follow the
// AppendGradFrameOf contract.
func (e *UplinkEncoderOf[T]) Encode(dst []byte, worker int, files []int, grads [][]T) (out []byte, mode, rawSize int, err error) {
	n, d, err := shapeOf(files, grads)
	if err != nil {
		return nil, 0, 0, err
	}
	rawSize = UplinkRawSizeOf[T](n, d)
	switch e.Tier {
	case TierRaw:
		e.Reset()
		out = append(dst, UplinkRaw)
		out, err = AppendGradFrameOf(out, worker, files, grads)
		if err != nil {
			return nil, 0, 0, err
		}
		return out, UplinkRaw, rawSize, nil
	case TierSign:
		e.Reset()
		if out, err = appendUplinkSign(dst, worker, files, grads, d); err != nil {
			return nil, 0, 0, err
		}
		return out, UplinkSign, rawSize, nil
	case TierInt8:
		e.Reset()
		if out, err = appendUplinkInt8(dst, worker, files, grads, d); err != nil {
			return nil, 0, 0, err
		}
		return out, UplinkInt8, rawSize, nil
	}
	useDelta := n > 0 && len(e.prev) == n*d && slices.Equal(e.prevFiles, files)
	if useDelta {
		delta, derr := e.appendDelta(e.scratch[:0], worker, files, grads)
		if derr != nil {
			return nil, 0, 0, derr
		}
		e.scratch = delta
		if len(delta) < rawSize {
			out = append(dst, delta...)
			e.rollBase(files, grads)
			return out, UplinkDelta, rawSize, nil
		}
	}
	out = append(dst, UplinkRaw)
	out, err = AppendGradFrameOf(out, worker, files, grads)
	if err != nil {
		return nil, 0, 0, err
	}
	e.rollBase(files, grads)
	return out, UplinkRaw, rawSize, nil
}

// appendDelta builds the delta frame for the report against e.prev.
func (e *UplinkEncoderOf[T]) appendDelta(dst []byte, worker int, files []int, grads [][]T) ([]byte, error) {
	n, d := len(files), len(grads[0])
	dst, err := appendReportHeader(append(dst, UplinkDelta), worker, files, d)
	if err != nil {
		return nil, err
	}
	nibbleAt := len(dst)
	dst = append(dst, make([]byte, (n*d+1)/2)...)
	for i, g := range grads {
		dst = appendXORs(dst, nibbleAt, i*d, e.prev[i*d:(i+1)*d], g)
	}
	return dst, nil
}

// rollBase records the report as the next frame's delta base.
func (e *UplinkEncoderOf[T]) rollBase(files []int, grads [][]T) {
	e.prev = flattenInto(e.prev, grads)
	e.prevFiles = append(e.prevFiles[:0], files...)
}

// flattenInto copies the equal-width rows into dst as one flat n×d
// vector, reusing dst's capacity.
func flattenInto[T linalg.Float](dst []T, rows [][]T) []T {
	if n := len(rows); n > 0 && cap(dst) < n*len(rows[0]) {
		dst = make([]T, 0, n*len(rows[0]))
	}
	dst = dst[:0]
	for _, g := range rows {
		dst = append(dst, g...)
	}
	return dst
}

// UplinkDecoderOf is the PS-side streaming state of the uplink codec for
// one worker connection: the previous accepted report, against which
// delta frames are applied. Decode must see every frame of the stream
// in order — including reports that arrive too late to count for their
// round — or the base diverges from the encoder's; that is exactly why
// the transport's reader pumps decode stale frames before retiring
// them.
type UplinkDecoderOf[T linalg.Float] struct {
	// Tier mirrors the connection's negotiated tier on the PS side and
	// bounds what the decoder accepts: TierRaw takes raw frames only
	// (and skips the n×d float base copy per report), TierDelta takes
	// raw or delta, and each lossy tier takes exactly its own mode —
	// a worker that sends outside its negotiated tier is a buggy or
	// hostile peer and poisons its stream instead of silently changing
	// codecs.
	Tier UplinkTier

	prev       []T
	prevFiles  []int
	prevWorker int
}

// Reset drops the delta base (a fresh connection's state).
func (dec *UplinkDecoderOf[T]) Reset() {
	dec.prev = dec.prev[:0]
	dec.prevFiles = dec.prevFiles[:0]
	dec.prevWorker = 0
}

// Decode parses one uplink frame from the front of src into f (the
// GradFrameOf buffer-reuse contract) and rolls the base forward,
// returning the mode and bytes consumed. A delta frame is rejected
// unless its worker/file-list/dimension exactly match the held base;
// lengths must be canonical, so any accepted frame re-encodes to the
// consumed bytes. On error the base is unchanged and the stream must
// be considered poisoned (the caller evicts the connection).
func (dec *UplinkDecoderOf[T]) Decode(src []byte, f *GradFrameOf[T]) (mode, consumed int, err error) {
	if len(src) < 1 {
		return 0, 0, fmt.Errorf("wire: empty uplink frame")
	}
	mode = int(src[0])
	if !dec.accepts(mode) {
		return 0, 0, fmt.Errorf("wire: uplink frame mode %d outside negotiated tier %s", mode, dec.Tier)
	}
	switch mode {
	case UplinkRaw:
		n, err := DecodeGradFrameOf(src[1:], f)
		if err != nil {
			return 0, 0, err
		}
		if dec.Tier == TierRaw {
			dec.Reset()
		} else {
			dec.rollBase(f)
		}
		return UplinkRaw, 1 + n, nil
	case UplinkDelta:
		consumed, err := dec.decodeDelta(src, f)
		if err != nil {
			return 0, 0, err
		}
		return UplinkDelta, consumed, nil
	case UplinkSign:
		consumed, err := decodeUplinkSign(src, f)
		if err != nil {
			return 0, 0, err
		}
		return UplinkSign, consumed, nil
	case UplinkInt8:
		consumed, err := decodeUplinkInt8(src, f)
		if err != nil {
			return 0, 0, err
		}
		return UplinkInt8, consumed, nil
	default:
		return 0, 0, fmt.Errorf("wire: unknown uplink frame mode %d", mode)
	}
}

// accepts reports whether the decoder's tier takes frames of mode m.
func (dec *UplinkDecoderOf[T]) accepts(m int) bool {
	switch dec.Tier {
	case TierRaw:
		return m == UplinkRaw
	case TierDelta:
		return m == UplinkRaw || m == UplinkDelta
	case TierSign:
		return m == UplinkSign
	case TierInt8:
		return m == UplinkInt8
	default:
		return false
	}
}

// decodeDelta parses a delta frame and applies it to the base,
// leaving the reconstructed values in both f.Grads and the base.
func (dec *UplinkDecoderOf[T]) decodeDelta(src []byte, f *GradFrameOf[T]) (int, error) {
	if len(src) < uplinkDeltaHeader {
		return 0, fmt.Errorf("wire: uplink delta frame truncated at %d bytes", len(src))
	}
	worker := int(binary.LittleEndian.Uint32(src[1:]))
	n64 := uint64(binary.LittleEndian.Uint32(src[5:]))
	d64 := uint64(binary.LittleEndian.Uint32(src[9:]))
	// The base bounds every size: a delta is only valid against the
	// exact previous report, so hostile counts cannot trigger oversized
	// allocations — they fail the base match first.
	n := len(dec.prevFiles)
	if n == 0 {
		return 0, fmt.Errorf("wire: uplink delta frame with no base report")
	}
	if worker != dec.prevWorker {
		return 0, fmt.Errorf("wire: uplink delta claims worker %d, base is worker %d", worker, dec.prevWorker)
	}
	d := len(dec.prev) / n
	if n64 != uint64(n) || d64 != uint64(d) {
		return 0, fmt.Errorf("wire: uplink delta declares %d×%d values, base is %d×%d", n64, d64, n, d)
	}
	if len(src) < uplinkDeltaHeader+n*4 {
		return 0, fmt.Errorf("wire: uplink delta frame truncated in file list")
	}
	for i := 0; i < n; i++ {
		v := int(binary.LittleEndian.Uint32(src[uplinkDeltaHeader+i*4:]))
		if v != dec.prevFiles[i] {
			return 0, fmt.Errorf("wire: uplink delta file %d is %d, base has %d", i, v, dec.prevFiles[i])
		}
	}
	nb := (n*d + 1) / 2
	body := src[uplinkDeltaHeader+n*4:]
	if len(body) < nb {
		return 0, fmt.Errorf("wire: uplink delta needs %d length bytes, have %d", nb, len(body))
	}
	nibbles, payload := body[:nb], body[nb:]
	// First pass: validate every length and the total payload size so
	// the base is never partially updated by a malformed frame.
	w := linalg.Width[T]()
	off := 0
	for i := 0; i < n*d; i++ {
		ln := nibbleLen(nibbles, i)
		if ln > w {
			return 0, fmt.Errorf("wire: uplink delta length %d > %d at value %d", ln, w, i)
		}
		if len(payload)-off < ln {
			return 0, fmt.Errorf("wire: uplink delta payload truncated at value %d", i)
		}
		if ln > 0 && payload[off+ln-1] == 0 {
			return 0, fmt.Errorf("wire: non-canonical uplink delta length at value %d", i)
		}
		off += ln
	}
	if (n*d)%2 == 1 && nibbles[nb-1]>>4 != 0 {
		return 0, fmt.Errorf("wire: uplink delta frame has a set padding nibble")
	}
	// Second pass: apply. Outputs follow the GradFrameOf reuse
	// contract so callers can decode straight into arena buffers.
	f.Worker = worker
	f.setFiles(src[uplinkDeltaHeader:], n)
	f.growGrads(n, d)
	off = 0
	for i, g := range f.Grads {
		base := dec.prev[i*d : (i+1)*d]
		for j := 0; j < d; j++ {
			ln := nibbleLen(nibbles, i*d+j)
			x := xorFromBytes(payload[off:], ln)
			off += ln
			v := linalg.FromBits[T](linalg.Bits(base[j]) ^ x)
			base[j] = v
			g[j] = v
		}
	}
	return uplinkDeltaHeader + n*4 + nb + off, nil
}

// rollBase records a raw frame's contents as the next delta base.
func (dec *UplinkDecoderOf[T]) rollBase(f *GradFrameOf[T]) {
	dec.prevWorker = f.Worker
	dec.prev = flattenInto(dec.prev, f.Grads)
	dec.prevFiles = append(dec.prevFiles[:0], f.Files...)
}
