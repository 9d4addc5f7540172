// Uplink gradient-report codec (protocol v3). The worker→PS direction
// is the dominant byte mover of a training round: every worker ships
// its per-file gradient sums every round.
//
// Every uplink frame is self-contained: neither end holds codec state
// between frames, so a frame decodes the same whatever preceded it, a
// late or duplicate report can be dropped unread, and a reconnect needs
// no resynchronization. (Protocol v3–v8 also had an XOR-delta tier that
// patched each report against the sender's previous one; consecutive
// reports decorrelate, so it saved ≈0.1–2 % of the bytes and cost
// per-connection state on both ends. v9 deleted it.)
//
// The codec is tiered (UplinkTier): this file owns the lossless raw
// tier and the dispatch, quant.go the two lossy quantized tiers (sign,
// int8). Encoder and decoder carry the tier the PS named in its
// Welcome; a decoder accepts exactly its tier's frame mode, so a peer
// that sends another poisons its stream instead of silently changing
// codecs.
//
// Frame layout, little-endian:
//
//	u8  mode (1 = raw, 3 = sign, 4 = int8; see quant.go for the
//	    quantized layouts; 2 was the delta frame and is unassigned)
//	raw: one gradient frame (codec.go: u32 payload length, u32
//	     worker, u32 n, u32 d, n×u32 file ids, n×d value bit patterns
//	     of sizeof(T) bytes)
package wire

import (
	"fmt"

	"byzshield/internal/linalg"
)

// Uplink frame modes. Mode 2 is unassigned: every decoder rejects it.
const (
	// UplinkRaw wraps a self-contained gradient frame.
	UplinkRaw = 1
	// UplinkSign is a 1-bit quantized frame (quant.go).
	UplinkSign = 3
	// UplinkInt8 is a linear-quantized frame (quant.go).
	UplinkInt8 = 4
)

// UplinkRawSizeOf returns the encoded size of a raw uplink frame with n
// files of dimension d at T's width.
func UplinkRawSizeOf[T linalg.Float](n, d int) int { return 1 + GradFrameSizeOf[T](n, d) }

// UplinkEncoderOf encodes gradient reports in one tier. It holds no
// state between frames, so one encoder serves any number of streams.
type UplinkEncoderOf[T linalg.Float] struct {
	// Tier selects the codec: the tier the PS named in its Welcome.
	Tier UplinkTier
}

// Encode appends one uplink frame for the report (worker, files,
// grads) to dst. It returns the extended buffer, the frame's mode, and
// the size a raw frame would have had (the uncompressed cost, for
// accounting the realized ratio). files and grads follow the
// AppendGradFrameOf contract.
func (e *UplinkEncoderOf[T]) Encode(dst []byte, worker int, files []int, grads [][]T) (out []byte, mode, rawSize int, err error) {
	n, d, err := shapeOf(files, grads)
	if err != nil {
		return nil, 0, 0, err
	}
	switch mode = e.Tier.mode(); mode {
	case UplinkRaw:
		out, err = AppendGradFrameOf(append(dst, UplinkRaw), worker, files, grads)
	case UplinkSign:
		out, err = appendUplinkSign(dst, worker, files, grads, d)
	case UplinkInt8:
		out, err = appendUplinkInt8(dst, worker, files, grads, d)
	default:
		err = fmt.Errorf("wire: unknown uplink tier %d", e.Tier)
	}
	if err != nil {
		return nil, 0, 0, err
	}
	return out, mode, UplinkRawSizeOf[T](n, d), nil
}

// UplinkDecoderOf decodes the uplink frames of one tier. Like the
// encoder it holds no state between frames.
type UplinkDecoderOf[T linalg.Float] struct {
	// Tier is the tier the PS named for the connection: the decoder
	// accepts that tier's frame mode and no other.
	Tier UplinkTier
}

// Decode parses one uplink frame from the front of src into f (the
// GradFrameOf buffer-reuse contract), returning the mode and bytes
// consumed. An accepted raw or sign frame re-encodes to exactly the
// consumed bytes; on error the caller evicts the connection.
func (dec *UplinkDecoderOf[T]) Decode(src []byte, f *GradFrameOf[T]) (mode, consumed int, err error) {
	if len(src) < 1 {
		return 0, 0, fmt.Errorf("wire: empty uplink frame")
	}
	mode = int(src[0])
	if mode != dec.Tier.mode() {
		return 0, 0, fmt.Errorf("wire: uplink frame mode %d outside tier %s", mode, dec.Tier)
	}
	switch mode {
	case UplinkRaw:
		consumed, err = DecodeGradFrameOf(src[1:], f)
		consumed++
	case UplinkSign:
		consumed, err = decodeUplinkSign(src, f)
	default:
		consumed, err = decodeUplinkInt8(src, f)
	}
	if err != nil {
		return 0, 0, err
	}
	return mode, consumed, nil
}
