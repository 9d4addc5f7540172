// Package wire implements the compact binary gradient-frame codec: the
// wire format for a worker's per-round gradient report, replacing the
// gob round-trip on the hot path. The layout is canonical (one valid
// encoding per frame) and allocation-free on both sides when buffers
// are reused, as the TCP GradientReport message uses them. The codec
// lives below both internal/cluster and internal/transport so that the
// cluster engine can mirror the lossy tiers' quantization and the
// transport server can drive the cluster round core without an import
// cycle.
//
// Frame layout, all little-endian:
//
//	u32  payload length (bytes after this field)
//	u32  worker id
//	u32  file count n
//	u32  gradient dimension d (0 when n == 0)
//	n ×  u32 file id
//	n ×  d × gradient values (IEEE-754 bit patterns, sizeof(T) bytes)
//
// Because floats are transported as raw bit patterns, a decode is
// bit-exact: NaN payloads, signed zeros, and subnormals survive the
// round-trip unchanged.
//
// Every value codec in this package (this file, delta.go, uplink.go,
// quant.go) is written once over linalg.Float. Precision is connection
// state, not frame state: the Welcome pins one Precision and both ends
// instantiate the codecs at that width, so the frame modes are shared
// and the layouts differ only where sizeof(T) appears — value words,
// XOR nibble lengths 0–sizeof(T), quantization scale fields. names.go
// binds the historical f64 and f32 names to the two instantiations.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"byzshield/internal/linalg"
)

// gradFrameHeader is the fixed part of the payload: worker, n, d.
const gradFrameHeader = 12

// GradFrameSizeOf returns the encoded size in bytes of a frame with n
// files of dimension d at T's width, including the length prefix.
func GradFrameSizeOf[T linalg.Float](n, d int) int {
	return 4 + gradFrameHeader + n*4 + n*d*linalg.Width[T]()
}

// shapeOf validates a report's shape — one gradient per file, every
// gradient the same dimension — and returns (n, d).
func shapeOf[T linalg.Float](files []int, grads [][]T) (n, d int, err error) {
	if len(files) != len(grads) {
		return 0, 0, fmt.Errorf("wire: %d files but %d gradients", len(files), len(grads))
	}
	n = len(files)
	if n > 0 {
		d = len(grads[0])
	}
	for i, g := range grads {
		if len(g) != d {
			return 0, 0, fmt.Errorf("wire: gradient %d has dim %d, want %d", i, len(g), d)
		}
	}
	return n, d, nil
}

// appendReportHeader appends the (worker, n, d, file ids) prefix every
// gradient-carrying frame shares, validating the u32 ranges.
func appendReportHeader(dst []byte, worker int, files []int, d int) ([]byte, error) {
	if worker < 0 || int64(worker) > math.MaxUint32 {
		return nil, fmt.Errorf("wire: worker id %d outside u32 range", worker)
	}
	dst = append32(dst, uint32(worker))
	dst = append32(dst, uint32(len(files)))
	dst = append32(dst, uint32(d))
	for _, v := range files {
		if v < 0 || int64(v) > math.MaxUint32 {
			return nil, fmt.Errorf("wire: file id %d outside u32 range", v)
		}
		dst = append32(dst, uint32(v))
	}
	return dst, nil
}

// AppendGradFrameOf appends one encoded frame to dst and returns the
// extended slice. files and grads must have equal length and every
// gradient the same dimension.
func AppendGradFrameOf[T linalg.Float](dst []byte, worker int, files []int, grads [][]T) ([]byte, error) {
	n, d, err := shapeOf(files, grads)
	if err != nil {
		return nil, err
	}
	payload := gradFrameHeader + n*4 + n*d*linalg.Width[T]()
	if uint64(payload) > math.MaxUint32 {
		return nil, fmt.Errorf("wire: frame payload %d bytes exceeds u32 length prefix", payload)
	}
	dst = append32(dst, uint32(payload))
	if dst, err = appendReportHeader(dst, worker, files, d); err != nil {
		return nil, err
	}
	for _, g := range grads {
		dst = AppendFloats(dst, g)
	}
	return dst, nil
}

// GradFrameOf is a decoded gradient frame. Its slices are reused across
// decode calls when capacities allow, so a long-lived frame decodes
// rounds without allocating.
type GradFrameOf[T linalg.Float] struct {
	Worker int
	Files  []int
	Grads  [][]T
}

// setFiles sizes f.Files to n under the buffer-reuse contract and fills
// it from the n little-endian u32 ids at the front of src.
func (f *GradFrameOf[T]) setFiles(src []byte, n int) {
	if cap(f.Files) < n {
		f.Files = make([]int, n)
	}
	f.Files = f.Files[:n]
	for i := range f.Files {
		f.Files[i] = int(binary.LittleEndian.Uint32(src[i*4:]))
	}
}

// growGrads sizes f.Grads to n rows of d values under the buffer-reuse
// contract.
func (f *GradFrameOf[T]) growGrads(n, d int) {
	if cap(f.Grads) < n {
		grads := make([][]T, n)
		copy(grads, f.Grads)
		f.Grads = grads
	}
	f.Grads = f.Grads[:n]
	for i := 0; i < n; i++ {
		if cap(f.Grads[i]) < d {
			f.Grads[i] = make([]T, d)
		}
		f.Grads[i] = f.Grads[i][:d]
	}
}

// DecodeGradFrameOf parses one frame from the front of src into f,
// returning the number of bytes consumed. The frame is validated
// structurally: the payload length must match the declared file count
// and dimension exactly, so arbitrary input can never trigger an
// oversized allocation (the declared sizes are bounded by len(src)).
func DecodeGradFrameOf[T linalg.Float](src []byte, f *GradFrameOf[T]) (int, error) {
	if len(src) < 4+gradFrameHeader {
		return 0, fmt.Errorf("wire: frame truncated at %d bytes", len(src))
	}
	payload := int(binary.LittleEndian.Uint32(src))
	if payload < gradFrameHeader || payload > len(src)-4 {
		return 0, fmt.Errorf("wire: frame payload %d bytes, have %d", payload, len(src)-4)
	}
	body := src[4 : 4+payload]
	f.Worker = int(binary.LittleEndian.Uint32(body))
	// Sizes are validated with division in uint64 space, so a hostile
	// header cannot overflow the expected-length arithmetic or trigger
	// an oversized allocation (everything is bounded by len(src)).
	n64 := uint64(binary.LittleEndian.Uint32(body[4:]))
	d64 := uint64(binary.LittleEndian.Uint32(body[8:]))
	rem := uint64(payload) - gradFrameHeader
	w := linalg.Width[T]()
	if n64 == 0 {
		if d64 != 0 || rem != 0 {
			return 0, fmt.Errorf("wire: empty frame declares dim %d with %d payload bytes", d64, rem)
		}
	} else {
		if n64 > rem/4 {
			return 0, fmt.Errorf("wire: frame declares %d files for %d payload bytes", n64, rem)
		}
		valBytes := rem - n64*4
		if rowBytes := n64 * uint64(w); valBytes%rowBytes != 0 || valBytes/rowBytes != d64 {
			return 0, fmt.Errorf("wire: frame declares %d×%d values for %d value bytes", n64, d64, valBytes)
		}
	}
	n, d := int(n64), int(d64)
	f.setFiles(body[gradFrameHeader:], n)
	f.growGrads(n, d)
	vals := body[gradFrameHeader+n*4:]
	for i, g := range f.Grads {
		DecodeFloats(g, vals[i*d*w:])
	}
	return 4 + payload, nil
}

// append32 appends v little-endian.
func append32(dst []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(dst, v)
}
