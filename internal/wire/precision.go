package wire

import (
	"fmt"

	"byzshield/internal/linalg"
)

// Precision selects the numeric width of a connection's gradient and
// parameter frames (protocol v7). It is connection state, not frame
// state: the Hello advertises a supported-precisions bitmask, the
// Welcome pins one Precision, and from then on both ends run every
// value codec of this package at that instantiation. The zero value is
// float64, so zero-valued configs keep the pre-v7 behavior.
type Precision uint8

const (
	// PrecisionF64 is the full-precision tier (the default).
	PrecisionF64 Precision = 0
	// PrecisionF32 is the reduced-precision tier: every value frame on
	// the connection carries float32 bit patterns.
	PrecisionF32 Precision = 1
)

// PrecisionOf returns the tier whose frames carry values of type T.
func PrecisionOf[T linalg.Float]() Precision {
	if linalg.Width[T]() == 4 {
		return PrecisionF32
	}
	return PrecisionF64
}

// Valid reports whether p names a defined precision tier.
func (p Precision) Valid() bool { return p <= PrecisionF32 }

// Mask returns the precision's bit in the Hello supported-precisions
// bitmask.
func (p Precision) Mask() uint8 { return 1 << p }

// String returns the flag spelling of the precision.
func (p Precision) String() string {
	switch p {
	case PrecisionF64:
		return "f64"
	case PrecisionF32:
		return "f32"
	default:
		return fmt.Sprintf("precision(%d)", uint8(p))
	}
}

// ParsePrecision parses the flag spelling of a precision tier.
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "f64", "float64":
		return PrecisionF64, nil
	case "f32", "float32":
		return PrecisionF32, nil
	default:
		return 0, fmt.Errorf("wire: unknown precision %q (want f64 or f32)", s)
	}
}

// AllPrecisionsMask is the supported-precisions bitmask of a peer
// implementing both tiers (what the v7 worker advertises in its Hello).
const AllPrecisionsMask = uint8(1<<PrecisionF64 | 1<<PrecisionF32)
