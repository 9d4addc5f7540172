//go:build armbe || arm64be || m68k || mips || mips64 || mips64p32 || ppc || ppc64 || s390 || s390x || shbe || sparc || sparc64

package wire

// hostLittleEndian is false on big-endian hosts: AppendFloats and
// DecodeFloats run their portable per-element bodies there.
const hostLittleEndian = false
