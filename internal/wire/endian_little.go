//go:build !(armbe || arm64be || m68k || mips || mips64 || mips64p32 || ppc || ppc64 || s390 || s390x || shbe || sparc || sparc64)

package wire

// hostLittleEndian says the host stores a float's bytes in wire order,
// so AppendFloats and DecodeFloats move whole vectors with one copy.
// It is a constant chosen by GOARCH: the branch not taken is dead code.
const hostLittleEndian = true
