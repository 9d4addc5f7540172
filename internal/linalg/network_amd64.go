package linalg

import "unsafe"

// simdSupported reports whether the CPU and OS run AVX-512F: CPUID
// leaf 7 EBX bit 16, and the OS saving the opmask and all 32 zmm
// registers on a context switch (OSXSAVE, then XCR0 bits 1, 2 and 5–7).
func simdSupported() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	if _, _, ecx, _ := cpuid(1, 0); ecx&(1<<27) == 0 {
		return false
	}
	if xgetbv0()&0xe6 != 0xe6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<16) != 0
}

// sortTileSIMD is sortLanes for a full tile (w = Lanes) in AVX-512F:
// the same keys, the same comparators in the same order, and the same
// two flags, so the tile and the flags are bit for bit the portable
// body's. Each row must hold coordinates [b0, b0+Lanes); the check here
// stands in for the portable body's slice bounds.
func sortTileSIMD[T Float, K key](net []comparator, tile []K, vs [][]T, b0 int) (nan, negZero bool) {
	_ = tile[len(vs)*Lanes-1]
	for _, v := range vs {
		_ = v[b0 : b0+Lanes]
	}
	rows, cmps := unsafe.Pointer(unsafe.SliceData(vs)), unsafe.SliceData(net)
	if Width[T]() == 4 {
		mag, minOff := sortTile32((*int32)(unsafe.Pointer(&tile[0])), (*[]float32)(rows), len(vs), b0, cmps, len(net))
		return mag > 0x7f80_0000, minOff == 0
	}
	mag, minOff := sortTile64((*int64)(unsafe.Pointer(&tile[0])), (*[]float64)(rows), len(vs), b0, cmps, len(net))
	return mag > 0x7ff0_0000_0000_0000, minOff == 0
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() uint32

// sortTile64 and sortTile32 load coordinates [b0, b0+Lanes) of n rows
// into tile as sort keys and run the m comparators at net across it.
// They return the largest |raw| (the raw bits without the sign) and the
// smallest key+1 as unsigned: a NaN is loaded when mag exceeds +Inf's
// bits, a -0 when minOff is zero.
//
//go:noescape
func sortTile64(tile *int64, rows *[]float64, n, b0 int, net *comparator, m int) (mag, minOff uint64)

//go:noescape
func sortTile32(tile *int32, rows *[]float32, n, b0 int, net *comparator, m int) (mag, minOff uint32)
