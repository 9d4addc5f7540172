#include "textflag.h"

// The AVX-512F body of one full tile of sortLanes (network_amd64.go).
// A tile row is Lanes = 64 keys: eight zmm registers of int64 keys, or
// four of int32. Besides AVX's VMOVQ, VMOVD and VZEROUPPER, every vector
// instruction is an AVX512F one at 512-bit width, so the CPUID test in
// network_amd64.go is the whole requirement.

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() uint32
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET

// KEY64 turns raw float bits in r into sort keys in k (sortKey: flip
// the magnitude bits of negatives), folds |raw| into the max in Z29 and
// key+1 into the unsigned min in Z28, and stores the keys at off(R8).
// Z31 holds the magnitude mask, Z30 ones.
#define KEY64(off, r, k) \
	VMOVDQU64 off(R9), r; \
	VPSRAQ    $63, r, k; \
	VPANDQ    Z31, k, k; \
	VPXORQ    r, k, k; \
	VPANDQ    Z31, r, r; \
	VPMAXUQ   r, Z29, Z29; \
	VPADDQ    Z30, k, r; \
	VPMINUQ   r, Z28, Z28; \
	VMOVDQU64 k, off(R8)

#define KEY32(off, r, k) \
	VMOVDQU32 off(R9), r; \
	VPSRAD    $31, r, k; \
	VPANDD    Z31, k, k; \
	VPXORD    r, k, k; \
	VPANDD    Z31, r, r; \
	VPMAXUD   r, Z29, Z29; \
	VPADDD    Z30, k, r; \
	VPMINUD   r, Z28, Z28; \
	VMOVDQU32 k, off(R8)

// XCHG64 compare-exchanges the 64-byte lane group at off of rows AX
// and BX: the signed min stays in row AX, the max goes to row BX.
#define XCHG64(off, a, b, lo) \
	VMOVDQU64 off(AX), a; \
	VMOVDQU64 off(BX), b; \
	VPMINSQ   b, a, lo; \
	VPMAXSQ   b, a, b; \
	VMOVDQU64 lo, off(AX); \
	VMOVDQU64 b, off(BX)

#define XCHG32(off, a, b, lo) \
	VMOVDQU32 off(AX), a; \
	VMOVDQU32 off(BX), b; \
	VPMINSD   b, a, lo; \
	VPMAXSD   b, a, b; \
	VMOVDQU32 lo, off(AX); \
	VMOVDQU32 b, off(BX)

// func sortTile64(tile *int64, rows *[]float64, n, b0 int, net *comparator, m int) (mag, minOff uint64)
TEXT ·sortTile64(SB), NOSPLIT, $0-64
	MOVQ tile+0(FP), DI
	MOVQ rows+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ b0+24(FP), DX
	SHLQ $3, DX
	MOVQ $0x7fffffffffffffff, AX
	VPBROADCASTQ AX, Z31
	MOVQ $1, AX
	VPBROADCASTQ AX, Z30
	VPXORQ Z29, Z29, Z29
	VPTERNLOGQ $0xff, Z28, Z28, Z28
	MOVQ DI, R8

load64:
	MOVQ (SI), R9
	ADDQ DX, R9
	KEY64(0, Z0, Z8)
	KEY64(64, Z1, Z9)
	KEY64(128, Z2, Z10)
	KEY64(192, Z3, Z11)
	KEY64(256, Z4, Z12)
	KEY64(320, Z5, Z13)
	KEY64(384, Z6, Z14)
	KEY64(448, Z7, Z15)
	ADDQ $24, SI
	ADDQ $512, R8
	DECQ CX
	JNZ  load64

	// Reduce the two accumulators across lanes.
	VSHUFI64X2 $0x4e, Z29, Z29, Z0
	VPMAXUQ    Z0, Z29, Z29
	VSHUFI64X2 $0xb1, Z29, Z29, Z0
	VPMAXUQ    Z0, Z29, Z29
	VPSHUFD    $0x4e, Z29, Z0
	VPMAXUQ    Z0, Z29, Z0
	VMOVQ      X0, mag+48(FP)
	VSHUFI64X2 $0x4e, Z28, Z28, Z0
	VPMINUQ    Z0, Z28, Z28
	VSHUFI64X2 $0xb1, Z28, Z28, Z0
	VPMINUQ    Z0, Z28, Z28
	VPSHUFD    $0x4e, Z28, Z0
	VPMINUQ    Z0, Z28, Z0
	VMOVQ      X0, minOff+56(FP)

	MOVQ net+32(FP), SI
	MOVQ m+40(FP), CX
	TESTQ CX, CX
	JZ   done64

net64:
	MOVL 0(SI), AX
	MOVL 4(SI), BX
	SHLQ $9, AX
	SHLQ $9, BX
	ADDQ DI, AX
	ADDQ DI, BX
	XCHG64(0, Z0, Z8, Z16)
	XCHG64(64, Z1, Z9, Z17)
	XCHG64(128, Z2, Z10, Z18)
	XCHG64(192, Z3, Z11, Z19)
	XCHG64(256, Z4, Z12, Z20)
	XCHG64(320, Z5, Z13, Z21)
	XCHG64(384, Z6, Z14, Z22)
	XCHG64(448, Z7, Z15, Z23)
	ADDQ $8, SI
	DECQ CX
	JNZ  net64

done64:
	VZEROUPPER
	RET

// func sortTile32(tile *int32, rows *[]float32, n, b0 int, net *comparator, m int) (mag, minOff uint32)
TEXT ·sortTile32(SB), NOSPLIT, $0-56
	MOVQ tile+0(FP), DI
	MOVQ rows+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ b0+24(FP), DX
	SHLQ $2, DX
	MOVL $0x7fffffff, AX
	VPBROADCASTD AX, Z31
	MOVL $1, AX
	VPBROADCASTD AX, Z30
	VPXORD Z29, Z29, Z29
	VPTERNLOGD $0xff, Z28, Z28, Z28
	MOVQ DI, R8

load32:
	MOVQ (SI), R9
	ADDQ DX, R9
	KEY32(0, Z0, Z8)
	KEY32(64, Z1, Z9)
	KEY32(128, Z2, Z10)
	KEY32(192, Z3, Z11)
	ADDQ $24, SI
	ADDQ $256, R8
	DECQ CX
	JNZ  load32

	VSHUFI64X2 $0x4e, Z29, Z29, Z0
	VPMAXUD    Z0, Z29, Z29
	VSHUFI64X2 $0xb1, Z29, Z29, Z0
	VPMAXUD    Z0, Z29, Z29
	VPSHUFD    $0x4e, Z29, Z0
	VPMAXUD    Z0, Z29, Z29
	VPSHUFD    $0xb1, Z29, Z0
	VPMAXUD    Z0, Z29, Z0
	VMOVD      X0, AX
	MOVL       AX, mag+48(FP)
	VSHUFI64X2 $0x4e, Z28, Z28, Z0
	VPMINUD    Z0, Z28, Z28
	VSHUFI64X2 $0xb1, Z28, Z28, Z0
	VPMINUD    Z0, Z28, Z28
	VPSHUFD    $0x4e, Z28, Z0
	VPMINUD    Z0, Z28, Z28
	VPSHUFD    $0xb1, Z28, Z0
	VPMINUD    Z0, Z28, Z0
	VMOVD      X0, AX
	MOVL       AX, minOff+52(FP)

	MOVQ net+32(FP), SI
	MOVQ m+40(FP), CX
	TESTQ CX, CX
	JZ   done32

net32:
	MOVL 0(SI), AX
	MOVL 4(SI), BX
	SHLQ $8, AX
	SHLQ $8, BX
	ADDQ DI, AX
	ADDQ DI, BX
	XCHG32(0, Z0, Z8, Z16)
	XCHG32(64, Z1, Z9, Z17)
	XCHG32(128, Z2, Z10, Z18)
	XCHG32(192, Z3, Z11, Z19)
	ADDQ $8, SI
	DECQ CX
	JNZ  net32

done32:
	VZEROUPPER
	RET
