#include "textflag.h"

// The AVX-512F body of the coordinate-wise moments (moments.go). Go's
// operand order is Intel's reversed: "VADDPD Z8, Z4, Z4" is
// Z4 = Z4 + Z8 with Z4 the first source, the one whose payload x86
// keeps when both operands are NaN. Each instruction takes the portable
// loop's order: the running sum before the row, the row before the
// mean it is reduced by, and the sum before 1/n. There is no FMA: the
// square of a deviation is rounded before it is added, as in Go.

// DEV adds the squared deviation of the row's 8 coordinates at off
// from the block's means in mu to acc; t is scratch.
#define DEV(off, mu, acc, t) \
	VMOVUPD off(R9)(R8*1), t; \
	VSUBPD  mu, t, t; \
	VMULPD  t, t, t; \
	VADDPD  t, acc, acc

// func momentBlocks(mu, sigma *float64, rows *[]float64, n, lo, blocks int, inv float64)
//
// One block is 32 coordinates in Z0–Z3. The sum pass runs the rows in
// order into Z0–Z3, which are then scaled by 1/n (Z31), stored as the
// means and kept; the deviation pass runs the rows again into Z4–Z7,
// while the block's n × 256 bytes are still in L1. R8 is the block's
// byte offset into mu, sigma and every row; SI walks the row headers.
TEXT ·momentBlocks(SB), NOSPLIT, $0-56
	MOVQ         mu+0(FP), DI
	MOVQ         sigma+8(FP), DX
	MOVQ         rows+16(FP), SI
	MOVQ         n+24(FP), CX
	MOVQ         lo+32(FP), R8
	SHLQ         $3, R8
	MOVQ         blocks+40(FP), BX
	VBROADCASTSD inv+48(FP), Z31

block:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	MOVQ   SI, AX
	MOVQ   CX, R10

sum:
	MOVQ   (AX), R9
	VADDPD (R9)(R8*1), Z0, Z0
	VADDPD 64(R9)(R8*1), Z1, Z1
	VADDPD 128(R9)(R8*1), Z2, Z2
	VADDPD 192(R9)(R8*1), Z3, Z3
	ADDQ   $24, AX
	DECQ   R10
	JNZ    sum

	VMULPD  Z31, Z0, Z0
	VMULPD  Z31, Z1, Z1
	VMULPD  Z31, Z2, Z2
	VMULPD  Z31, Z3, Z3
	VMOVUPD Z0, (DI)(R8*1)
	VMOVUPD Z1, 64(DI)(R8*1)
	VMOVUPD Z2, 128(DI)(R8*1)
	VMOVUPD Z3, 192(DI)(R8*1)
	TESTQ   DX, DX
	JZ      next

	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	MOVQ   SI, AX
	MOVQ   CX, R10

dev:
	MOVQ (AX), R9
	DEV(0, Z0, Z4, Z8)
	DEV(64, Z1, Z5, Z9)
	DEV(128, Z2, Z6, Z10)
	DEV(192, Z3, Z7, Z11)
	ADDQ $24, AX
	DECQ R10
	JNZ  dev

	VMULPD  Z31, Z4, Z4
	VMULPD  Z31, Z5, Z5
	VMULPD  Z31, Z6, Z6
	VMULPD  Z31, Z7, Z7
	VSQRTPD Z4, Z4
	VSQRTPD Z5, Z5
	VSQRTPD Z6, Z6
	VSQRTPD Z7, Z7
	VMOVUPD Z4, (DX)(R8*1)
	VMOVUPD Z5, 64(DX)(R8*1)
	VMOVUPD Z6, 128(DX)(R8*1)
	VMOVUPD Z7, 192(DX)(R8*1)

next:
	ADDQ $256, R8
	DECQ BX
	JNZ  block
	VZEROUPPER
	RET
