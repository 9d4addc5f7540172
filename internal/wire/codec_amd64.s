#include "textflag.h"

// The AVX-512 bodies of the int8 uplink codec (quant.go) and the
// XOR-delta params decoder (delta.go); codec_amd64.go holds their
// contracts. The int8 bodies use AVX-512F and AVX only; the delta body
// adds AVX512BW, AVX512_VBMI and BMI2 (linalg.SIMDVBMI). Go's operand
// order is Intel's reversed: "VSUBPD Z20, Z0, Z0" is Z0 = Z0 − Z20 with
// Z0 the first source, the one whose payload x86 keeps when both
// operands are NaN. Every body ends with VZEROUPPER.

// func int8Range64(row *float64, n int) (min, max float64)
//
// Two lane vectors each for min and max start from row[0]. A lane takes a
// value only when it is strictly below (above) the lane: VMINPD with
// the value as first source returns the second source, the lane, on
// a tie or a NaN. The reduction across lanes may run in any order:
// the lanes hold no NaN unless row[0] is one (then every lane holds its
// bits), and equal values differ only as ±0, whose sign int8Range
// settles.
TEXT ·int8Range64(SB), NOSPLIT, $0-32
	MOVQ         row+0(FP), SI
	MOVQ         n+8(FP), CX
	VBROADCASTSD (SI), Z0
	VMOVAPD      Z0, Z1
	VMOVAPD      Z0, Z2
	VMOVAPD      Z0, Z3

range64:
	VMOVUPD (SI), Z4
	VMOVUPD 64(SI), Z5
	VMINPD  Z0, Z4, Z0
	VMINPD  Z1, Z5, Z1
	VMAXPD  Z2, Z4, Z2
	VMAXPD  Z3, Z5, Z3
	ADDQ    $128, SI
	SUBQ    $16, CX
	JNZ     range64

	VMINPD        Z1, Z0, Z0
	VMAXPD        Z3, Z2, Z2
	VEXTRACTF64X4 $1, Z0, Y1
	VEXTRACTF64X4 $1, Z2, Y3
	VMINPD        Y1, Y0, Y0
	VMAXPD        Y3, Y2, Y2
	VEXTRACTF128  $1, Y0, X1
	VEXTRACTF128  $1, Y2, X3
	VMINPD        X1, X0, X0
	VMAXPD        X3, X2, X2
	VPERMILPD     $1, X0, X1
	VPERMILPD     $1, X2, X3
	VMINSD        X1, X0, X0
	VMAXSD        X3, X2, X2
	VMOVSD        X0, min+16(FP)
	VMOVSD        X2, max+24(FP)
	VZEROUPPER
	RET

// func int8Range32(row *float32, n int) (min, max float32)
//
// int8Range64 at 16 lanes, one vector each for min and max.
TEXT ·int8Range32(SB), NOSPLIT, $0-24
	MOVQ         row+0(FP), SI
	MOVQ         n+8(FP), CX
	VBROADCASTSS (SI), Z0
	VMOVAPS      Z0, Z2

range32:
	VMOVUPS (SI), Z4
	VMINPS  Z0, Z4, Z0
	VMAXPS  Z2, Z4, Z2
	ADDQ    $64, SI
	SUBQ    $16, CX
	JNZ     range32

	VEXTRACTF64X4 $1, Z0, Y1
	VEXTRACTF64X4 $1, Z2, Y3
	VMINPS        Y1, Y0, Y0
	VMAXPS        Y3, Y2, Y2
	VEXTRACTF128  $1, Y0, X1
	VEXTRACTF128  $1, Y2, X3
	VMINPS        X1, X0, X0
	VMAXPS        X3, X2, X2
	VPERMILPS     $0x4e, X0, X1
	VPERMILPS     $0x4e, X2, X3
	VMINPS        X1, X0, X0
	VMAXPS        X3, X2, X2
	VPERMILPS     $0xb1, X0, X1
	VPERMILPS     $0xb1, X2, X3
	VMINSS        X1, X0, X0
	VMAXSS        X3, X2, X2
	VMOVSS        X0, min+16(FP)
	VMOVSS        X2, max+20(FP)
	VZEROUPPER
	RET

// QUANT64 quantizes the 8 float64 at off(SI) into int32 lanes 0–7 of zi
// (yi is its low half; lanes 8–15 come out zero), the operations of
// int8Quantize: t = (v − min)/scale, then 0 where !(t > 0) (NaN
// included), then tc = t where t < 255 and 255 otherwise, truncated,
// plus one where tc − ⌊tc⌋ ≥ ½. Z20 holds min, Z21 scale, Z22 255,
// Z23 ½, Z24 zero and Z25 all ones; v, t and f are scratch.
#define QUANT64(off, v, t, yi, zi, f) \
	VMOVUPD     off(SI), v; \
	VSUBPD      Z20, v, v; \
	VDIVPD      Z21, v, v; \
	VCMPPD      $0x1e, Z24, v, K2; \
	VMINPD      Z22, v, t; \
	VCVTTPD2DQ  t, yi; \
	VCVTDQ2PD   yi, f; \
	VSUBPD      f, t, f; \
	VCMPPD      $0x1d, Z23, f, K3; \
	VPSUBD      Z25, zi, K3, zi; \
	VMOVDQA32.Z zi, K2, zi

// func int8Quantize64(q *byte, row *float64, n int, min, scale float64)
//
// Sixteen values a step: two QUANT64 halves joined into one vector of
// int32 and narrowed to bytes (every lane is in 0…255).
TEXT ·int8Quantize64(SB), NOSPLIT, $0-40
	MOVQ         q+0(FP), DI
	MOVQ         row+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSD min+24(FP), Z20
	VBROADCASTSD scale+32(FP), Z21
	MOVQ         $0x406fe00000000000, AX // 255.0
	VPBROADCASTQ AX, Z22
	MOVQ         $0x3fe0000000000000, AX // 0.5
	VPBROADCASTQ AX, Z23
	VPXORQ       Z24, Z24, Z24
	VPTERNLOGD   $0xff, Z25, Z25, Z25

quant64:
	QUANT64(0, Z0, Z1, Y2, Z2, Z3)
	QUANT64(64, Z4, Z5, Y6, Z6, Z7)
	VINSERTI64X4 $1, Y6, Z2, Z2
	VPMOVDB      Z2, (DI)
	ADDQ         $128, SI
	ADDQ         $16, DI
	SUBQ         $16, CX
	JNZ          quant64
	VZEROUPPER
	RET

// func int8Quantize32(q *byte, row *float32, n int, min, scale float32)
//
// QUANT64's operations at float32, sixteen lanes a vector.
TEXT ·int8Quantize32(SB), NOSPLIT, $0-32
	MOVQ         q+0(FP), DI
	MOVQ         row+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSS min+24(FP), Z20
	VBROADCASTSS scale+28(FP), Z21
	MOVL         $0x437f0000, AX // 255.0
	VPBROADCASTD AX, Z22
	MOVL         $0x3f000000, AX // 0.5
	VPBROADCASTD AX, Z23
	VPXORQ       Z24, Z24, Z24
	VPTERNLOGD   $0xff, Z25, Z25, Z25

quant32:
	VMOVUPS     (SI), Z0
	VSUBPS      Z20, Z0, Z0
	VDIVPS      Z21, Z0, Z0
	VCMPPS      $0x1e, Z24, Z0, K2
	VMINPS      Z22, Z0, Z1
	VCVTTPS2DQ  Z1, Z2
	VCVTDQ2PS   Z2, Z3
	VSUBPS      Z3, Z1, Z3
	VCMPPS      $0x1d, Z23, Z3, K3
	VPSUBD      Z25, Z2, K3, Z2
	VMOVDQA32.Z Z2, K2, Z2
	VPMOVDB     Z2, (DI)
	ADDQ        $64, SI
	ADDQ        $16, DI
	SUBQ        $16, CX
	JNZ         quant32
	VZEROUPPER
	RET

// func int8Dequantize64(row *float64, q *byte, n int, min, scale float64)
//
// row[j] = min + scale·q[j], sixteen a step: the product rounded, then
// the sum, with the operand order the scalar loop compiles to (q before
// scale, the product before min), so a NaN scale and a NaN min give
// the scale's payload as there.
TEXT ·int8Dequantize64(SB), NOSPLIT, $0-40
	MOVQ         row+0(FP), DI
	MOVQ         q+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSD min+24(FP), Z20
	VBROADCASTSD scale+32(FP), Z21

dequant64:
	VPMOVZXBD     (SI), Z0
	VCVTDQ2PD     Y0, Z1
	VEXTRACTI64X4 $1, Z0, Y2
	VCVTDQ2PD     Y2, Z2
	VMULPD        Z21, Z1, Z1
	VMULPD        Z21, Z2, Z2
	VADDPD        Z20, Z1, Z1
	VADDPD        Z20, Z2, Z2
	VMOVUPD       Z1, (DI)
	VMOVUPD       Z2, 64(DI)
	ADDQ          $16, SI
	ADDQ          $128, DI
	SUBQ          $16, CX
	JNZ           dequant64
	VZEROUPPER
	RET

// func int8Dequantize32(row *float32, q *byte, n int, min, scale float32)
TEXT ·int8Dequantize32(SB), NOSPLIT, $0-32
	MOVQ         row+0(FP), DI
	MOVQ         q+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSS min+24(FP), Z20
	VBROADCASTSS scale+28(FP), Z21

dequant32:
	VPMOVZXBD (SI), Z0
	VCVTDQ2PS Z0, Z1
	VMULPS    Z21, Z1, Z1
	VADDPS    Z20, Z1, Z1
	VMOVUPS   Z1, (DI)
	ADDQ      $16, SI
	ADDQ      $64, DI
	SUBQ      $16, CX
	JNZ       dequant32
	VZEROUPPER
	RET

// Byte patterns of the delta decoder's 64-byte window, lane by lane: a
// lane is one coordinate, 8 bytes at float64 and 4 at float32. lane64
// and lane32 hold each byte's lane index, at64 and at32 its position
// in the lane.
DATA lane64<>+0(SB)/8, $0x0000000000000000
DATA lane64<>+8(SB)/8, $0x0101010101010101
DATA lane64<>+16(SB)/8, $0x0202020202020202
DATA lane64<>+24(SB)/8, $0x0303030303030303
DATA lane64<>+32(SB)/8, $0x0404040404040404
DATA lane64<>+40(SB)/8, $0x0505050505050505
DATA lane64<>+48(SB)/8, $0x0606060606060606
DATA lane64<>+56(SB)/8, $0x0707070707070707
GLOBL lane64<>(SB), RODATA|NOPTR, $64

DATA at64<>+0(SB)/8, $0x0706050403020100
DATA at64<>+8(SB)/8, $0x0706050403020100
DATA at64<>+16(SB)/8, $0x0706050403020100
DATA at64<>+24(SB)/8, $0x0706050403020100
DATA at64<>+32(SB)/8, $0x0706050403020100
DATA at64<>+40(SB)/8, $0x0706050403020100
DATA at64<>+48(SB)/8, $0x0706050403020100
DATA at64<>+56(SB)/8, $0x0706050403020100
GLOBL at64<>(SB), RODATA|NOPTR, $64

DATA lane32<>+0(SB)/8, $0x0101010100000000
DATA lane32<>+8(SB)/8, $0x0303030302020202
DATA lane32<>+16(SB)/8, $0x0505050504040404
DATA lane32<>+24(SB)/8, $0x0707070706060606
DATA lane32<>+32(SB)/8, $0x0909090908080808
DATA lane32<>+40(SB)/8, $0x0b0b0b0b0a0a0a0a
DATA lane32<>+48(SB)/8, $0x0d0d0d0d0c0c0c0c
DATA lane32<>+56(SB)/8, $0x0f0f0f0f0e0e0e0e
GLOBL lane32<>(SB), RODATA|NOPTR, $64

DATA at32<>+0(SB)/8, $0x0302010003020100
DATA at32<>+8(SB)/8, $0x0302010003020100
DATA at32<>+16(SB)/8, $0x0302010003020100
DATA at32<>+24(SB)/8, $0x0302010003020100
DATA at32<>+32(SB)/8, $0x0302010003020100
DATA at32<>+40(SB)/8, $0x0302010003020100
DATA at32<>+48(SB)/8, $0x0302010003020100
DATA at32<>+56(SB)/8, $0x0302010003020100
GLOBL at32<>(SB), RODATA|NOPTR, $64

// DELTASETUP loads the lane patterns: Z20 each byte's lane, Z21 its
// position k in the lane, Z22 k+1. It sets R9 to the PDEP mask that
// spreads nibbles to bytes, R10 to the byte-sum multiplier, R11 to the
// addend that sets bit 7 of a byte above w (0x80 − w − 1 per byte) and
// R12 to bit 7 of every byte. DI walks params, SI the nibbles, BX the
// payload, DX counts the payload bytes left and R8 the groups applied.
#define DELTASETUP(lane, at, over) \
	MOVQ         params+0(FP), DI; \
	MOVQ         nibbles+16(FP), SI; \
	MOVQ         payload+24(FP), BX; \
	MOVQ         plen+32(FP), DX; \
	XORQ         R8, R8; \
	VMOVDQU64    lane<>(SB), Z20; \
	VMOVDQU64    at<>(SB), Z21; \
	MOVL         $0x01010101, AX; \
	VPBROADCASTD AX, Z23; \
	VPADDB       Z23, Z21, Z22; \
	MOVQ         $0x0f0f0f0f0f0f0f0f, R9; \
	MOVQ         $0x0101010101010101, R10; \
	MOVQ         $over, R11; \
	MOVQ         $0x8080808080808080, R12

// DELTAAPPLY applies one group whose lengths are the bytes of X0 and
// whose exclusive prefix sums, the lanes' payload offsets, are the
// bytes of X3; total is the group's payload byte count. Byte k of lane
// j reads window byte off_j + k where k < n_j (≤ 63, as off_j + n_j ≤
// 64) and is zero elsewhere, so each lane is its XOR value masked to
// its length. A lane whose top byte k = n_j − 1 is zero stops the loop
// before anything is stored.
#define DELTAAPPLY(total, done) \
	VPERMB      Z3, Z20, Z4; \
	VPADDB      Z21, Z4, Z4; \
	VPERMB      Z0, Z20, Z5; \
	VPCMPUB     $1, Z5, Z21, K2; \
	VPCMPB      $0, Z5, Z22, K3; \
	VMOVDQU64   (BX), Z6; \
	VPERMB.Z    Z6, Z4, K2, Z7; \
	VPTESTNMB   Z7, Z7, K3, K4; \
	KORTESTQ    K4, K4; \
	JNZ         done; \
	VPXORQ      (DI), Z7, Z7; \
	VMOVDQU64   Z7, (DI); \
	ADDQ        $64, DI; \
	ADDQ        total, BX; \
	SUBQ        total, DX; \
	INCQ        R8

// func applyDelta64(params *float64, groups int, nibbles, payload *byte, plen int) (applied, consumed int)
//
// Eight coordinates a step while a whole 64-byte window of payload is
// left: four nibble bytes spread to eight length bytes by PDEP, every
// length checked against 8 at once, and the lengths' byte-wise prefix
// sums formed by one multiply (no byte sum passes 64).
TEXT ·applyDelta64(SB), NOSPLIT, $0-56
	DELTASETUP(lane64, at64, 0x7777777777777777)

delta64:
	CMPQ  R8, groups+8(FP)
	JGE   delta64done
	CMPQ  DX, $64
	JLT   delta64done
	MOVL  (SI)(R8*4), AX
	PDEPQ R9, AX, R13
	LEAQ  (R13)(R11*1), AX
	TESTQ R12, AX
	JNZ   delta64done
	VMOVQ R13, X0
	IMULQ R10, R13
	VMOVQ R13, X3
	VPSUBB X0, X3, X3
	SHRQ  $56, R13
	DELTAAPPLY(R13, delta64done)
	JMP   delta64

delta64done:
	MOVQ R8, applied+40(FP)
	SUBQ payload+24(FP), BX
	MOVQ BX, consumed+48(FP)
	VZEROUPPER
	RET

// func applyDelta32(params *float32, groups int, nibbles, payload *byte, plen int) (applied, consumed int)
//
// applyDelta64 at sixteen coordinates a step: eight nibble bytes spread
// in two halves, the high half's prefix sums carried on from the low
// half's total.
TEXT ·applyDelta32(SB), NOSPLIT, $0-56
	DELTASETUP(lane32, at32, 0x7b7b7b7b7b7b7b7b)

delta32:
	CMPQ    R8, groups+8(FP)
	JGE     delta32done
	CMPQ    DX, $64
	JLT     delta32done
	MOVQ    (SI)(R8*8), AX
	PDEPQ   R9, AX, R13
	SHRQ    $32, AX
	PDEPQ   R9, AX, CX
	LEAQ    (R13)(R11*1), AX
	TESTQ   R12, AX
	JNZ     delta32done
	LEAQ    (CX)(R11*1), AX
	TESTQ   R12, AX
	JNZ     delta32done
	VMOVQ   R13, X0
	VPINSRQ $1, CX, X0, X0
	IMULQ   R10, R13
	IMULQ   R10, CX
	MOVQ    R13, AX
	SHRQ    $56, AX
	IMULQ   R10, AX
	ADDQ    AX, CX
	VMOVQ   R13, X3
	VPINSRQ $1, CX, X3, X3
	VPSUBB  X0, X3, X3
	SHRQ    $56, CX
	DELTAAPPLY(CX, delta32done)
	JMP     delta32

delta32done:
	MOVQ R8, applied+40(FP)
	SUBQ payload+24(FP), BX
	MOVQ BX, consumed+48(FP)
	VZEROUPPER
	RET
