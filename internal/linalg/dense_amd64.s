#include "textflag.h"

// The AVX-512F bodies of the dense-layer kernels (dense.go). Besides
// AVX's VMOVSD, VADDSD and VZEROUPPER, every vector instruction is an
// AVX512F one, so no legacy SSE instruction runs next to the zmm state,
// and the CPUID test in network_amd64.go is the whole requirement. Go's
// operand order is Intel's reversed: "VADDPD Z1, Z0, Z0" is
// Z0 = Z0 + Z1 with Z0 the first source, the one whose payload x86
// keeps when both operands are NaN.

// TAILMASK sets K1 to the low n%8 lanes (n in CX), the coordinates past
// a row's last full vector; AX and R13 are scratch.
#define TAILMASK \
	MOVQ  CX, R13; \
	ANDQ  $7, CX; \
	MOVL  $1, AX; \
	SHLL  CX, AX; \
	DECL  AX; \
	KMOVW AX, K1; \
	MOVQ  R13, CX

// MACC adds w·x to the accumulator acc: the weight at addr broadcast
// into t, times the input row in Z8 (the weight the first source),
// then acc + product (the accumulator the first source).
#define MACC(addr, t, acc) \
	VBROADCASTSD addr, t; \
	VMULPD       Z8, t, t; \
	VADDPD       t, acc, acc

// BIAS adds bias o of the block (the accumulator the first source),
// zeroes the lanes below Z31 (+0 for a ReLU layer, −Inf otherwise, so
// a NaN or −0 is kept) and stores output row o.
#define BIAS(o, acc) \
	VADDPD.BCST o*8(DI), acc, acc; \
	VCMPPD      $5, Z31, acc, K2; \
	VMOVAPD.Z   acc, K2, acc; \
	VMOVUPD     acc, o*64(DX)

// func affineLanes(w, b, x, out *float64, n, m int, relu bool)
//
// Rows of w go in blocks of 8, then 4, 2 and 1, one zmm accumulator a
// row; each pass runs j = 0…n−1 down the input tile. R8 walks the
// block's first row; R9, R10, R11 and R12 hold 1, 3, 5 and 7 rows of w
// in bytes, so every row of the block is one addressing mode away.
TEXT ·affineLanes(SB), NOSPLIT, $0-49
	MOVQ    w+0(FP), R8
	MOVQ    b+8(FP), DI
	MOVQ    x+16(FP), SI
	MOVQ    out+24(FP), DX
	MOVQ    m+40(FP), BX
	MOVQ    n+32(FP), R9
	SHLQ    $3, R9
	LEAQ    (R9)(R9*2), R10
	LEAQ    (R9)(R9*4), R11
	LEAQ    (R10)(R9*4), R12
	VPXORQ  Z31, Z31, Z31
	MOVBLZX relu+48(FP), AX
	TESTL   AX, AX
	JNZ     rows8
	MOVQ    $0xfff0000000000000, AX
	VPBROADCASTQ AX, Z31

rows8:
	CMPQ   BX, $8
	JLT    rows4
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	MOVQ   SI, AX
	MOVQ   n+32(FP), CX
	TESTQ  CX, CX
	JZ     bias8

cols8:
	VMOVUPD (AX), Z8
	MACC((R8), Z16, Z0)
	MACC((R8)(R9*1), Z17, Z1)
	MACC((R8)(R9*2), Z18, Z2)
	MACC((R8)(R10*1), Z19, Z3)
	MACC((R8)(R9*4), Z20, Z4)
	MACC((R8)(R11*1), Z21, Z5)
	MACC((R8)(R10*2), Z22, Z6)
	MACC((R8)(R12*1), Z23, Z7)
	ADDQ    $8, R8
	ADDQ    $64, AX
	DECQ    CX
	JNZ     cols8

bias8:
	ADDQ R12, R8
	BIAS(0, Z0)
	BIAS(1, Z1)
	BIAS(2, Z2)
	BIAS(3, Z3)
	BIAS(4, Z4)
	BIAS(5, Z5)
	BIAS(6, Z6)
	BIAS(7, Z7)
	ADDQ $64, DI
	ADDQ $512, DX
	SUBQ $8, BX
	JMP  rows8

rows4:
	CMPQ   BX, $4
	JLT    rows2
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	MOVQ   SI, AX
	MOVQ   n+32(FP), CX
	TESTQ  CX, CX
	JZ     bias4

cols4:
	VMOVUPD (AX), Z8
	MACC((R8), Z16, Z0)
	MACC((R8)(R9*1), Z17, Z1)
	MACC((R8)(R9*2), Z18, Z2)
	MACC((R8)(R10*1), Z19, Z3)
	ADDQ    $8, R8
	ADDQ    $64, AX
	DECQ    CX
	JNZ     cols4

bias4:
	ADDQ R10, R8
	BIAS(0, Z0)
	BIAS(1, Z1)
	BIAS(2, Z2)
	BIAS(3, Z3)
	ADDQ $32, DI
	ADDQ $256, DX
	SUBQ $4, BX

rows2:
	CMPQ   BX, $2
	JLT    rows1
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	MOVQ   SI, AX
	MOVQ   n+32(FP), CX
	TESTQ  CX, CX
	JZ     bias2

cols2:
	VMOVUPD (AX), Z8
	MACC((R8), Z16, Z0)
	MACC((R8)(R9*1), Z17, Z1)
	ADDQ    $8, R8
	ADDQ    $64, AX
	DECQ    CX
	JNZ     cols2

bias2:
	ADDQ R9, R8
	BIAS(0, Z0)
	BIAS(1, Z1)
	ADDQ $16, DI
	ADDQ $128, DX
	SUBQ $2, BX

rows1:
	TESTQ  BX, BX
	JZ     affineDone
	VPXORQ Z0, Z0, Z0
	MOVQ   SI, AX
	MOVQ   n+32(FP), CX
	TESTQ  CX, CX
	JZ     bias1

cols1:
	VMOVUPD (AX), Z8
	MACC((R8), Z16, Z0)
	ADDQ    $8, R8
	ADDQ    $64, AX
	DECQ    CX
	JNZ     cols1

bias1:
	BIAS(0, Z0)

affineDone:
	VZEROUPPER
	RET

// OUTER updates one vector of row o: x·delta + row (x the first source
// of the multiply, the product the first source of the add), with x at
// off(DX)(R13), the row at off(R9)(R13) and delta[o] broadcast in Z2.
#define OUTER(off, z) \
	VMOVUPD off(DX)(R13*1), z; \
	VMULPD  Z2, z, z; \
	VADDPD  off(R9)(R13*1), z, z; \
	VMOVUPD z, off(R9)(R13*1)

// func addOuter(w, b, delta, x *float64, n, m int)
//
// Deltas go 8 at a time: one compare gives the mask of the nonzero ones
// (NaN included, ±0 not), and the rows behind its set bits are updated
// lowest first — so a dead ReLU unit costs no branch of its own. A row
// runs its full vectors 4 at a time, then one at a time, then the
// masked tail; its bias gets delta[o] in a scalar add (the bias the
// first source). K3 holds the low m%8 lanes, for the last group.
TEXT ·addOuter(SB), NOSPLIT, $0-48
	MOVQ   w+0(FP), DI
	MOVQ   b+8(FP), R8
	MOVQ   delta+16(FP), SI
	MOVQ   x+24(FP), DX
	MOVQ   m+40(FP), BX
	MOVQ   BX, CX
	ANDQ   $7, CX
	MOVL   $1, AX
	SHLL   CX, AX
	DECL   AX
	KMOVW  AX, K3
	MOVQ   n+32(FP), CX
	TAILMASK
	MOVQ   CX, R10
	ANDQ   $-8, R10
	SHLQ   $3, R10
	VPXORQ Z31, Z31, Z31
	XORQ   R12, R12

outerGroup:
	MOVQ    BX, AX
	SUBQ    R12, AX
	JLE     outerDone
	CMPQ    AX, $8
	JLT     outerLast
	VMOVUPD (SI)(R12*8), Z0
	VCMPPD  $4, Z31, Z0, K2
	JMP     outerBits

outerLast:
	VMOVUPD.Z (SI)(R12*8), K3, Z0
	VCMPPD    $4, Z31, Z0, K3, K2

outerBits:
	KMOVW K2, R11

outerRow:
	BSFQ         R11, AX
	JZ           outerNext
	LEAQ         -1(R11), R13
	ANDQ         R13, R11
	ADDQ         R12, AX
	VMOVSD       (R8)(AX*8), X1
	VADDSD       (SI)(AX*8), X1, X1
	VMOVSD       X1, (R8)(AX*8)
	VBROADCASTSD (SI)(AX*8), Z2
	IMULQ        CX, AX
	LEAQ         (DI)(AX*8), R9
	XORQ         R13, R13

outer4:
	LEAQ 256(R13), AX
	CMPQ AX, R10
	JGT  outer1
	OUTER(0, Z0)
	OUTER(64, Z1)
	OUTER(128, Z3)
	OUTER(192, Z4)
	MOVQ AX, R13
	JMP  outer4

outer1:
	CMPQ R13, R10
	JGE  outerTail
	OUTER(0, Z0)
	ADDQ $64, R13
	JMP  outer1

outerTail:
	KORTESTW  K1, K1
	JZ        outerRow
	VMOVUPD.Z (DX)(R13*1), K1, Z0
	VMULPD    Z2, Z0, Z0
	VMOVUPD.Z (R9)(R13*1), K1, Z1
	VADDPD    Z1, Z0, Z0
	VMOVUPD   Z0, K1, (R9)(R13*1)
	JMP       outerRow

outerNext:
	ADDQ $8, R12
	JMP  outerGroup

outerDone:
	VZEROUPPER
	RET

// ROWS adds delta[o]·w[o, off] into the accumulator acc: the weights at
// off(R12) times delta[o] broadcast in Z16 (the weights the first
// source), then product + acc (the product the first source).
#define ROWS(off, t, acc) \
	VMOVUPD off(R12), t; \
	VMULPD  Z16, t, t; \
	VADDPD  acc, t, acc

// RELUMASK zeroes the lanes of acc whose activation at off(R8) is ±0
// (a NaN activation keeps its lane) and stores acc to off(DI).
#define RELUMASK(off, acc) \
	VCMPPD    $4, off(R8), Z31, K2; \
	VMOVAPD.Z acc, K2, acc; \
	VMOVUPD   acc, off(DI)

// func backpropReLU(dst, delta, w, act *float64, n, m int)
//
// Column block by column block — 8 vectors, then 1, then the masked
// tail — the block's sums start at +0 in zmm accumulators while o runs
// 0…m−1 down the block, skipping every zero delta, and are masked by the
// activations on the way out.
TEXT ·backpropReLU(SB), NOSPLIT, $0-48
	MOVQ   dst+0(FP), DI
	MOVQ   delta+8(FP), SI
	MOVQ   w+16(FP), DX
	MOVQ   act+24(FP), R8
	MOVQ   n+32(FP), CX
	MOVQ   m+40(FP), BX
	TAILMASK
	MOVQ   CX, R9
	SHLQ   $3, R9
	MOVQ   CX, R10
	SHRQ   $3, R10
	VPXORQ Z31, Z31, Z31

back8:
	CMPQ   R10, $8
	JLT    back1
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	MOVQ   SI, R11
	MOVQ   DX, R12
	MOVQ   BX, R13
	TESTQ  R13, R13
	JZ     store8

down8:
	MOVQ         (R11), AX
	SHLQ         $1, AX
	JZ           skip8
	VBROADCASTSD (R11), Z16
	ROWS(0, Z8, Z0)
	ROWS(64, Z9, Z1)
	ROWS(128, Z10, Z2)
	ROWS(192, Z11, Z3)
	ROWS(256, Z12, Z4)
	ROWS(320, Z13, Z5)
	ROWS(384, Z14, Z6)
	ROWS(448, Z15, Z7)

skip8:
	ADDQ $8, R11
	ADDQ R9, R12
	DECQ R13
	JNZ  down8

store8:
	RELUMASK(0, Z0)
	RELUMASK(64, Z1)
	RELUMASK(128, Z2)
	RELUMASK(192, Z3)
	RELUMASK(256, Z4)
	RELUMASK(320, Z5)
	RELUMASK(384, Z6)
	RELUMASK(448, Z7)
	ADDQ $512, DI
	ADDQ $512, DX
	ADDQ $512, R8
	SUBQ $8, R10
	JMP  back8

back1:
	TESTQ  R10, R10
	JZ     backTail
	VPXORQ Z0, Z0, Z0
	MOVQ   SI, R11
	MOVQ   DX, R12
	MOVQ   BX, R13
	TESTQ  R13, R13
	JZ     store1

down1:
	MOVQ         (R11), AX
	SHLQ         $1, AX
	JZ           skip1
	VBROADCASTSD (R11), Z16
	ROWS(0, Z8, Z0)

skip1:
	ADDQ $8, R11
	ADDQ R9, R12
	DECQ R13
	JNZ  down1

store1:
	RELUMASK(0, Z0)
	ADDQ $64, DI
	ADDQ $64, DX
	ADDQ $64, R8
	DECQ R10
	JMP  back1

backTail:
	KORTESTW K1, K1
	JZ       backDone
	VPXORQ   Z0, Z0, Z0
	MOVQ     SI, R11
	MOVQ     DX, R12
	MOVQ     BX, R13
	TESTQ    R13, R13
	JZ       storeTail

downTail:
	MOVQ         (R11), AX
	SHLQ         $1, AX
	JZ           skipTail
	VBROADCASTSD (R11), Z16
	VMOVUPD.Z    (R12), K1, Z8
	VMULPD       Z16, Z8, Z8
	VADDPD       Z0, Z8, Z0

skipTail:
	ADDQ $8, R11
	ADDQ R9, R12
	DECQ R13
	JNZ  downTail

storeTail:
	VMOVUPD.Z (R8), K1, Z9
	VCMPPD    $4, Z9, Z31, K1, K2
	VMOVAPD.Z Z0, K2, Z0
	VMOVUPD   Z0, K1, (DI)

backDone:
	VZEROUPPER
	RET
