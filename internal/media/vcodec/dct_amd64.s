#include "textflag.h"
#include "transpose_amd64.h"

// RESIDUAL leaves cur − pred of one row in x as eight words.
#define RESIDUAL(c, p, x) \
	MOVQ      c, x       \
	MOVQ      p, X8      \
	PUNPCKLBW X15, x     \
	PUNPCKLBW X15, X8    \
	PSUBW     X8, x

// STAGES takes eight lines x0…x7 (a lane per line, so eight lines at once)
// through the butterfly's two stages before its multiplies, in words:
// aₙ = xₙ + x₇₋ₙ and bₙ = xₙ − x₇₋ₙ into b0–b3, then t10 = a0+a3 in x0,
// t11 = a1+a2 in x1, t12 = a1−a2 in x4 and t13 = a0−a3 in x6. x2, x3, x5
// and x7 are left free.
#define STAGES(x0, x1, x2, x3, x4, x5, x6, x7, b0, b1, b2, b3) \
	MOVO  x0, b0 \
	PADDW x7, x0 \
	PSUBW x7, b0 \
	MOVO  x1, b1 \
	PADDW x6, x1 \
	PSUBW x6, b1 \
	MOVO  x2, b2 \
	PADDW x5, x2 \
	PSUBW x5, b2 \
	MOVO  x3, b3 \
	PADDW x4, x3 \
	PSUBW x4, b3 \
	MOVO  x0, x6 \
	PADDW x3, x0 \
	PSUBW x3, x6 \
	MOVO  x1, x4 \
	PADDW x2, x1 \
	PSUBW x2, x4

// PAIR interleaves the words of a and b for PMADDWD: lanes 0–3 in a, 4–7 in
// h.
#define PAIR(a, b, h) \
	MOVO      a, h \
	PUNPCKLWL b, a \
	PUNPCKHWL b, h

// DESCALE rounds the dword sums in lo and hi (X14 holds 2^(s−1)), shifts
// them right by s and packs them to words in lo.
#define DESCALE(lo, hi, s) \
	PADDL    X14, lo \
	PADDL    X14, hi \
	PSRAL    $s, lo  \
	PSRAL    $s, hi  \
	PACKSSLW hi, lo

// EVEN leaves in t0 an output row weighing one pair, lanes 0–3 in l and 4–7
// in h, by the multipliers at fdctPairs+c. It clobbers t1.
#define EVEN(c, l, h, t0, t1, s) \
	MOVOU   ·fdctPairs+c(SB), t0 \
	MOVO    t0, t1               \
	PMADDWL l, t0                \
	PMADDWL h, t1                \
	DESCALE(t0, t1, s)

// ODD leaves in t0 an output row weighing the pairs (b0,b1), in l0 and h0,
// and (b2,b3), in l1 and h1, by the multipliers at fdctPairs+c and
// fdctPairs+c+16. It clobbers t1–t3.
#define ODD(c, l0, h0, l1, h1, t0, t1, t2, t3, s) \
	MOVOU   ·fdctPairs+c(SB), t0    \
	MOVO    t0, t1                  \
	PMADDWL l0, t0                  \
	PMADDWL h0, t1                  \
	MOVOU   ·fdctPairs+c+16(SB), t2 \
	MOVO    t2, t3                  \
	PMADDWL l1, t2                  \
	PMADDWL h1, t3                  \
	PADDL   t2, t0                  \
	PADDL   t3, t1                  \
	DESCALE(t0, t1, s)

// func fdctSSE2(cur *uint8, curStride int, pred *uint8, predStride int, coef *[64]int16)
//
// fdct8x8 as two matrix products on words. The residual rows are
// transposed so that a register holds one sample position of all eight
// rows; the row pass is then a sum of registers times constants, with
// 32-bit sums from PMADDWD, descaled by constBits−pass1Bits = 11 — except
// outputs 0 and 4, (t10 ± t11) << pass1Bits exactly, which stay in words.
// Its eight output registers are transposed back in place, and the column
// pass does the same over them with a descale of constBits+pass1Bits = 15,
// storing the output rows. Every word fits: row outputs ≤ 8160, a sum of
// four ≤ 32640 (t10); every dword fits: a column output's sum is at most
// 2^13·8·8160 (TestFDCTMatrixBounds).
TEXT ·fdctSSE2(SB), NOSPLIT, $0-40
	MOVQ cur+0(FP), SI
	MOVQ curStride+8(FP), DX
	MOVQ pred+16(FP), DI
	MOVQ predStride+24(FP), CX
	MOVQ coef+32(FP), AX
	LEAQ (DX)(DX*2), R8
	LEAQ (CX)(CX*2), R9
	LEAQ (SI)(DX*4), BX
	LEAQ (DI)(CX*4), R10
	PXOR X15, X15
	RESIDUAL((SI), (DI), X0)
	RESIDUAL((SI)(DX*1), (DI)(CX*1), X1)
	RESIDUAL((SI)(DX*2), (DI)(CX*2), X2)
	RESIDUAL((SI)(R8*1), (DI)(R9*1), X3)
	RESIDUAL((BX), (R10), X4)
	RESIDUAL((BX)(DX*1), (R10)(CX*1), X5)
	RESIDUAL((BX)(DX*2), (R10)(CX*2), X6)
	RESIDUAL((BX)(R8*1), (R10)(R9*1), X7)
	MOVL   $1<<10, R11
	MOVQ   R11, X14
	PSHUFL $0, X14, X14

	// Rows: column n of the block in x_n.
	TRANSPOSE(X0, X1, X2, X3, X4, X5, X6, X7, X8, X9, X10, X11)
	STAGES(X0, X2, X1, X6, X4, X8, X3, X9, X5, X7, X10, X11)
	MOVO  X0, X1
	PADDW X2, X0
	PSUBW X2, X1
	PSLLW $2, X0 // output 0
	PSLLW $2, X1 // output 4
	PAIR(X3, X4, X6)   // (t13, t12)
	PAIR(X5, X7, X8)   // (b0, b1)
	PAIR(X10, X11, X9) // (b2, b3)
	EVEN(32, X3, X6, X2, X4, 11)                       // output 2
	EVEN(48, X3, X6, X4, X7, 11)                       // output 6
	ODD(64, X5, X8, X10, X9, X3, X6, X7, X11, 11)      // output 1
	ODD(96, X5, X8, X10, X9, X6, X7, X11, X12, 11)     // output 3
	ODD(128, X5, X8, X10, X9, X7, X11, X12, X13, 11)   // output 5
	ODD(160, X5, X8, X10, X9, X11, X12, X13, X15, 11)  // output 7

	// Columns: row n of the row pass's output in x_n.
	TRANSPOSE(X0, X3, X2, X6, X1, X7, X4, X11, X5, X8, X9, X10)
	MOVL   $1<<14, R11
	MOVQ   R11, X14
	PSHUFL $0, X14, X14
	STAGES(X0, X2, X3, X4, X1, X5, X6, X8, X7, X9, X10, X11)
	PAIR(X0, X2, X3)  // (t10, t11)
	PAIR(X6, X1, X4)  // (t13, t12)
	PAIR(X7, X9, X5)  // (b0, b1)
	PAIR(X10, X11, X8) // (b2, b3)
	EVEN(0, X0, X3, X2, X1, 15)
	MOVOU X2, 0(AX)
	EVEN(16, X0, X3, X2, X1, 15)
	MOVOU X2, 64(AX)
	EVEN(32, X6, X4, X2, X1, 15)
	MOVOU X2, 32(AX)
	EVEN(48, X6, X4, X2, X1, 15)
	MOVOU X2, 96(AX)
	ODD(64, X7, X5, X10, X8, X2, X1, X9, X11, 15)
	MOVOU X2, 16(AX)
	ODD(96, X7, X5, X10, X8, X2, X1, X9, X11, 15)
	MOVOU X2, 48(AX)
	ODD(128, X7, X5, X10, X8, X2, X1, X9, X11, 15)
	MOVOU X2, 80(AX)
	ODD(160, X7, X5, X10, X8, X2, X1, X9, X11, 15)
	MOVOU X2, 112(AX)
	RET

// QROW quantizes the row at off: |v| + bias, the two multiplies, counts
// into X8 (−1 a zero level) and X9 (−1 a level above 63), the sign back on,
// stored at off(DI). X10–X12 hold the row's bias, m and 2^(16−s).
#define QROW(off) \
	MOVOU   off(SI), X0 \
	MOVO    X0, X1      \
	PSRAW   $15, X1     \
	PXOR    X1, X0      \
	PSUBW   X1, X0      \
	PADDW   X10, X0     \
	PMULHUW X11, X0     \
	PMULHUW X12, X0     \
	MOVO    X0, X2      \
	PCMPEQW X15, X2     \
	PADDW   X2, X8      \
	MOVO    X0, X3      \
	PCMPGTW X14, X3     \
	PADDW   X3, X9      \
	PXOR    X1, X0      \
	PSUBW   X1, X0      \
	MOVOU   X0, off(DI)

// func quantSSE2(coef *[64]int16, q *quantTable, levels *[64]int16) int
//
// codeCost is 2 + 2 a non-zero level + 1 a level above 63 in magnitude:
// 130 + 2·X8 − X9 summed over the lanes.
TEXT ·quantSSE2(SB), NOSPLIT, $0-32
	MOVQ    coef+0(FP), SI
	MOVQ    q+8(FP), DX
	MOVQ    levels+16(FP), DI
	PXOR    X15, X15
	PCMPEQW X14, X14
	PSRLW   $10, X14 // 63
	PXOR    X8, X8
	PXOR    X9, X9
	MOVOU   0(DX), X10
	MOVOU   16(DX), X11
	MOVOU   32(DX), X12
	QROW(0)
	MOVOU   48(DX), X10
	MOVOU   64(DX), X11
	MOVOU   80(DX), X12
	QROW(16)
	QROW(32)
	QROW(48)
	QROW(64)
	QROW(80)
	QROW(96)
	QROW(112)
	PADDW   X8, X8
	PSUBW   X9, X8
	PCMPEQW X0, X0
	PSRLW   $15, X0 // 1
	PMADDWL X0, X8
	PSHUFL  $0x4E, X8, X1
	PADDL   X1, X8
	PSHUFL  $0xB1, X8, X1
	PADDL   X1, X8
	MOVL    X8, AX
	ADDL    $130, AX
	MOVQ    AX, ret+24(FP)
	RET

// SCAN moves natural position p of the levels to scan position i, widened.
#define SCAN(i, p) MOVWLSX (2*p)(SI), AX; MOVL AX, (4*i)(DI)

// func zigzagScan(nat *[64]int16, scan *[64]int32)
//
// The zigzag permutation, one load and one store a level; a line per eight
// scan positions.
TEXT ·zigzagScan(SB), NOSPLIT, $0-16
	MOVQ nat+0(FP), SI
	MOVQ scan+8(FP), DI
	SCAN(0, 0); SCAN(1, 1); SCAN(2, 8); SCAN(3, 16); SCAN(4, 9); SCAN(5, 2); SCAN(6, 3); SCAN(7, 10)
	SCAN(8, 17); SCAN(9, 24); SCAN(10, 32); SCAN(11, 25); SCAN(12, 18); SCAN(13, 11); SCAN(14, 4); SCAN(15, 5)
	SCAN(16, 12); SCAN(17, 19); SCAN(18, 26); SCAN(19, 33); SCAN(20, 40); SCAN(21, 48); SCAN(22, 41); SCAN(23, 34)
	SCAN(24, 27); SCAN(25, 20); SCAN(26, 13); SCAN(27, 6); SCAN(28, 7); SCAN(29, 14); SCAN(30, 21); SCAN(31, 28)
	SCAN(32, 35); SCAN(33, 42); SCAN(34, 49); SCAN(35, 56); SCAN(36, 57); SCAN(37, 50); SCAN(38, 43); SCAN(39, 36)
	SCAN(40, 29); SCAN(41, 22); SCAN(42, 15); SCAN(43, 23); SCAN(44, 30); SCAN(45, 37); SCAN(46, 44); SCAN(47, 51)
	SCAN(48, 58); SCAN(49, 59); SCAN(50, 52); SCAN(51, 45); SCAN(52, 38); SCAN(53, 31); SCAN(54, 39); SCAN(55, 46)
	SCAN(56, 53); SCAN(57, 60); SCAN(58, 61); SCAN(59, 54); SCAN(60, 47); SCAN(61, 55); SCAN(62, 62); SCAN(63, 63)
	RET

// ZEROS16 leaves in r a bit per level of the sixteen at off(SI), set where
// the level is zero. Signed saturation keeps a nonzero level nonzero through
// both packs.
#define ZEROS16(off, r) \
	MOVOU    off(SI), X0    \
	MOVOU    off+16(SI), X1 \
	MOVOU    off+32(SI), X2 \
	MOVOU    off+48(SI), X3 \
	PACKSSLW X1, X0         \
	PACKSSLW X3, X2         \
	PACKSSWB X2, X0         \
	PCMPEQB  X4, X0         \
	PMOVMSKB X0, r

// func nonzeroMask(levels *[64]int32) uint64
TEXT ·nonzeroMask(SB), NOSPLIT, $0-16
	MOVQ levels+0(FP), SI
	PXOR X4, X4
	ZEROS16(0, AX)
	ZEROS16(64, BX)
	ZEROS16(128, CX)
	ZEROS16(192, DX)
	SHLQ $16, BX
	SHLQ $32, CX
	SHLQ $48, DX
	ORQ  BX, AX
	ORQ  CX, AX
	ORQ  DX, AX
	NOTQ AX
	MOVQ AX, ret+8(FP)
	RET
