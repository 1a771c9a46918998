#include "textflag.h"
#include "transpose_amd64.h"

// func copyBlockSSE2(dst *uint8, dstStride int, src *uint8, srcStride int)
//
// A row is one 8-byte load and one 8-byte store, in order, as copyBlock's Go
// loop does it.
TEXT ·copyBlockSSE2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ dstStride+8(FP), DX
	MOVQ src+16(FP), SI
	MOVQ srcStride+24(FP), CX
	LEAQ (DX)(DX*2), R8
	LEAQ (CX)(CX*2), R9
	MOVQ (SI), X0
	MOVQ X0, (DI)
	MOVQ (SI)(CX*1), X1
	MOVQ X1, (DI)(DX*1)
	MOVQ (SI)(CX*2), X2
	MOVQ X2, (DI)(DX*2)
	MOVQ (SI)(R9*1), X3
	MOVQ X3, (DI)(R8*1)
	LEAQ (SI)(CX*4), SI
	LEAQ (DI)(DX*4), DI
	MOVQ (SI), X0
	MOVQ X0, (DI)
	MOVQ (SI)(CX*1), X1
	MOVQ X1, (DI)(DX*1)
	MOVQ (SI)(CX*2), X2
	MOVQ X2, (DI)(DX*2)
	MOVQ (SI)(R9*1), X3
	MOVQ X3, (DI)(R8*1)
	RET

// ADDROW stores clamp255(pred + res) for one row: the prediction's eight
// bytes widened to words in t, PADDSW with the residual's eight words,
// PACKUSWB. Every residual that reaches it plus a byte stays inside a word
// (TestIDCTMatrixBounds), so this is clamp255 of the sum. X15 is zero.
#define ADDROW(p, d, res, t) \
	MOVQ      p, t   \
	PUNPCKLBW X15, t \
	PADDSW    res, t \
	PACKUSWB  t, t   \
	MOVQ      t, d

// func addFlatSSE2(dst *uint8, dstStride int, pred *uint8, predStride int, v int16)
TEXT ·addFlatSSE2(SB), NOSPLIT, $0-34
	MOVQ    dst+0(FP), DI
	MOVQ    dstStride+8(FP), DX
	MOVQ    pred+16(FP), SI
	MOVQ    predStride+24(FP), CX
	MOVWQSX v+32(FP), AX
	MOVQ    AX, X0
	PSHUFLW $0, X0, X0
	PSHUFL  $0, X0, X0
	LEAQ    (DX)(DX*2), R8
	LEAQ    (CX)(CX*2), R9
	LEAQ    (DI)(DX*4), R10
	LEAQ    (SI)(CX*4), R11
	PXOR    X15, X15
	ADDROW((SI), (DI), X0, X1)
	ADDROW((SI)(CX*1), (DI)(DX*1), X0, X1)
	ADDROW((SI)(CX*2), (DI)(DX*2), X0, X1)
	ADDROW((SI)(R9*1), (DI)(R8*1), X0, X1)
	ADDROW((R11), (R10), X0, X1)
	ADDROW((R11)(CX*1), (R10)(DX*1), X0, X1)
	ADDROW((R11)(CX*2), (R10)(DX*2), X0, X1)
	ADDROW((R11)(R9*1), (R10)(R8*1), X0, X1)
	RET

// LOADROW packs row off/32 of the int32 coefficients at BX into words in x;
// every coefficient is in ±idctRange, so the pack is exact. It clobbers X8.
#define LOADROW(off, x) \
	MOVOU    off(BX), x     \
	MOVOU    off+16(BX), X8 \
	PACKSSLW X8, x

// ODD finishes outputs n and 7−n of a pass for both halves of the lines, at
// idctPairs offsets o13 and o57: O = the odd inputs' pairs (s1, s3) and
// (s5, s7) weighed by row n, then n = E + O and 7−n = E − O, with E and the
// rounding already in elo (lines 0–3) and ehi (4–7), shifted by s and packed
// to words — n into b, 7−n into elo. It clobbers a, c and ehi.
#define ODD(o13, o57, p13lo, p13hi, p57lo, p57hi, elo, ehi, a, b, c, s) \
	MOVOU    ·idctPairs+o13(SB), a \
	PMADDWL  p13lo, a              \
	MOVOU    ·idctPairs+o57(SB), b \
	PMADDWL  p57lo, b              \
	PADDL    b, a                  \
	MOVO     elo, b                \
	PADDL    a, b                  \
	PSUBL    a, elo                \
	PSRAL    $s, b                 \
	PSRAL    $s, elo               \
	MOVOU    ·idctPairs+o13(SB), a \
	PMADDWL  p13hi, a              \
	MOVOU    ·idctPairs+o57(SB), c \
	PMADDWL  p57hi, c              \
	PADDL    c, a                  \
	MOVO     ehi, c                \
	PADDL    a, c                  \
	PSUBL    a, ehi                \
	PSRAL    $s, c                 \
	PSRAL    $s, ehi               \
	PACKSSLW c, b                  \
	PACKSSLW ehi, elo

// PASS runs eight lines through idctLine and the descale by s, rounding r =
// 2^(s−1): input k of every line in x_k, a line a lane, and t0–t7 free.
// Inputs are interleaved into the pairs (s0, s4), (s2, s6), (s1, s3) and
// (s5, s7), lines 0–3 and 4–7 apart, for PMADDWD against idctPairs. The even
// half of output n is A ± C: A = 2^13·(s0 ± s4) with the rounding added, C
// the (s2, s6) term, rows 0 and 3 sharing one A and one C, rows 1 and 2 the
// other. Outputs 0…7 land in t5, t6, t7, x6, x2, x0, x4, x3 as words; AX is
// clobbered.
#define PASS(x0, x1, x2, x3, x4, x5, x6, x7, t0, t1, t2, t3, t4, t5, t6, t7, r, s) \
	MOVO      x0, t0                       \
	PUNPCKLWL x4, x0                       \
	PUNPCKHWL x4, t0                       \
	MOVO      x2, t1                       \
	PUNPCKLWL x6, x2                       \
	PUNPCKHWL x6, t1                       \
	MOVO      x1, t2                       \
	PUNPCKLWL x3, x1                       \
	PUNPCKHWL x3, t2                       \
	MOVO      x5, t3                       \
	PUNPCKLWL x7, x5                       \
	PUNPCKHWL x7, t3                       \
	MOVL      $r, AX                       \
	MOVQ      AX, t7                       \
	PSHUFL    $0, t7, t7                   \
	MOVOU     ·idctPairs+0(SB), x3         \
	PMADDWL   x0, x3                       \
	PADDL     t7, x3                       \
	MOVOU     ·idctPairs+32(SB), x4        \
	PMADDWL   x0, x4                       \
	PADDL     t7, x4                       \
	MOVOU     ·idctPairs+16(SB), x0        \
	PMADDWL   x2, x0                       \
	MOVOU     ·idctPairs+48(SB), x6        \
	PMADDWL   x2, x6                       \
	MOVO      x3, x2                       \
	PADDL     x0, x3                       \
	PSUBL     x0, x2                       \
	MOVO      x4, x0                       \
	PADDL     x6, x4                       \
	PSUBL     x6, x0                       \
	MOVOU     ·idctPairs+0(SB), x6         \
	PMADDWL   t0, x6                       \
	PADDL     t7, x6                       \
	MOVOU     ·idctPairs+32(SB), x7        \
	PMADDWL   t0, x7                       \
	PADDL     t7, x7                       \
	MOVOU     ·idctPairs+16(SB), t0        \
	PMADDWL   t1, t0                       \
	MOVOU     ·idctPairs+48(SB), t4        \
	PMADDWL   t1, t4                       \
	MOVO      x6, t1                       \
	PADDL     t0, x6                       \
	PSUBL     t0, t1                       \
	MOVO      x7, t0                       \
	PADDL     t4, x7                       \
	PSUBL     t4, t0                       \
	ODD(64, 128, x1, t2, x5, t3, x3, x6, t4, t5, t6, s)  \
	ODD(80, 144, x1, t2, x5, t3, x4, x7, t4, t6, t7, s)  \
	ODD(96, 160, x1, t2, x5, t3, x0, t0, t4, t7, x6, s)  \
	ODD(112, 176, x1, t2, x5, t3, x2, t1, t4, x6, x7, s)

// func idctAddSSE2(dst *uint8, dstStride int, pred *uint8, predStride int, coef *[64]int32)
//
// idct as two matrix products on words with 32-bit sums. A register holds
// one row of coefficients, so the column pass needs no transpose: its lines
// are the lanes. Its outputs, descaled by idctColShift = 14, are transposed
// for the row pass (descale idctRowShift = 18), whose outputs are
// transposed back into rows and added to the prediction.
TEXT ·idctAddSSE2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ dstStride+8(FP), DX
	MOVQ pred+16(FP), SI
	MOVQ predStride+24(FP), CX
	MOVQ coef+32(FP), BX
	LOADROW(0, X0)
	LOADROW(32, X1)
	LOADROW(64, X2)
	LOADROW(96, X3)
	LOADROW(128, X4)
	LOADROW(160, X5)
	LOADROW(192, X6)
	LOADROW(224, X7)

	// Columns: row k of the coefficients in X_k; row n of the output in
	// X13, X14, X15, X6, X2, X0, X4, X3.
	PASS(X0, X1, X2, X3, X4, X5, X6, X7, X8, X9, X10, X11, X12, X13, X14, X15, 8192, 14)
	TRANSPOSE(X13, X14, X15, X6, X2, X0, X4, X3, X1, X5, X7, X8)

	// Rows: column k of the column pass's output in X13, X15, X14, X4, X2,
	// X1, X6, X5; column n of the block in X10, X11, X12, X6, X14, X13, X2,
	// X4, and after the transpose row n in X10, X12, X11, X2, X14, X0, X6,
	// X1.
	PASS(X13, X15, X14, X4, X2, X1, X6, X5, X0, X3, X7, X8, X9, X10, X11, X12, 131072, 18)
	TRANSPOSE(X10, X11, X12, X6, X14, X13, X2, X4, X0, X1, X3, X5)

	PXOR X15, X15
	LEAQ (DX)(DX*2), R8
	LEAQ (CX)(CX*2), R9
	LEAQ (DI)(DX*4), R10
	LEAQ (SI)(CX*4), R11
	ADDROW((SI), (DI), X10, X3)
	ADDROW((SI)(CX*1), (DI)(DX*1), X12, X3)
	ADDROW((SI)(CX*2), (DI)(DX*2), X11, X3)
	ADDROW((SI)(R9*1), (DI)(R8*1), X2, X3)
	ADDROW((R11), (R10), X14, X3)
	ADDROW((R11)(CX*1), (R10)(DX*1), X0, X3)
	ADDROW((R11)(CX*2), (R10)(DX*2), X6, X3)
	ADDROW((R11)(R9*1), (R10)(R8*1), X1, X3)
	RET
