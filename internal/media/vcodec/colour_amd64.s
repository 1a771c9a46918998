#include "textflag.h"

// Eight-word constants, each used from memory: the four BT.601 multipliers
// less their whole part (359 = 256 + 103, 454 = 256 + 198).
DATA colourMul<>+0(SB)/8, $0x0067006700670067 // 103: red from Cr
DATA colourMul<>+8(SB)/8, $0x0067006700670067
DATA colourMul<>+16(SB)/8, $0x00C600C600C600C6 // 198: blue from Cb
DATA colourMul<>+24(SB)/8, $0x00C600C600C600C6
DATA colourMul<>+32(SB)/8, $0x0058005800580058 // 88: green from Cb
DATA colourMul<>+40(SB)/8, $0x0058005800580058
DATA colourMul<>+48(SB)/8, $0x00B700B700B700B7 // 183: green from Cr
DATA colourMul<>+56(SB)/8, $0x00B700B700B700B7
GLOBL colourMul<>(SB), RODATA|NOPTR, $64

// Constants held in registers across a row: the upsampler's rounding term
// with the chroma bias folded in (8 − 16·128), and the two byte masks that
// compact R G B 0 dwords.
DATA colourReg<>+0(SB)/8, $0xF808F808F808F808
DATA colourReg<>+8(SB)/8, $0xF808F808F808F808
DATA colourReg<>+16(SB)/8, $0x0000000000FFFFFF // bytes 0–2 of each half
DATA colourReg<>+24(SB)/8, $0x0000000000FFFFFF
DATA colourReg<>+32(SB)/8, $0x0000FFFFFF000000 // bytes 3–5 of each half
DATA colourReg<>+40(SB)/8, $0x0000FFFFFF000000
GLOBL colourReg<>(SB), RODATA|NOPTR, $48

// func blendRowSSE2(v *uint16, c0, c1 *uint8, ty, steps int)
//
// X0 and X1 hold the two weights in every word; a step widens eight samples
// of each row to words, multiplies and adds. 255·4 fits a word with room.
TEXT ·blendRowSSE2(SB), NOSPLIT, $0-40
	MOVQ    v+0(FP), DI
	MOVQ    c0+8(FP), SI
	MOVQ    c1+16(FP), DX
	MOVQ    ty+24(FP), AX
	MOVQ    steps+32(FP), CX
	MOVQ    $4, BX
	SUBQ    AX, BX
	MOVQ    BX, X0
	MOVQ    AX, X1
	PSHUFLW $0, X0, X0
	PSHUFLW $0, X1, X1
	PSHUFL  $0, X0, X0
	PSHUFL  $0, X1, X1
	PXOR    X15, X15

blend:
	MOVQ      (SI), X2
	MOVQ      (DX), X3
	PUNPCKLBW X15, X2
	PUNPCKLBW X15, X3
	PMULLW    X0, X2
	PMULLW    X1, X3
	PADDW     X3, X2
	MOVOU     X2, (DI)
	ADDQ      $8, SI
	ADDQ      $8, DX
	ADDQ      $16, DI
	DECQ      CX
	JNZ       blend
	RET

// UPSAMPLE leaves 16 columns of one chroma plane, less 128, in lo (columns
// 0–7) and hi (8–15): with a = V[k−1…], b = V[k…], c = V[k+1…] for the eight
// chroma columns under them, even columns are (a + 3b + 8) >> 4 and odd ones
// (3b + c + 8) >> 4. The sums stay under 4096, so taking the 128 off as
// 16·128 before an arithmetic shift is the same floor.
#define UPSAMPLE(v, lo, hi, t, u) \
	MOVOU     0(v), lo  \
	MOVOU     2(v), t   \
	MOVOU     4(v), u   \
	MOVO      t, hi     \
	PADDW     t, t      \
	PADDW     hi, t     \
	PADDW     X14, t    \
	PADDW     t, lo     \
	PADDW     t, u      \
	PSRAW     $4, lo    \
	PSRAW     $4, u     \
	MOVO      lo, hi    \
	PUNPCKLWL u, lo     \
	PUNPCKHWL u, hi

// BT601 turns eight pixels' luma y and centred chroma cb, cr into r, b and
// (in y) g, as words before the clamp. Every product fits a signed word
// (|c| ≤ 128, multipliers < 256), so PMULLW's low half is the product and
// PSRAW $8 its floor — the tables' 359c>>8 is c + (103c>>8), 454c>>8 is
// c + (198c>>8). cb and cr are consumed.
#define BT601(y, cb, cr, r, b) \
	MOVO   cr, r                    \
	PMULLW colourMul<>+0(SB), r     \
	PSRAW  $8, r                    \
	PADDW  cr, r                    \
	PADDW  y, r                     \
	MOVO   cb, b                    \
	PMULLW colourMul<>+16(SB), b    \
	PSRAW  $8, b                    \
	PADDW  cb, b                    \
	PADDW  y, b                     \
	PMULLW colourMul<>+32(SB), cb   \
	PSRAW  $8, cb                   \
	PMULLW colourMul<>+48(SB), cr   \
	PSRAW  $8, cr                   \
	PSUBW  cb, y                    \
	PSUBW  cr, y

// COMPACT squeezes the two R G B 0 dword pairs in x to six bytes and two
// zeros each: the second pixel of each half moves down a byte.
#define COMPACT(x, t) \
	MOVO  x, t    \
	PSRLQ $8, t   \
	PAND  X10, x  \
	PAND  X11, t  \
	POR   t, x

// func colourRowSSE2(dst, y *uint8, vcb, vcr *uint16, n int)
//
// A step is sixteen pixels: upsample both chroma rows, widen the luma, BT.601
// on each half in words, pack with unsigned saturation (clamp255), interleave
// to R G B 0 dwords, compact, and store 48 bytes six at a time — seven 8-byte
// stores, each covering the two zeros the one before it left, then two of 4
// bytes, overlapping, so that the step ends where its pixels do.
TEXT ·colourRowSSE2(SB), NOSPLIT, $0-40
	MOVQ  dst+0(FP), DI
	MOVQ  y+8(FP), SI
	MOVQ  vcb+16(FP), R8
	MOVQ  vcr+24(FP), R9
	MOVQ  n+32(FP), CX
	MOVOU colourReg<>+0(SB), X14
	MOVOU colourReg<>+16(SB), X10
	MOVOU colourReg<>+32(SB), X11
	PXOR  X15, X15

pixels:
	UPSAMPLE(R8, X0, X2, X6, X7) // Cb: X0, X2
	UPSAMPLE(R9, X1, X4, X6, X7) // Cr: X1, X4
	MOVOU     (SI), X3
	MOVO      X3, X5
	PUNPCKLBW X15, X3 // luma: X3, X5
	PUNPCKHBW X15, X5
	BT601(X3, X0, X1, X6, X7)
	BT601(X5, X2, X4, X8, X9)
	PACKUSWB  X8, X6 // R
	PACKUSWB  X5, X3 // G
	PACKUSWB  X9, X7 // B
	MOVO      X6, X0
	PUNPCKLBW X3, X0 // R G words, pixels 0–7
	PUNPCKHBW X3, X6 // pixels 8–15
	MOVO      X7, X1
	PUNPCKLBW X15, X1 // B 0 words
	PUNPCKHBW X15, X7
	MOVO      X0, X2
	PUNPCKLWL X1, X0 // R G B 0, pixels 0–3
	PUNPCKHWL X1, X2 // 4–7
	MOVO      X6, X4
	PUNPCKLWL X7, X6 // 8–11
	PUNPCKHWL X7, X4 // 12–15
	COMPACT(X0, X1)
	COMPACT(X2, X3)
	COMPACT(X6, X5)
	COMPACT(X4, X7)
	MOVQ      X0, 0(DI)
	MOVHPS    X0, 6(DI)
	MOVQ      X2, 12(DI)
	MOVHPS    X2, 18(DI)
	MOVQ      X6, 24(DI)
	MOVHPS    X6, 30(DI)
	MOVQ      X4, 36(DI)
	PSRLO     $8, X4
	MOVL      X4, 42(DI)
	PSRLO     $2, X4
	MOVL      X4, 44(DI)
	ADDQ      $16, SI
	ADDQ      $16, R8
	ADDQ      $16, R9
	ADDQ      $48, DI
	SUBQ      $16, CX
	JNZ       pixels
	RET
