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

// The encode side's conversion, RGB to YCbCr 4:2:0: BT.601 multipliers as
// eight-word constants used from memory (Cb and Cr carry 128 as a shift),
// the words PMADDWL adds adjacent pairs with, and the rounding term of a
// 2×2 box with its four chroma biases folded in (2 + 4·128).
DATA fromMul<>+0(SB)/8, $0x004D004D004D004D // 77: luma from red
DATA fromMul<>+8(SB)/8, $0x004D004D004D004D
DATA fromMul<>+16(SB)/8, $0x0096009600960096 // 150: luma from green
DATA fromMul<>+24(SB)/8, $0x0096009600960096
DATA fromMul<>+32(SB)/8, $0x001D001D001D001D // 29: luma from blue
DATA fromMul<>+40(SB)/8, $0x001D001D001D001D
DATA fromMul<>+48(SB)/8, $0x002B002B002B002B // 43: Cb from red
DATA fromMul<>+56(SB)/8, $0x002B002B002B002B
DATA fromMul<>+64(SB)/8, $0x0055005500550055 // 85: Cb from green
DATA fromMul<>+72(SB)/8, $0x0055005500550055
DATA fromMul<>+80(SB)/8, $0x006B006B006B006B // 107: Cr from green
DATA fromMul<>+88(SB)/8, $0x006B006B006B006B
DATA fromMul<>+96(SB)/8, $0x0015001500150015 // 21: Cr from blue
DATA fromMul<>+104(SB)/8, $0x0015001500150015
DATA fromMul<>+112(SB)/8, $0x0001000100010001 // pair sums
DATA fromMul<>+120(SB)/8, $0x0001000100010001
DATA fromMul<>+128(SB)/8, $0x0202020202020202 // 514
DATA fromMul<>+136(SB)/8, $0x0202020202020202
GLOBL fromMul<>(SB), RODATA|NOPTR, $144

// Held in X13–X15 across the rows: the two byte masks that spread two
// packed pixels of a quadword to R G B 0 dwords, and the low byte of a dword.
DATA fromMask<>+0(SB)/8, $0x0000000000FFFFFF // bytes 0–2 of each half
DATA fromMask<>+8(SB)/8, $0x0000000000FFFFFF
DATA fromMask<>+16(SB)/8, $0x00FFFFFF00000000 // bytes 4–6 of each half
DATA fromMask<>+24(SB)/8, $0x00FFFFFF00000000
DATA fromMask<>+32(SB)/8, $0x000000FF000000FF
DATA fromMask<>+40(SB)/8, $0x000000FF000000FF
GLOBL fromMask<>(SB), RODATA|NOPTR, $48

// LOAD4 puts the four pixels at off(src) in x, two to a half, each half's
// pair in its low six bytes; it reads off(src) to off+13(src).
#define LOAD4(off, src, x) \
	MOVQ   off(src), x \
	MOVHPS off+6(src), x

// LOAD4END is LOAD4 reading no byte past the twelve: the second pair comes
// from two bytes earlier, shifted down.
#define LOAD4END(off, src, x, t) \
	MOVQ       off(src), x   \
	MOVQ       off+4(src), t \
	PSRLQ      $16, t        \
	PUNPCKLQDQ t, x

// SPREAD is colour_amd64.s's COMPACT undone: the second pixel of each half
// moves up a byte, leaving R G B 0 dwords.
#define SPREAD(x, t) \
	MOVO  x, t    \
	PSLLQ $8, t   \
	PAND  X13, x  \
	PAND  X14, t  \
	POR   t, x

// CONVERT takes the eight pixels loaded in X0 and X1 to luma words in y and
// the pair sums of Cb − 128 and Cr − 128 in cb and cr, four dwords each. In
// words, 77r + 150g + 29b stays under 2^16 and the chroma sums, whose
// magnitudes are at most 128·255, fit a signed word, so PMULLW's wrapping
// arithmetic is exact and PSRLW, PSRAW $8 are the Go code's >> 8: no
// clamp, as 77 + 150 + 29 = 43 + 85 + 128 = 128 + 107 + 21 = 256. X0–X3 are
// consumed.
#define CONVERT(y, cb, cr) \
	SPREAD(X0, X2)                    \
	SPREAD(X1, X2)                    \
	MOVO     X0, cr                   \
	PAND     X15, cr                  \
	MOVO     X1, X2                   \
	PAND     X15, X2                  \
	PACKSSLW X2, cr                   \
	MOVO     X0, X3                   \
	PSRLL    $8, X3                   \
	PAND     X15, X3                  \
	MOVO     X1, X2                   \
	PSRLL    $8, X2                   \
	PAND     X15, X2                  \
	PACKSSLW X2, X3                   \
	PSRLL    $16, X0                  \
	PSRLL    $16, X1                  \
	PACKSSLW X1, X0                   \
	MOVO     cr, y                    \
	PMULLW   fromMul<>+0(SB), y       \
	MOVO     X3, X1                   \
	PMULLW   fromMul<>+16(SB), X1     \
	PADDW    X1, y                    \
	MOVO     X0, X1                   \
	PMULLW   fromMul<>+32(SB), X1     \
	PADDW    X1, y                    \
	PSRLW    $8, y                    \
	MOVO     X0, cb                   \
	PSLLW    $7, cb                   \
	MOVO     cr, X1                   \
	PMULLW   fromMul<>+48(SB), X1     \
	PSUBW    X1, cb                   \
	MOVO     X3, X1                   \
	PMULLW   fromMul<>+64(SB), X1     \
	PSUBW    X1, cb                   \
	PSRAW    $8, cb                   \
	PMADDWL  fromMul<>+112(SB), cb    \
	PSLLW    $7, cr                   \
	PMULLW   fromMul<>+80(SB), X3     \
	PSUBW    X3, cr                   \
	PMULLW   fromMul<>+96(SB), X0     \
	PSUBW    X0, cr                   \
	PSRAW    $8, cr                   \
	PMADDWL  fromMul<>+112(SB), cr

// ROW converts the sixteen pixels at src: luma to dst, and the pair sums of
// Cb − 128 and Cr − 128 to X6 and X7, eight words each.
#define ROW(src, dst) \
	LOAD4(0, src, X0)          \
	LOAD4(12, src, X1)         \
	CONVERT(X5, X6, X7)        \
	LOAD4(24, src, X0)         \
	LOAD4END(36, src, X1, X2)  \
	CONVERT(X8, X9, X10)       \
	PACKUSWB X8, X5            \
	MOVOU    X5, (dst)         \
	PACKSSLW X9, X6            \
	PACKSSLW X10, X7

// func fromRowsSSE2(y0, y1, cb, cr, s0, s1 *uint8, n int)
//
// A step is sixteen pixels of each RGB row: both rows' luma, then the eight
// 2×2 boxes of each chroma, (Σ + 514) >> 2 over the four pair sums' halves.
TEXT ·fromRowsSSE2(SB), NOSPLIT, $0-56
	MOVQ  y0+0(FP), DI
	MOVQ  y1+8(FP), R8
	MOVQ  cb+16(FP), R9
	MOVQ  cr+24(FP), R10
	MOVQ  s0+32(FP), SI
	MOVQ  s1+40(FP), DX
	MOVQ  n+48(FP), CX
	MOVOU fromMask<>+0(SB), X13
	MOVOU fromMask<>+16(SB), X14
	MOVOU fromMask<>+32(SB), X15

boxes:
	ROW(SI, DI)
	MOVO     X6, X11
	MOVO     X7, X12
	ROW(DX, R8)
	PADDW    X11, X6
	PADDW    X12, X7
	PADDW    fromMul<>+128(SB), X6
	PADDW    fromMul<>+128(SB), X7
	PSRAW    $2, X6
	PSRAW    $2, X7
	PACKUSWB X6, X6
	PACKUSWB X7, X7
	MOVQ     X6, (R9)
	MOVQ     X7, (R10)
	ADDQ     $48, SI
	ADDQ     $48, DX
	ADDQ     $16, DI
	ADDQ     $16, R8
	ADDQ     $8, R9
	ADDQ     $8, R10
	SUBQ     $16, CX
	JNZ      boxes
	RET
