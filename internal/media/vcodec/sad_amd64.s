#include "textflag.h"

// func sadWindowSSE2(cur *[8]uint64, pix *uint8, stride int, out *int32, nx, ny int) (bx, by int)
//
// The current block's rows stay in X0–X3, two to a register, for the whole
// window. A candidate is its eight rows loaded the same way into X4–X7, four
// PSADBW (each leaves one row's sum in either half), and four PADDQ to add
// the eight sums up. The candidates of one window row are adjacent bytes;
// the next window row starts stride further on. The running minimum is
// scalar and branch-free: R13 holds the smallest SAD so far, R14 where in
// out it is and AX how many window rows were left then; a candidate replaces
// it only when strictly smaller.
TEXT ·sadWindowSSE2(SB), NOSPLIT, $0-64
	MOVQ  cur+0(FP), AX
	MOVQ  pix+8(FP), SI
	MOVQ  stride+16(FP), DX
	MOVQ  out+24(FP), DI
	MOVQ  nx+32(FP), R9
	MOVQ  ny+40(FP), R10
	MOVOU 0(AX), X0
	MOVOU 16(AX), X1
	MOVOU 32(AX), X2
	MOVOU 48(AX), X3
	LEAQ  (DX)(DX*2), R8 // 3·stride
	MOVL  $0x7FFFFFFF, R13
	MOVQ  DI, R14
	MOVQ  R10, AX

row:
	MOVQ SI, R11 // the row's first candidate
	MOVQ R9, CX

candidate:
	LEAQ    (R11)(DX*4), BX // row 4
	MOVQ    (R11), X4
	MOVHPS  (R11)(DX*1), X4
	MOVQ    (R11)(DX*2), X5
	MOVHPS  (R11)(R8*1), X5
	MOVQ    (BX), X6
	MOVHPS  (BX)(DX*1), X6
	MOVQ    (BX)(DX*2), X7
	MOVHPS  (BX)(R8*1), X7
	PSADBW  X0, X4
	PSADBW  X1, X5
	PSADBW  X2, X6
	PSADBW  X3, X7
	PADDQ   X5, X4
	PADDQ   X7, X6
	PADDQ   X6, X4
	MOVHLPS X4, X5
	PADDQ   X5, X4
	MOVL    X4, (DI)
	MOVL    X4, R12
	CMPL    R12, R13
	CMOVLLT R12, R13
	CMOVQLT DI, R14
	CMOVQLT R10, AX
	INCQ    R11
	ADDQ    $4, DI
	DECQ    CX
	JNZ     candidate

	ADDQ DX, SI
	DECQ R10
	JNZ  row

	// by = ny − rows left; bx = (R14 − out)/4 − by·nx.
	MOVQ  ny+40(FP), BX
	SUBQ  AX, BX
	SUBQ  out+24(FP), R14
	SHRQ  $2, R14
	MOVQ  BX, CX
	IMULQ R9, CX
	SUBQ  CX, R14
	MOVQ  R14, bx+48(FP)
	MOVQ  BX, by+56(FP)
	RET
