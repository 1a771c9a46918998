#include "textflag.h"

// func sadRun(cur *[8]uint64, pix *uint8, stride int, out *int32, n int)
//
// The current block's rows stay in X0–X3, two to a register. A candidate is
// its eight rows loaded the same way into X4–X7, four PSADBW (each leaves one
// row's sum in either half), and four PADDQ to add the eight sums up.
TEXT ·sadRun(SB), NOSPLIT, $0-40
	MOVQ  cur+0(FP), AX
	MOVQ  pix+8(FP), SI
	MOVQ  stride+16(FP), DX
	MOVQ  out+24(FP), DI
	MOVQ  n+32(FP), CX
	MOVOU 0(AX), X0
	MOVOU 16(AX), X1
	MOVOU 32(AX), X2
	MOVOU 48(AX), X3
	LEAQ  (DX)(DX*2), R8 // 3·stride

candidate:
	LEAQ    (SI)(DX*4), BX // row 4
	MOVQ    (SI), X4
	MOVHPS  (SI)(DX*1), X4
	MOVQ    (SI)(DX*2), X5
	MOVHPS  (SI)(R8*1), X5
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
	INCQ    SI
	ADDQ    $4, DI
	DECQ    CX
	JNZ     candidate
	RET
