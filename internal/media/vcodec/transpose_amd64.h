// TRANSPOSE turns the 8×8 words in r0–r7, a row a register, into columns:
// column 0…7 in r0, r2, r1, r6, r4, t0, r3, t1. It clobbers t0–t3.
// dct_amd64.s and recon_amd64.s both transpose with it.
#define TRANSPOSE(r0, r1, r2, r3, r4, r5, r6, r7, t0, t1, t2, t3) \
	MOVO       r0, t0  \
	PUNPCKLWL  r1, r0  \
	PUNPCKHWL  r1, t0  \
	MOVO       r2, t1  \
	PUNPCKLWL  r3, r2  \
	PUNPCKHWL  r3, t1  \
	MOVO       r4, t2  \
	PUNPCKLWL  r5, r4  \
	PUNPCKHWL  r5, t2  \
	MOVO       r6, t3  \
	PUNPCKLWL  r7, r6  \
	PUNPCKHWL  r7, t3  \
	MOVO       r0, r1  \
	PUNPCKLLQ  r2, r0  \
	PUNPCKHLQ  r2, r1  \
	MOVO       t0, r3  \
	PUNPCKLLQ  t1, t0  \
	PUNPCKHLQ  t1, r3  \
	MOVO       r4, r5  \
	PUNPCKLLQ  r6, r4  \
	PUNPCKHLQ  r6, r5  \
	MOVO       t2, r7  \
	PUNPCKLLQ  t3, t2  \
	PUNPCKHLQ  t3, r7  \
	MOVO       r0, r2  \
	PUNPCKLQDQ r4, r0  \
	PUNPCKHQDQ r4, r2  \
	MOVO       r1, r6  \
	PUNPCKLQDQ r5, r1  \
	PUNPCKHQDQ r5, r6  \
	MOVO       t0, r4  \
	PUNPCKLQDQ t2, r4  \
	PUNPCKHQDQ t2, t0  \
	MOVO       r3, t1  \
	PUNPCKLQDQ r7, r3  \
	PUNPCKHQDQ r7, t1
