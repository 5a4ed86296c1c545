#include "textflag.h"

// AVX2 by-direction rows of the split kernels: 4 cells per pass, each cell
// evaluated with exactly the floating-point operations, in exactly the
// order, of trtRowSoA / srtRowSoA (no FMA: a fused multiply-add rounds
// once where the Go rows round twice). Commuted operands of an addition or
// multiplication do not change the result.
//
// Registers of a pass:
//   SI, DI   input / output element of the current cell block
//   R8, R9   the signed per-direction element offsets ioff, ooff
//   CX       cell blocks left
//   Y0       rho        Y1, Y2, Y3   ux, uy, uz
//   Y5       usq        Y6, Y7       w1r, w2r
//   Y14, Y15 le, lo (TRT) or omega, 1-omega (SRT)

// Direction numbers of internal/lattice.
#define dC 0
#define dN 1
#define dS 2
#define dW 3
#define dE 4
#define dT 5
#define dB 6
#define dNE 7
#define dNW 8
#define dSE 9
#define dSW 10
#define dTN 11
#define dTS 12
#define dTE 13
#define dTW 14
#define dBN 15
#define dBS 16
#define dBE 17
#define dBW 18

DATA consts<>+0(SB)/8, $0x3ff0000000000000   // 1.0
DATA consts<>+8(SB)/8, $0x3ff0000000000000
DATA consts<>+16(SB)/8, $0x3ff0000000000000
DATA consts<>+24(SB)/8, $0x3ff0000000000000
DATA consts<>+32(SB)/8, $0x3fe0000000000000  // 0.5
DATA consts<>+40(SB)/8, $0x3fe0000000000000
DATA consts<>+48(SB)/8, $0x3fe0000000000000
DATA consts<>+56(SB)/8, $0x3fe0000000000000
DATA consts<>+64(SB)/8, $0x3ff8000000000000  // 1.5
DATA consts<>+72(SB)/8, $0x3ff8000000000000
DATA consts<>+80(SB)/8, $0x3ff8000000000000
DATA consts<>+88(SB)/8, $0x3ff8000000000000
DATA consts<>+96(SB)/8, $0x4008000000000000  // 3.0
DATA consts<>+104(SB)/8, $0x4008000000000000
DATA consts<>+112(SB)/8, $0x4008000000000000
DATA consts<>+120(SB)/8, $0x4008000000000000
DATA consts<>+128(SB)/8, $0x3fd5555555555555 // 1.0 / 3.0
DATA consts<>+136(SB)/8, $0x3fd5555555555555
DATA consts<>+144(SB)/8, $0x3fd5555555555555
DATA consts<>+152(SB)/8, $0x3fd5555555555555
DATA consts<>+160(SB)/8, $0x3fac71c71c71c71c // 1.0 / 18.0
DATA consts<>+168(SB)/8, $0x3fac71c71c71c71c
DATA consts<>+176(SB)/8, $0x3fac71c71c71c71c
DATA consts<>+184(SB)/8, $0x3fac71c71c71c71c
DATA consts<>+192(SB)/8, $0x3f9c71c71c71c71c // 1.0 / 36.0
DATA consts<>+200(SB)/8, $0x3f9c71c71c71c71c
DATA consts<>+208(SB)/8, $0x3f9c71c71c71c71c
DATA consts<>+216(SB)/8, $0x3f9c71c71c71c71c
GLOBL consts<>(SB), RODATA|NOPTR, $224

#define ONE consts<>+0(SB)
#define HALF consts<>+32(SB)
#define THREEHALF consts<>+64(SB)
#define THREE consts<>+96(SB)
#define W0 consts<>+128(SB)
#define W1 consts<>+160(SB)
#define W2 consts<>+192(SB)

#define LOAD(d, y) MOVQ d*8(R8), R10; VMOVUPD (SI)(R10*8), y
#define STORE(y, d) MOVQ d*8(R9), R11; VMOVUPD y, (DI)(R11*8)

// MOMENTS loads each of the 19 pulled PDFs once and accumulates rho, ux,
// uy and uz in the order of their Go expressions; a PDF an accumulator
// needs later than rho stays in a register until its turn (Y5-Y12 hold S,
// W, B, NW, SE, SW, TS, TW). It ends with rho, the velocity, usq, w1r and
// w2r in their registers.
#define MOMENTS \
	LOAD(dC, Y0); \
	LOAD(dN, Y2); VADDPD Y2, Y0, Y0; \
	LOAD(dS, Y5); VADDPD Y5, Y0, Y0; \
	LOAD(dW, Y6); VADDPD Y6, Y0, Y0; \
	LOAD(dE, Y1); VADDPD Y1, Y0, Y0; \
	LOAD(dT, Y3); VADDPD Y3, Y0, Y0; \
	LOAD(dB, Y7); VADDPD Y7, Y0, Y0; \
	LOAD(dNE, Y4); VADDPD Y4, Y0, Y0; VADDPD Y4, Y1, Y1; VADDPD Y4, Y2, Y2; \
	LOAD(dNW, Y8); VADDPD Y8, Y0, Y0; VADDPD Y8, Y2, Y2; \
	LOAD(dSE, Y9); VADDPD Y9, Y0, Y0; VADDPD Y9, Y1, Y1; \
	LOAD(dSW, Y10); VADDPD Y10, Y0, Y0; \
	LOAD(dTN, Y4); VADDPD Y4, Y0, Y0; VADDPD Y4, Y2, Y2; VADDPD Y4, Y3, Y3; \
	LOAD(dTS, Y11); VADDPD Y11, Y0, Y0; VADDPD Y11, Y3, Y3; \
	LOAD(dTE, Y4); VADDPD Y4, Y0, Y0; VADDPD Y4, Y1, Y1; VADDPD Y4, Y3, Y3; \
	LOAD(dTW, Y12); VADDPD Y12, Y0, Y0; VADDPD Y12, Y3, Y3; VSUBPD Y7, Y3, Y3; \
	LOAD(dBN, Y4); VADDPD Y4, Y0, Y0; VADDPD Y4, Y2, Y2; \
	VSUBPD Y5, Y2, Y2; VSUBPD Y9, Y2, Y2; VSUBPD Y10, Y2, Y2; VSUBPD Y11, Y2, Y2; \
	VSUBPD Y4, Y3, Y3; \
	LOAD(dBS, Y4); VADDPD Y4, Y0, Y0; VSUBPD Y4, Y2, Y2; VSUBPD Y4, Y3, Y3; \
	LOAD(dBE, Y4); VADDPD Y4, Y0, Y0; VADDPD Y4, Y1, Y1; \
	VSUBPD Y6, Y1, Y1; VSUBPD Y8, Y1, Y1; VSUBPD Y10, Y1, Y1; VSUBPD Y12, Y1, Y1; \
	VSUBPD Y4, Y3, Y3; \
	LOAD(dBW, Y4); VADDPD Y4, Y0, Y0; VSUBPD Y4, Y1, Y1; VSUBPD Y4, Y3, Y3; \
	VMOVUPD ONE, Y4; VDIVPD Y0, Y4, Y4; \
	VMULPD Y4, Y1, Y1; VMULPD Y4, Y2, Y2; VMULPD Y4, Y3, Y3; \
	VMULPD Y1, Y1, Y5; VMULPD Y2, Y2, Y6; VADDPD Y6, Y5, Y5; \
	VMULPD Y3, Y3, Y6; VADDPD Y6, Y5, Y5; VMULPD THREEHALF, Y5, Y5; \
	VMULPD W1, Y0, Y6; VMULPD W2, Y0, Y7

// FEQ leaves, for the dot product d = e_a.u and the weight wr = w_a rho of
// a direction pair, the symmetric equilibrium part in Y9 and the
// antisymmetric one in Y8.
#define FEQ(wr, d) \
	VMULPD THREE, d, Y8; \
	VMULPD HALF, Y8, Y9; VMULPD Y8, Y9, Y9; \
	VADDPD ONE, Y9, Y9; VSUBPD Y5, Y9, Y9; VMULPD wr, Y9, Y9; \
	VMULPD wr, Y8, Y8

// TRT_PAIR is trtPairVals for directions a and b.
#define TRT_PAIR(a, b, wr, d) \
	FEQ(wr, d); \
	LOAD(a, Y10); LOAD(b, Y11); \
	VADDPD Y11, Y10, Y12; VMULPD HALF, Y12, Y12; \
	VSUBPD Y11, Y10, Y13; VMULPD HALF, Y13, Y13; \
	VSUBPD Y9, Y12, Y12; VMULPD Y14, Y12, Y12; \
	VSUBPD Y8, Y13, Y13; VMULPD Y15, Y13, Y13; \
	VADDPD Y12, Y10, Y10; VADDPD Y13, Y10, Y10; \
	VADDPD Y12, Y11, Y11; VSUBPD Y13, Y11, Y11; \
	STORE(Y10, a); STORE(Y11, b)

// SRT_PAIR is srtPairVals for directions a and b.
#define SRT_PAIR(a, b, wr, d) \
	FEQ(wr, d); \
	VADDPD Y8, Y9, Y12; VMULPD Y14, Y12, Y12; \
	VSUBPD Y8, Y9, Y13; VMULPD Y14, Y13, Y13; \
	LOAD(a, Y10); VMULPD Y15, Y10, Y10; VADDPD Y12, Y10, Y10; \
	LOAD(b, Y11); VMULPD Y15, Y11, Y11; VADDPD Y13, Y11, Y11; \
	STORE(Y10, a); STORE(Y11, b)

// PAIRS relaxes the nine direction pairs with the given pair macro; Y8
// receives each compound dot product before the macro overwrites it.
#define PAIRS(PAIR) \
	PAIR(dE, dW, Y6, Y1); \
	PAIR(dN, dS, Y6, Y2); \
	PAIR(dT, dB, Y6, Y3); \
	VADDPD Y2, Y1, Y8; PAIR(dNE, dSW, Y7, Y8); \
	VSUBPD Y1, Y2, Y8; PAIR(dNW, dSE, Y7, Y8); \
	VADDPD Y3, Y2, Y8; PAIR(dTN, dBS, Y7, Y8); \
	VSUBPD Y2, Y3, Y8; PAIR(dTS, dBN, Y7, Y8); \
	VADDPD Y3, Y1, Y8; PAIR(dTE, dBW, Y7, Y8); \
	VSUBPD Y1, Y3, Y8; PAIR(dTW, dBE, Y7, Y8)

#define PROLOGUE \
	MOVQ in+0(FP), SI; \
	MOVQ out+8(FP), DI; \
	MOVQ ioff+16(FP), R8; \
	MOVQ ooff+24(FP), R9; \
	MOVQ n+32(FP), CX; \
	SHRQ $2, CX

// func trtRowAVX2(in, out *float64, ioff, ooff *[19]int, n int, le, lo float64)
TEXT ·trtRowAVX2(SB), NOSPLIT, $0-56
	PROLOGUE
	JZ   trtDone
	VBROADCASTSD le+40(FP), Y14
	VBROADCASTSD lo+48(FP), Y15

trtLoop:
	MOMENTS

	// outC = fC + le*(fC - w0r*(1-usq))
	VMOVUPD ONE, Y8
	VSUBPD  Y5, Y8, Y8
	VMULPD  W0, Y0, Y9
	VMULPD  Y9, Y8, Y8
	LOAD(dC, Y10)
	VSUBPD  Y8, Y10, Y8
	VMULPD  Y14, Y8, Y8
	VADDPD  Y8, Y10, Y10
	STORE(Y10, dC)

	PAIRS(TRT_PAIR)

	ADDQ $32, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  trtLoop
	VZEROUPPER

trtDone:
	RET

// func srtRowAVX2(in, out *float64, ioff, ooff *[19]int, n int, omega, om1 float64)
TEXT ·srtRowAVX2(SB), NOSPLIT, $0-56
	PROLOGUE
	JZ   srtDone
	VBROADCASTSD omega+40(FP), Y14
	VBROADCASTSD om1+48(FP), Y15

srtLoop:
	MOMENTS

	// outC = om1*fC + omega*w0r*(1-usq)
	VMOVUPD ONE, Y8
	VSUBPD  Y5, Y8, Y8
	VMULPD  W0, Y0, Y9
	VMULPD  Y14, Y9, Y9
	VMULPD  Y8, Y9, Y9
	LOAD(dC, Y10)
	VMULPD  Y15, Y10, Y10
	VADDPD  Y9, Y10, Y10
	STORE(Y10, dC)

	PAIRS(SRT_PAIR)

	ADDQ $32, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  srtLoop
	VZEROUPPER

srtDone:
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET
