#include "textflag.h"

// AVX2 by-direction rows of the split kernels: 4 cells per pass, each cell
// evaluated with exactly the floating-point operations, in exactly the
// order, of trtRowSoA / srtRowSoA (no FMA: a fused multiply-add rounds
// once where the Go rows round twice). Commuted operands of an addition or
// multiplication do not change the result.
//
// A row of n cells takes n/4 full passes and, when n%4 is not zero, one
// masked final pass over the n%4 cells left: its loads and stores are
// VMASKMOVPD under the lane mask tailmask<>[n%4], whose lanes 0 to
// n%4-1 are set. A masked-off lane is neither read nor written (nor can it
// fault); it computes on zeros, and the Inf or NaN it gets is discarded
// without trapping (Go runs with every floating-point exception masked).
// Each lane of the masked pass runs the operations of a full pass, so the
// row gives the same bits for every n.
//
// Registers of a pass:
//   SI, DI   input / output element of the current cell block
//   R8, R9   the signed per-direction element offsets ioff, ooff
//   CX       full passes left   DX   n%4, the cells of the masked pass
//   Y0       rho        Y1, Y2, Y3   ux, uy, uz
//   Y5       usq        Y6, Y7       w1r, w2r
//   Y14, Y15 le, lo (TRT) or omega, 1-omega (SRT)
//   Y13      the lane mask of the masked pass during MOMENTS (which does
//            not use Y13), Y4 after it (1/rho is dead once MOMENTS ends,
//            and no pair touches Y4; SRT_PAIR keeps Y13 live)

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

// tailmask<>[k] sets the sign bit, which selects a lane of VMASKMOVPD,
// in lanes 0 to k-1; entry 0 is never loaded.
DATA tailmask<>+32(SB)/8, $-1
DATA tailmask<>+64(SB)/8, $-1
DATA tailmask<>+72(SB)/8, $-1
DATA tailmask<>+96(SB)/8, $-1
DATA tailmask<>+104(SB)/8, $-1
DATA tailmask<>+112(SB)/8, $-1
GLOBL tailmask<>(SB), RODATA|NOPTR, $128

// The loads and stores of a pass: LOAD and STORE move all four lanes;
// LOADM13 (in MOMENTS), LOADM4 and STOREM4 (after it) only the lanes of
// the mask in Y13 or Y4.
#define LOAD(d, y) MOVQ d*8(R8), R10; VMOVUPD (SI)(R10*8), y
#define STORE(y, d) MOVQ d*8(R9), R11; VMOVUPD y, (DI)(R11*8)
#define LOADM13(d, y) MOVQ d*8(R8), R10; VMASKMOVPD (SI)(R10*8), Y13, y
#define LOADM4(d, y) MOVQ d*8(R8), R10; VMASKMOVPD (SI)(R10*8), Y4, y
#define STOREM4(y, d) MOVQ d*8(R9), R11; VMASKMOVPD y, Y4, (DI)(R11*8)

// MOMENTS loads, with LD, each of the 19 pulled PDFs once and accumulates
// rho, ux, uy and uz in the order of their Go expressions; a PDF an
// accumulator needs later than rho stays in a register until its turn
// (Y5-Y12 hold S, W, B, NW, SE, SW, TS, TW). It ends with rho, the
// velocity, usq, w1r and w2r in their registers.
#define MOMENTS(LD) \
	LD(dC, Y0); \
	LD(dN, Y2); VADDPD Y2, Y0, Y0; \
	LD(dS, Y5); VADDPD Y5, Y0, Y0; \
	LD(dW, Y6); VADDPD Y6, Y0, Y0; \
	LD(dE, Y1); VADDPD Y1, Y0, Y0; \
	LD(dT, Y3); VADDPD Y3, Y0, Y0; \
	LD(dB, Y7); VADDPD Y7, Y0, Y0; \
	LD(dNE, Y4); VADDPD Y4, Y0, Y0; VADDPD Y4, Y1, Y1; VADDPD Y4, Y2, Y2; \
	LD(dNW, Y8); VADDPD Y8, Y0, Y0; VADDPD Y8, Y2, Y2; \
	LD(dSE, Y9); VADDPD Y9, Y0, Y0; VADDPD Y9, Y1, Y1; \
	LD(dSW, Y10); VADDPD Y10, Y0, Y0; \
	LD(dTN, Y4); VADDPD Y4, Y0, Y0; VADDPD Y4, Y2, Y2; VADDPD Y4, Y3, Y3; \
	LD(dTS, Y11); VADDPD Y11, Y0, Y0; VADDPD Y11, Y3, Y3; \
	LD(dTE, Y4); VADDPD Y4, Y0, Y0; VADDPD Y4, Y1, Y1; VADDPD Y4, Y3, Y3; \
	LD(dTW, Y12); VADDPD Y12, Y0, Y0; VADDPD Y12, Y3, Y3; VSUBPD Y7, Y3, Y3; \
	LD(dBN, Y4); VADDPD Y4, Y0, Y0; VADDPD Y4, Y2, Y2; \
	VSUBPD Y5, Y2, Y2; VSUBPD Y9, Y2, Y2; VSUBPD Y10, Y2, Y2; VSUBPD Y11, Y2, Y2; \
	VSUBPD Y4, Y3, Y3; \
	LD(dBS, Y4); VADDPD Y4, Y0, Y0; VSUBPD Y4, Y2, Y2; VSUBPD Y4, Y3, Y3; \
	LD(dBE, Y4); VADDPD Y4, Y0, Y0; VADDPD Y4, Y1, Y1; \
	VSUBPD Y6, Y1, Y1; VSUBPD Y8, Y1, Y1; VSUBPD Y10, Y1, Y1; VSUBPD Y12, Y1, Y1; \
	VSUBPD Y4, Y3, Y3; \
	LD(dBW, Y4); VADDPD Y4, Y0, Y0; VSUBPD Y4, Y1, Y1; VSUBPD Y4, Y3, Y3; \
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
#define TRT_PAIR(LD, ST, a, b, wr, d) \
	FEQ(wr, d); \
	LD(a, Y10); LD(b, Y11); \
	VADDPD Y11, Y10, Y12; VMULPD HALF, Y12, Y12; \
	VSUBPD Y11, Y10, Y13; VMULPD HALF, Y13, Y13; \
	VSUBPD Y9, Y12, Y12; VMULPD Y14, Y12, Y12; \
	VSUBPD Y8, Y13, Y13; VMULPD Y15, Y13, Y13; \
	VADDPD Y12, Y10, Y10; VADDPD Y13, Y10, Y10; \
	VADDPD Y12, Y11, Y11; VSUBPD Y13, Y11, Y11; \
	ST(Y10, a); ST(Y11, b)

// SRT_PAIR is srtPairVals for directions a and b.
#define SRT_PAIR(LD, ST, a, b, wr, d) \
	FEQ(wr, d); \
	VADDPD Y8, Y9, Y12; VMULPD Y14, Y12, Y12; \
	VSUBPD Y8, Y9, Y13; VMULPD Y14, Y13, Y13; \
	LD(a, Y10); VMULPD Y15, Y10, Y10; VADDPD Y12, Y10, Y10; \
	LD(b, Y11); VMULPD Y15, Y11, Y11; VADDPD Y13, Y11, Y11; \
	ST(Y10, a); ST(Y11, b)

// PAIRS relaxes the nine direction pairs with the given pair macro and
// loads and stores; Y8 receives each compound dot product before the
// macro overwrites it.
#define PAIRS(PAIR, LD, ST) \
	PAIR(LD, ST, dE, dW, Y6, Y1); \
	PAIR(LD, ST, dN, dS, Y6, Y2); \
	PAIR(LD, ST, dT, dB, Y6, Y3); \
	VADDPD Y2, Y1, Y8; PAIR(LD, ST, dNE, dSW, Y7, Y8); \
	VSUBPD Y1, Y2, Y8; PAIR(LD, ST, dNW, dSE, Y7, Y8); \
	VADDPD Y3, Y2, Y8; PAIR(LD, ST, dTN, dBS, Y7, Y8); \
	VSUBPD Y2, Y3, Y8; PAIR(LD, ST, dTS, dBN, Y7, Y8); \
	VADDPD Y3, Y1, Y8; PAIR(LD, ST, dTE, dBW, Y7, Y8); \
	VSUBPD Y1, Y3, Y8; PAIR(LD, ST, dTW, dBE, Y7, Y8)

// TRT_RELAX is the TRT update after MOMENTS, with the given loads and
// stores: outC = fC + le*(fC - w0r*(1-usq)), then the pairs.
#define TRT_RELAX(LD, ST) \
	VMOVUPD ONE, Y8; VSUBPD Y5, Y8, Y8; \
	VMULPD W0, Y0, Y9; VMULPD Y9, Y8, Y8; \
	LD(dC, Y10); VSUBPD Y8, Y10, Y8; VMULPD Y14, Y8, Y8; VADDPD Y8, Y10, Y10; \
	ST(Y10, dC); \
	PAIRS(TRT_PAIR, LD, ST)

// SRT_RELAX is the SRT update after MOMENTS, with the given loads and
// stores: outC = om1*fC + omega*w0r*(1-usq), then the pairs.
#define SRT_RELAX(LD, ST) \
	VMOVUPD ONE, Y8; VSUBPD Y5, Y8, Y8; \
	VMULPD W0, Y0, Y9; VMULPD Y14, Y9, Y9; VMULPD Y8, Y9, Y9; \
	LD(dC, Y10); VMULPD Y15, Y10, Y10; VADDPD Y9, Y10, Y10; \
	ST(Y10, dC); \
	PAIRS(SRT_PAIR, LD, ST)

#define PROLOGUE \
	MOVQ in+0(FP), SI; \
	MOVQ out+8(FP), DI; \
	MOVQ ioff+16(FP), R8; \
	MOVQ ooff+24(FP), R9; \
	MOVQ n+32(FP), CX; \
	MOVQ CX, DX; \
	ANDQ $3, DX; \
	SHRQ $2, CX

// NEXT advances to the next cell block and counts the pass.
#define NEXT \
	ADDQ $32, SI; \
	ADDQ $32, DI; \
	DECQ CX

// TAILMASK loads tailmask<>[DX] into Y13.
#define TAILMASK \
	SHLQ $5, DX; \
	LEAQ tailmask<>(SB), R12; \
	VMOVUPD (R12)(DX*1), Y13

// func trtRowAVX2(in, out *float64, ioff, ooff *[19]int, n int, le, lo float64)
TEXT ·trtRowAVX2(SB), NOSPLIT, $0-56
	PROLOGUE
	VBROADCASTSD le+40(FP), Y14
	VBROADCASTSD lo+48(FP), Y15
	TESTQ CX, CX
	JZ    trtTail

trtLoop:
	MOMENTS(LOAD)
	TRT_RELAX(LOAD, STORE)
	NEXT
	JNZ trtLoop

trtTail:
	TESTQ DX, DX
	JZ    trtDone
	TAILMASK
	MOMENTS(LOADM13)
	VMOVAPD Y13, Y4
	TRT_RELAX(LOADM4, STOREM4)

trtDone:
	VZEROUPPER
	RET

// func srtRowAVX2(in, out *float64, ioff, ooff *[19]int, n int, omega, om1 float64)
TEXT ·srtRowAVX2(SB), NOSPLIT, $0-56
	PROLOGUE
	VBROADCASTSD omega+40(FP), Y14
	VBROADCASTSD om1+48(FP), Y15
	TESTQ CX, CX
	JZ    srtTail

srtLoop:
	MOMENTS(LOAD)
	SRT_RELAX(LOAD, STORE)
	NEXT
	JNZ srtLoop

srtTail:
	TESTQ DX, DX
	JZ    srtDone
	TAILMASK
	MOMENTS(LOADM13)
	VMOVAPD Y13, Y4
	SRT_RELAX(LOADM4, STOREM4)

srtDone:
	VZEROUPPER
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
