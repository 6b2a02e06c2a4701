#include "textflag.h"

// func coulRowAVX2(a *coulArgs)
//
// The packed exact Coulomb kernel: for each row i in [lo, hi) of the packed
// charged atoms it visits the j-lanes i+1 .. n-1 four at a time with
// unaligned loads (the last group runs into the padding lanes, whose zero
// charge makes their contributions exact zeros). Per lane it repeats the
// reference AccumulateRange algebra with the same roundings:
//
//   d  = pj − pi
//   r2 = ((dx·dx + dy·dy) + dz·dz) + soft²   separate MUL and ADD, no FMA
//   r  = √r2                                 VSQRTPD
//   e  = ((K·qi)·qj) / r ; fs = e / r2        VDIVPD, no approximate rsqrt
//
// Lanes with r2 == 0 are masked to exact zero (the reference skips them):
// their e and fs are ±Inf or NaN before the mask, and the bitwise AND turns
// both into +0. The i force stays in three vector accumulators and is
// horizontally summed into the scratch once per row; the j forces go to the
// scratch by 4-lane read-modify-write. The energy is a 4-lane sum returned
// in pe for the Go wrapper to fold.
//
// coulArgs layout (offsets, see coulomb_amd64.go):
//   0 x, 8 y, 16 z, 24 q     *float64 packed SoA (≥ n+3 lanes, zero-charge pad)
//   32 fx, 40 fy, 48 fz      *float64 SoA force scratch (same indexing)
//   56 lo, 64 hi, 72 n       int64 row range and packed count
//   80 soft2, 88 k           float64 softening², Coulomb constant
//   96 pe                    [4]float64 out
//
// Registers: Y0-Y2 xi/yi/zi, Y3 K·qi, Y4-Y6 i-force accumulators,
// Y7-Y9 d then fs·d, Y10 r2, Y11 r2 != 0 mask, Y12 r then fs, Y13 temp,
// Y14 energy accumulator, Y15 soft².
TEXT ·coulRowAVX2(SB), NOSPLIT, $0-8
	MOVQ a+0(FP), DI
	MOVQ 0(DI), R8           // x
	MOVQ 8(DI), R9           // y
	MOVQ 16(DI), R10         // z
	MOVQ 24(DI), R11         // q
	MOVQ 32(DI), R12         // fx
	MOVQ 40(DI), R13         // fy
	MOVQ 48(DI), R14         // fz
	MOVQ 56(DI), SI          // i = lo
	MOVQ 64(DI), BX          // hi
	MOVQ 72(DI), CX          // n
	VBROADCASTSD 80(DI), Y15 // soft2
	VXORPD Y14, Y14, Y14     // pe

rowloop:
	CMPQ SI, BX
	JGE done
	VBROADCASTSD (R8)(SI*8), Y0
	VBROADCASTSD (R9)(SI*8), Y1
	VBROADCASTSD (R10)(SI*8), Y2
	VMOVSD 88(DI), X3
	VMULSD (R11)(SI*8), X3, X3 // K·qi
	VBROADCASTSD X3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	LEAQ 1(SI), DX           // j = i+1
	CMPQ DX, CX
	JGE rowdone

jloop:
	// d = pj - pi
	VMOVUPD (R8)(DX*8), Y7
	VSUBPD Y0, Y7, Y7
	VMOVUPD (R9)(DX*8), Y8
	VSUBPD Y1, Y8, Y8
	VMOVUPD (R10)(DX*8), Y9
	VSUBPD Y2, Y9, Y9
	// r2 = ((dx² + dy²) + dz²) + soft²
	VMULPD Y7, Y7, Y10
	VMULPD Y8, Y8, Y13
	VADDPD Y13, Y10, Y10
	VMULPD Y9, Y9, Y13
	VADDPD Y13, Y10, Y10
	VADDPD Y15, Y10, Y10
	// m = r2 != 0
	VXORPD Y13, Y13, Y13
	VCMPPD $4, Y13, Y10, Y11
	// r = √r2 ; e = (K·qi·qj) / r ; fs = e / r2
	VSQRTPD Y10, Y12
	VMULPD (R11)(DX*8), Y3, Y13
	VDIVPD Y12, Y13, Y13
	VDIVPD Y10, Y13, Y12
	VANDPD Y11, Y13, Y13
	VANDPD Y11, Y12, Y12
	VADDPD Y13, Y14, Y14
	// fs·d ; i force -= fs·d ; j force += fs·d
	VMULPD Y12, Y7, Y7
	VMULPD Y12, Y8, Y8
	VMULPD Y12, Y9, Y9
	VSUBPD Y7, Y4, Y4
	VSUBPD Y8, Y5, Y5
	VSUBPD Y9, Y6, Y6
	VADDPD (R12)(DX*8), Y7, Y7
	VMOVUPD Y7, (R12)(DX*8)
	VADDPD (R13)(DX*8), Y8, Y8
	VMOVUPD Y8, (R13)(DX*8)
	VADDPD (R14)(DX*8), Y9, Y9
	VMOVUPD Y9, (R14)(DX*8)
	ADDQ $4, DX
	CMPQ DX, CX
	JLT jloop

rowdone:
	// horizontal-sum the i accumulators into fx/fy/fz[i]
#define HSUM(acc, xacc, dst) \
	VEXTRACTF128 $1, acc, X7 \
	VADDPD X7, xacc, xacc \
	VHADDPD xacc, xacc, xacc \
	VADDSD (dst)(SI*8), xacc, xacc \
	VMOVSD xacc, (dst)(SI*8)

	HSUM(Y4, X4, R12)
	HSUM(Y5, X5, R13)
	HSUM(Y6, X6, R14)

	INCQ SI
	JMP rowloop

done:
	VMOVUPD Y14, 96(DI)
	VZEROUPPER
	RET
