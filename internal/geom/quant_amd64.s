#include "textflag.h"

// func minDistSqBatchQPacked(qL, qH *float64, lo, hi *float32, out *float64, n, d int)
//
// For each of n boxes of d axes: out[t] = Σ_k GapSq(qL[k], qH[k], lo[k], hi[k])
// summed in axis order, two axes per instruction. Per pair of axes the eight
// bound bytes of lo and of hi are one load and one packed widening each, and
// max(bl−ah, al−bh, 0)² is two SUBPD, two MAXPD and one MULPD; the two
// squares are then added to the sum low lane first, so the additions happen
// in the order the scalar loop makes them. An odd last axis is done scalar.
TEXT ·minDistSqBatchQPacked(SB), NOSPLIT, $0-56
	MOVQ qL+0(FP), R8
	MOVQ qH+8(FP), R9
	MOVQ lo+16(FP), SI
	MOVQ hi+24(FP), DI
	MOVQ out+32(FP), DX
	MOVQ n+40(FP), CX
	MOVQ d+48(FP), BX
	XORPS X7, X7 // the 0 of the gap's max
	MOVQ  BX, R10
	ANDQ  $-2, R10 // axes that come in pairs
	TESTQ CX, CX
	JLE   done

box:
	XORPS X0, X0 // sum
	XORQ  AX, AX // k
	CMPQ  AX, R10
	JGE   last

pair:
	MOVQ     (SI)(AX*4), X1 // bl: lo[k], lo[k+1]
	MOVQ     (DI)(AX*4), X2 // bh
	CVTPS2PD X1, X1
	CVTPS2PD X2, X2
	MOVUPD   (R9)(AX*8), X3 // ah
	MOVUPD   (R8)(AX*8), X4 // al
	SUBPD    X3, X1         // bl − ah
	SUBPD    X2, X4         // al − bh
	MAXPD    X4, X1
	MAXPD    X7, X1
	MULPD    X1, X1
	ADDSD    X1, X0
	UNPCKHPD X1, X1
	ADDSD    X1, X0
	ADDQ     $2, AX
	CMPQ     AX, R10
	JLT      pair

last:
	CMPQ     AX, BX
	JGE      store
	MOVSS    (SI)(AX*4), X1
	MOVSS    (DI)(AX*4), X2
	CVTSS2SD X1, X1
	CVTSS2SD X2, X2
	MOVSD    (R9)(AX*8), X3
	MOVSD    (R8)(AX*8), X4
	SUBSD    X3, X1
	SUBSD    X2, X4
	MAXSD    X4, X1
	MAXSD    X7, X1
	MULSD    X1, X1
	ADDSD    X1, X0

store:
	MOVSD X0, (DX)
	ADDQ  $8, DX
	LEAQ  (SI)(BX*4), SI
	LEAQ  (DI)(BX*4), DI
	DECQ  CX
	JNZ   box

done:
	RET
