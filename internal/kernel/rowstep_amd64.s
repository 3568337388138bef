#include "textflag.h"

// func rowStepAVX2(w []float64, p, q float64)
//
// Walks down from i = len(w)−1 in 4-cell blocks: load w[i−4..i−1] and
// w[i−3..i], multiply by p and q, add, store w[i−3..i]. A block's loads come
// before its store, and the store never covers w[i−4], so the next block
// reads only cells this step has not yet written. The main loop runs two
// blocks per iteration (all four loads, then both stores); one block, then
// cells one at a time with the same two products and one sum, finish the
// cells above w[0].
TEXT ·rowStepAVX2(SB), NOSPLIT, $0-40
	MOVQ         w_base+0(FP), SI
	MOVQ         w_len+8(FP), CX
	VBROADCASTSD p+24(FP), Y0
	VBROADCASTSD q+32(FP), Y1
	DECQ         CX

block8:
	CMPQ    CX, $8
	JLT     block
	VMOVUPD -32(SI)(CX*8), Y2
	VMOVUPD -24(SI)(CX*8), Y3
	VMOVUPD -64(SI)(CX*8), Y4
	VMOVUPD -56(SI)(CX*8), Y5
	VMULPD  Y0, Y2, Y2
	VMULPD  Y1, Y3, Y3
	VMULPD  Y0, Y4, Y4
	VMULPD  Y1, Y5, Y5
	VADDPD  Y3, Y2, Y2
	VADDPD  Y5, Y4, Y4
	VMOVUPD Y2, -24(SI)(CX*8)
	VMOVUPD Y4, -56(SI)(CX*8)
	SUBQ    $8, CX
	JMP     block8

block:
	CMPQ    CX, $4
	JLT     tail
	VMOVUPD -32(SI)(CX*8), Y2
	VMOVUPD -24(SI)(CX*8), Y3
	VMULPD  Y0, Y2, Y2
	VMULPD  Y1, Y3, Y3
	VADDPD  Y3, Y2, Y2
	VMOVUPD Y2, -24(SI)(CX*8)
	SUBQ    $4, CX
	JMP     block

tail:
	CMPQ   CX, $1
	JLT    done
	VMOVSD -8(SI)(CX*8), X2
	VMOVSD (SI)(CX*8), X3
	VMULSD X0, X2, X2
	VMULSD X1, X3, X3
	VADDSD X3, X2, X2
	VMOVSD X2, (SI)(CX*8)
	DECQ   CX
	JMP    tail

done:
	VZEROUPPER
	RET

// func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL   $0, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	RET
