#include "textflag.h"

// func addRank4AVX(dst, b0, b1, b2, b3 []float64, a0, a1, a2, a3 float64)
//
// dst[j] += (a0*b0[j] + a1*b1[j]) + (a2*b2[j] + a3*b3[j]) with the
// operations of the Go loop in its order: each lane of a Y register is
// one j, every multiply and add rounds on its own (AVX only, no FMA),
// and the scalar tail repeats the same sequence on the low lane.
TEXT ·addRank4AVX(SB), NOSPLIT, $0-152
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         b0_base+24(FP), R8
	MOVQ         b1_base+48(FP), R9
	MOVQ         b2_base+72(FP), R10
	MOVQ         b3_base+96(FP), R11
	VBROADCASTSD a0+120(FP), Y0
	VBROADCASTSD a1+128(FP), Y1
	VBROADCASTSD a2+136(FP), Y2
	VBROADCASTSD a3+144(FP), Y3
	XORQ         AX, AX
	MOVQ         CX, DX
	ANDQ         $-4, DX
	JZ           tail

vec:
	VMULPD  (R8)(AX*8), Y0, Y4  // a0*b0
	VMULPD  (R9)(AX*8), Y1, Y5  // a1*b1
	VADDPD  Y5, Y4, Y4          // a0*b0 + a1*b1
	VMULPD  (R10)(AX*8), Y2, Y6 // a2*b2
	VMULPD  (R11)(AX*8), Y3, Y7 // a3*b3
	VADDPD  Y7, Y6, Y6          // a2*b2 + a3*b3
	VADDPD  Y6, Y4, Y4          // (..) + (..)
	VMOVUPD (DI)(AX*8), Y5
	VADDPD  Y4, Y5, Y5          // dst + (..)
	VMOVUPD Y5, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, DX
	JLT     vec

tail:
	CMPQ   AX, CX
	JGE    done
	VMULSD (R8)(AX*8), X0, X4
	VMULSD (R9)(AX*8), X1, X5
	VADDSD X5, X4, X4
	VMULSD (R10)(AX*8), X2, X6
	VMULSD (R11)(AX*8), X3, X7
	VADDSD X7, X6, X6
	VADDSD X6, X4, X4
	VMOVSD (DI)(AX*8), X5
	VADDSD X4, X5, X5
	VMOVSD X5, (DI)(AX*8)
	INCQ   AX
	JMP    tail

done:
	VZEROUPPER
	RET

// func cpuid1ECX() uint32
TEXT ·cpuid1ECX(SB), NOSPLIT, $0-4
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	MOVL  CX, ret+0(FP)
	RET

// func xgetbv0() uint32
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	XORL   CX, CX
	XGETBV
	MOVL   AX, ret+0(FP)
	RET
