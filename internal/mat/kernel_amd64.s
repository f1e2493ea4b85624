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

// func panelMulVecAVX(dst, a, v, init []float64)
//
// dst[i] = init[i] + Σ_j a[i][j]*v[j] (init nil: +0) for the
// len(dst)/4 full panels of a, each row one serial sum in column
// order: lane l of a panel's accumulator is row 4p+l, and every step is
// one multiply and one add, each rounded on its own (no FMA). Four
// panels go per pass, so four independent add chains overlap; the last
// len(dst)/4 mod 4 panels go one at a time.
TEXT ·panelMulVecAVX(SB), NOSPLIT, $0-96
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), R9
	SHRQ $2, R9                // panels left
	MOVQ a_base+24(FP), SI     // current panel
	MOVQ v_base+48(FP), DX
	MOVQ v_len+56(FP), CX      // columns
	MOVQ init_base+72(FP), R8  // 0 when init is nil
	MOVQ CX, R10
	SHLQ $5, R10               // bytes per panel: 4 rows * 8 * cols

quad:
	CMPQ    R9, $4
	JLT     single
	TESTQ   R8, R8
	JZ      quadzero
	VMOVUPD (R8), Y0
	VMOVUPD 32(R8), Y1
	VMOVUPD 64(R8), Y2
	VMOVUPD 96(R8), Y3
	ADDQ    $128, R8
	JMP     quadstart

quadzero:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

quadstart:
	LEAQ (SI)(R10*1), R11
	LEAQ (R11)(R10*1), R12
	LEAQ (R12)(R10*1), R13
	XORQ AX, AX            // column j
	XORQ BX, BX            // 32*j, column j's offset in a panel

quadcol:
	CMPQ         AX, CX
	JGE          quadstore
	VBROADCASTSD (DX)(AX*8), Y4
	VMULPD       (SI)(BX*1), Y4, Y5
	VADDPD       Y5, Y0, Y0         // s += a[i][j]*v[j]
	VMULPD       (R11)(BX*1), Y4, Y6
	VADDPD       Y6, Y1, Y1
	VMULPD       (R12)(BX*1), Y4, Y7
	VADDPD       Y7, Y2, Y2
	VMULPD       (R13)(BX*1), Y4, Y8
	VADDPD       Y8, Y3, Y3
	ADDQ         $32, BX
	INCQ         AX
	JMP          quadcol

quadstore:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	LEAQ    (R13)(R10*1), SI
	SUBQ    $4, R9
	JMP     quad

single:
	TESTQ   R9, R9
	JZ      mvdone
	TESTQ   R8, R8
	JZ      singlezero
	VMOVUPD (R8), Y0
	ADDQ    $32, R8
	JMP     singlestart

singlezero:
	VXORPD Y0, Y0, Y0

singlestart:
	XORQ AX, AX
	XORQ BX, BX

singlecol:
	CMPQ         AX, CX
	JGE          singlestore
	VBROADCASTSD (DX)(AX*8), Y4
	VMULPD       (SI)(BX*1), Y4, Y5
	VADDPD       Y5, Y0, Y0
	ADDQ         $32, BX
	INCQ         AX
	JMP          singlecol

singlestore:
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	ADDQ    R10, SI
	DECQ    R9
	JMP     single

mvdone:
	VZEROUPPER
	RET

// func scanPairAVX(a, qa, qb []float64, from, full int, boundA, boundB float64, sums *[8]float64) int
//
// For each panel p from `from` to full-1: Y0 accumulates (qa[j]-a[.][j])²
// and Y1 (qb[j]-a[.][j])², lane l being row 4p+l, one subtract, one
// multiply and one add per step in the Go loop's order (no FMA). After
// cols/2 columns, a panel whose eight partial sums all reach their
// bounds (ordered >=, so a NaN bound never does) is abandoned; the
// first panel that is not gets its remaining columns, its sums stored
// to *sums and its index returned. full is returned when every panel is
// abandoned.
TEXT ·scanPairAVX(SB), NOSPLIT, $0-120
	MOVQ         a_base+0(FP), SI
	MOVQ         qa_base+24(FP), R8
	MOVQ         qa_len+32(FP), CX  // columns
	MOVQ         qb_base+48(FP), R9
	MOVQ         from+72(FP), AX    // current panel
	MOVQ         full+80(FP), R10
	VBROADCASTSD boundA+88(FP), Y8
	VBROADCASTSD boundB+96(FP), Y9
	MOVQ         CX, R11
	SHRQ         $1, R11            // cols/2
	MOVQ         CX, R12
	SHLQ         $5, R12            // bytes per panel
	MOVQ         AX, DX
	IMULQ        R12, DX
	ADDQ         DX, SI             // panel `from`

panel:
	CMPQ   AX, R10
	JGE    none
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	XORQ   BX, BX     // column j
	XORQ   DX, DX     // 32*j

first:
	CMPQ         BX, R11
	JGE          check
	VMOVUPD      (SI)(DX*1), Y2     // column j of the panel's four rows
	VBROADCASTSD (R8)(BX*8), Y3
	VSUBPD       Y2, Y3, Y3         // qa[j] - a[.][j]
	VMULPD       Y3, Y3, Y3
	VADDPD       Y3, Y0, Y0
	VBROADCASTSD (R9)(BX*8), Y4
	VSUBPD       Y2, Y4, Y4         // qb[j] - a[.][j]
	VMULPD       Y4, Y4, Y4
	VADDPD       Y4, Y1, Y1
	ADDQ         $32, DX
	INCQ         BX
	JMP          first

check:
	VCMPPD    $0x1d, Y8, Y0, Y5     // GE_OQ: sumA >= boundA
	VCMPPD    $0x1d, Y9, Y1, Y6     // sumB >= boundB
	VANDPD    Y6, Y5, Y5
	VMOVMSKPD Y5, R13
	CMPQ      R13, $15
	JEQ       next

rest:
	CMPQ         BX, CX
	JGE          found
	VMOVUPD      (SI)(DX*1), Y2
	VBROADCASTSD (R8)(BX*8), Y3
	VSUBPD       Y2, Y3, Y3
	VMULPD       Y3, Y3, Y3
	VADDPD       Y3, Y0, Y0
	VBROADCASTSD (R9)(BX*8), Y4
	VSUBPD       Y2, Y4, Y4
	VMULPD       Y4, Y4, Y4
	VADDPD       Y4, Y1, Y1
	ADDQ         $32, DX
	INCQ         BX
	JMP          rest

found:
	MOVQ    sums+104(FP), DI
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	MOVQ    AX, ret+112(FP)
	VZEROUPPER
	RET

next:
	ADDQ R12, SI
	INCQ AX
	JMP  panel

none:
	MOVQ R10, ret+112(FP)
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
