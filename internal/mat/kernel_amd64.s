#include "textflag.h"

// func rank4TileAVX(dst, a []float64, as int, b []float64, bs, blocks int)
//
// For each block q in 0..blocks-1, in order:
// dst[j] += (a0*b0[j] + a1*b1[j]) + (a2*b2[j] + a3*b3[j]), with
// multiplier l at a[(4q+l)*as] and row l at b[(4q+l)*bs:]. Each lane of
// a Y register is one j, every multiply and add rounds on its own (AVX
// only, no FMA), in the Go loop's order. A strip of 16 outputs stays in
// Y0..Y3 across all the blocks, then strips of 4 in Y0, then single
// outputs in the low lane of X0. blocks >= 1 and len(dst) >= 1.
TEXT ·rank4TileAVX(SB), NOSPLIT, $0-96
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX     // outputs left
	MOVQ a_base+24(FP), SI
	MOVQ as+48(FP), R12
	SHLQ $3, R12               // multiplier stride in bytes
	LEAQ (R12)(R12*2), R13     // 3 multiplier strides
	MOVQ b_base+56(FP), R8     // the strip's first column in row 0
	MOVQ bs+80(FP), R9
	SHLQ $3, R9                // row stride in bytes
	LEAQ (R9)(R9*2), R10       // 3 row strides
	MOVQ blocks+88(FP), R11

strip16:
	CMPQ    CX, $16
	JLT     strip4
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	MOVQ    SI, AX             // block q's multiplier 0
	MOVQ    R8, DX             // block q's row 0 at the strip
	MOVQ    R11, BX            // blocks left

block16:
	VBROADCASTSD (AX), Y4
	VBROADCASTSD (AX)(R12*1), Y5
	VBROADCASTSD (AX)(R12*2), Y6
	VBROADCASTSD (AX)(R13*1), Y7
	VMULPD       (DX), Y4, Y8          // a0*b0
	VMULPD       (DX)(R9*1), Y5, Y9    // a1*b1
	VADDPD       Y9, Y8, Y8            // a0*b0 + a1*b1
	VMULPD       (DX)(R9*2), Y6, Y10   // a2*b2
	VMULPD       (DX)(R10*1), Y7, Y11  // a3*b3
	VADDPD       Y11, Y10, Y10         // a2*b2 + a3*b3
	VADDPD       Y10, Y8, Y8           // (..) + (..)
	VADDPD       Y8, Y0, Y0            // dst + (..)
	VMULPD       32(DX), Y4, Y8
	VMULPD       32(DX)(R9*1), Y5, Y9
	VADDPD       Y9, Y8, Y8
	VMULPD       32(DX)(R9*2), Y6, Y10
	VMULPD       32(DX)(R10*1), Y7, Y11
	VADDPD       Y11, Y10, Y10
	VADDPD       Y10, Y8, Y8
	VADDPD       Y8, Y1, Y1
	VMULPD       64(DX), Y4, Y8
	VMULPD       64(DX)(R9*1), Y5, Y9
	VADDPD       Y9, Y8, Y8
	VMULPD       64(DX)(R9*2), Y6, Y10
	VMULPD       64(DX)(R10*1), Y7, Y11
	VADDPD       Y11, Y10, Y10
	VADDPD       Y10, Y8, Y8
	VADDPD       Y8, Y2, Y2
	VMULPD       96(DX), Y4, Y8
	VMULPD       96(DX)(R9*1), Y5, Y9
	VADDPD       Y9, Y8, Y8
	VMULPD       96(DX)(R9*2), Y6, Y10
	VMULPD       96(DX)(R10*1), Y7, Y11
	VADDPD       Y11, Y10, Y10
	VADDPD       Y10, Y8, Y8
	VADDPD       Y8, Y3, Y3
	LEAQ         (AX)(R12*4), AX       // next block's multipliers
	LEAQ         (DX)(R9*4), DX        // next block's rows
	DECQ         BX
	JNZ          block16

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, R8
	SUBQ    $16, CX
	JMP     strip16

strip4:
	CMPQ    CX, $4
	JLT     strip1
	VMOVUPD (DI), Y0
	MOVQ    SI, AX
	MOVQ    R8, DX
	MOVQ    R11, BX

block4:
	VBROADCASTSD (AX), Y4
	VBROADCASTSD (AX)(R12*1), Y5
	VBROADCASTSD (AX)(R12*2), Y6
	VBROADCASTSD (AX)(R13*1), Y7
	VMULPD       (DX), Y4, Y8
	VMULPD       (DX)(R9*1), Y5, Y9
	VADDPD       Y9, Y8, Y8
	VMULPD       (DX)(R9*2), Y6, Y10
	VMULPD       (DX)(R10*1), Y7, Y11
	VADDPD       Y11, Y10, Y10
	VADDPD       Y10, Y8, Y8
	VADDPD       Y8, Y0, Y0
	LEAQ         (AX)(R12*4), AX
	LEAQ         (DX)(R9*4), DX
	DECQ         BX
	JNZ          block4

	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, R8
	SUBQ    $4, CX
	JMP     strip4

strip1:
	TESTQ  CX, CX
	JZ     tiledone
	VMOVSD (DI), X0
	MOVQ   SI, AX
	MOVQ   R8, DX
	MOVQ   R11, BX

block1:
	VMOVSD (AX), X4
	VMOVSD (AX)(R12*1), X5
	VMOVSD (AX)(R12*2), X6
	VMOVSD (AX)(R13*1), X7
	VMULSD (DX), X4, X8
	VMULSD (DX)(R9*1), X5, X9
	VADDSD X9, X8, X8
	VMULSD (DX)(R9*2), X6, X10
	VMULSD (DX)(R10*1), X7, X11
	VADDSD X11, X10, X10
	VADDSD X10, X8, X8
	VADDSD X8, X0, X0
	LEAQ   (AX)(R12*4), AX
	LEAQ   (DX)(R9*4), DX
	DECQ   BX
	JNZ    block1

	VMOVSD X0, (DI)
	ADDQ   $8, DI
	ADDQ   $8, R8
	DECQ   CX
	JMP    strip1

tiledone:
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
// bounds (ordered >=, so a NaN bound never does) is abandoned, and so
// is one whose eight full sums all reach them after the last column;
// the first panel that is not has its sums stored to *sums and its
// index returned. full is returned when every panel is abandoned.
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
	JGE          last
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

last:
	VCMPPD    $0x1d, Y8, Y0, Y5     // the same check on the full sums
	VCMPPD    $0x1d, Y9, Y1, Y6
	VANDPD    Y6, Y5, Y5
	VMOVMSKPD Y5, R13
	CMPQ      R13, $15
	JEQ       next

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
