#include "textflag.h"

// Byte offsets of laneState's fields, eight float64 (or pointer) lanes
// each.
#define TOTAL 0
#define SUMX 64
#define SUMXX 128
#define LO 192
#define HI 256
#define WTS 320

// GATHER4(bins, lane, x, y) loads lanes lane..lane+3 of the bin weights
// of the index whose bins start at bins into y: lane l's weight is at
// WTS[l] + 8*bins[l]. x is y's low half; X13 is clobbered.
#define GATHER4(bins, lane, x, y) \
	MOVQ        WTS+8*(lane)(DI), R11     \
	MOVL        4*(lane)(bins), R12       \
	VMOVSD      (R11)(R12*8), x           \
	MOVQ        WTS+8*(lane+1)(DI), R11   \
	MOVL        4*(lane+1)(bins), R12     \
	VMOVHPD     (R11)(R12*8), x, x        \
	MOVQ        WTS+8*(lane+2)(DI), R11   \
	MOVL        4*(lane+2)(bins), R12     \
	VMOVSD      (R11)(R12*8), X13         \
	MOVQ        WTS+8*(lane+3)(DI), R11   \
	MOVL        4*(lane+3)(bins), R12     \
	VMOVHPD     (R11)(R12*8), X13, X13    \
	VINSERTF128 $1, X13, y, y

// SCATTER4(bins, lane, x, y) stores y back where GATHER4 loaded it; X13
// is clobbered.
#define SCATTER4(bins, lane, x, y) \
	MOVQ         WTS+8*(lane)(DI), R11   \
	MOVL         4*(lane)(bins), R12     \
	VMOVSD       x, (R11)(R12*8)         \
	MOVQ         WTS+8*(lane+1)(DI), R11 \
	MOVL         4*(lane+1)(bins), R12   \
	VMOVHPD      x, (R11)(R12*8)         \
	VEXTRACTF128 $1, y, X13              \
	MOVQ         WTS+8*(lane+2)(DI), R11 \
	MOVL         4*(lane+2)(bins), R12   \
	VMOVSD       X13, (R11)(R12*8)       \
	MOVQ         WTS+8*(lane+3)(DI), R11 \
	MOVL         4*(lane+3)(bins), R12   \
	VMOVHPD      X13, (R11)(R12*8)

// func tableAddAVX(st *laneState, vals []float64, bins []uint32, idx, touched []uint16, counts []uint32, w float64)
//
// Lanes 0..3 of every field live in one Y register and lanes 4..7 in
// another. Per index of idx, in order: total += w, sumX += w*x,
// sumXX += (w*x)*x, each VMULPD and VADDPD rounding on its own (AVX
// only, no FMA), then lo = VMINPD(x, lo) and hi = VMAXPD(x, hi) with the
// observation as the first source, which return the second source on a
// tie of zeros exactly as Go's `if x < lo { lo = x }` keeps lo. Then per
// index of touched: the eight lanes' bin weights are gathered, take
// counts[i] adds of w, and are scattered back before the next index's
// gather, so indices whose bins coincide in a lane add in sequence.
TEXT ·tableAddAVX(SB), NOSPLIT, $0-136
	MOVQ         st+0(FP), DI
	MOVQ         vals_base+8(FP), SI
	MOVQ         idx_base+56(FP), R9
	MOVQ         idx_len+64(FP), CX
	VBROADCASTSD w+128(FP), Y14

	VMOVUPD TOTAL(DI), Y0
	VMOVUPD TOTAL+32(DI), Y1
	VMOVUPD SUMX(DI), Y2
	VMOVUPD SUMX+32(DI), Y3
	VMOVUPD SUMXX(DI), Y4
	VMOVUPD SUMXX+32(DI), Y5
	VMOVUPD LO(DI), Y6
	VMOVUPD LO+32(DI), Y7
	VMOVUPD HI(DI), Y8
	VMOVUPD HI+32(DI), Y9
	TESTQ   CX, CX
	JZ      sumsdone

sums:
	MOVWQZX (R9), AX
	SHLQ    $6, AX                // 8 lanes of 8 bytes per index
	VMOVUPD (SI)(AX*1), Y10       // x, lanes 0..3
	VMOVUPD 32(SI)(AX*1), Y11     // x, lanes 4..7
	VADDPD  Y14, Y0, Y0           // total += w
	VADDPD  Y14, Y1, Y1
	VMULPD  Y14, Y10, Y12         // w*x
	VMULPD  Y14, Y11, Y13
	VADDPD  Y12, Y2, Y2           // sumX += w*x
	VADDPD  Y13, Y3, Y3
	VMULPD  Y10, Y12, Y12         // (w*x)*x
	VMULPD  Y11, Y13, Y13
	VADDPD  Y12, Y4, Y4           // sumXX += (w*x)*x
	VADDPD  Y13, Y5, Y5
	VMINPD  Y6, Y10, Y6           // lo = x < lo ? x : lo
	VMINPD  Y7, Y11, Y7
	VMAXPD  Y8, Y10, Y8           // hi = x > hi ? x : hi
	VMAXPD  Y9, Y11, Y9
	ADDQ    $2, R9
	DECQ    CX
	JNZ     sums

sumsdone:
	VMOVUPD Y0, TOTAL(DI)
	VMOVUPD Y1, TOTAL+32(DI)
	VMOVUPD Y2, SUMX(DI)
	VMOVUPD Y3, SUMX+32(DI)
	VMOVUPD Y4, SUMXX(DI)
	VMOVUPD Y5, SUMXX+32(DI)
	VMOVUPD Y6, LO(DI)
	VMOVUPD Y7, LO+32(DI)
	VMOVUPD Y8, HI(DI)
	VMOVUPD Y9, HI+32(DI)

	MOVQ  bins_base+32(FP), R8
	MOVQ  touched_base+80(FP), R9
	MOVQ  touched_len+88(FP), CX
	MOVQ  counts_base+104(FP), R10
	TESTQ CX, CX
	JZ    done

bins:
	MOVWQZX (R9), AX
	MOVL    (R10)(AX*4), DX       // the index's count, at least 1
	SHLQ    $5, AX                // 8 lanes of 4 bytes per index
	LEAQ    (R8)(AX*1), BX        // the index's bins
	GATHER4(BX, 0, X0, Y0)
	GATHER4(BX, 4, X1, Y1)

add:
	VADDPD Y14, Y0, Y0
	VADDPD Y14, Y1, Y1
	DECQ   DX
	JNZ    add

	SCATTER4(BX, 0, X0, Y0)
	SCATTER4(BX, 4, X1, Y1)
	ADDQ $2, R9
	DECQ CX
	JNZ  bins

done:
	VZEROUPPER
	RET
