//go:build amd64 && !noasm

#include "textflag.h"

// The AVX2 elementwise kernels: one 8-float vector, or a pair, per step,
// n > 0 and a multiple of 8; the row kernels run rows > 0 rows of n. Each
// lane does what the scalar loop in elementwise.go does to one element,
// with the same first source in every multiply and add, because when both
// sources are NaN the result is the first one's payload. In Go's operand
// order the first source is the middle operand: VMULPS Y2, Y0, Y3 is
// Y3 = Y0·Y2 with Y0 first. The split and merge only move floats.

// func leakyReLUAVX2(dst, x *float32, a float32, n int)
// dst = a·x where x < 0 (LT_OQ: false for NaN and −0), else x.
TEXT ·leakyReLUAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	VBROADCASTSS a+16(FP), Y0
	MOVQ n+24(FP), CX
	VXORPS Y1, Y1, Y1

leaky:
	VMOVUPS (SI), Y2
	VMULPS Y2, Y0, Y3
	VCMPPS $0x11, Y1, Y2, Y4
	VBLENDVPS Y4, Y3, Y2, Y2
	VMOVUPS Y2, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $8, CX
	JNZ  leaky
	VZEROUPPER
	RET

// func leakyReLUGradAVX2(dst, y, dy *float32, a float32, n int)
// dst = a·dy where y ≤ 0 (LE_OQ: true for ±0, false for NaN), else dy.
TEXT ·leakyReLUGradAVX2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ y+8(FP), SI
	MOVQ dy+16(FP), BX
	VBROADCASTSS a+24(FP), Y0
	MOVQ n+32(FP), CX
	VXORPS Y1, Y1, Y1

grad:
	VMOVUPS (BX), Y2
	VMOVUPS (SI), Y5
	VMULPS Y2, Y0, Y3
	VCMPPS $0x12, Y1, Y5, Y4
	VBLENDVPS Y4, Y3, Y2, Y2
	VMOVUPS Y2, (DI)
	ADDQ $32, SI
	ADDQ $32, BX
	ADDQ $32, DI
	SUBQ $8, CX
	JNZ  grad
	VZEROUPPER
	RET

// func addConstAVX2(dst, x *float32, b float32, n int)
// dst = x + b, x first.
TEXT ·addConstAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	VBROADCASTSS b+16(FP), Y0
	MOVQ n+24(FP), CX

addc:
	VMOVUPS (SI), Y2
	VADDPS Y0, Y2, Y2
	VMOVUPS Y2, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $8, CX
	JNZ  addc
	VZEROUPPER
	RET

// func axpyAVX2(t, x *float32, s float32, n int)
// t = t + x·s: x first in the multiply, t first in the add.
TEXT ·axpyAVX2(SB), NOSPLIT, $0-32
	MOVQ t+0(FP), DI
	MOVQ x+8(FP), SI
	VBROADCASTSS s+16(FP), Y0
	MOVQ n+24(FP), CX

axpy:
	VMOVUPS (SI), Y2
	VMULPS Y0, Y2, Y2
	VMOVUPS (DI), Y3
	VADDPS Y2, Y3, Y3
	VMOVUPS Y3, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $8, CX
	JNZ  axpy
	VZEROUPPER
	RET

// func scaleAVX2(t *float32, s float32, n int)
// t = t·s, t first.
TEXT ·scaleAVX2(SB), NOSPLIT, $0-24
	MOVQ t+0(FP), DI
	VBROADCASTSS s+8(FP), Y0
	MOVQ n+16(FP), CX

scale:
	VMOVUPS (DI), Y2
	VMULPS Y0, Y2, Y2
	VMOVUPS Y2, (DI)
	ADDQ $32, DI
	SUBQ $8, CX
	JNZ  scale
	VZEROUPPER
	RET

// func deinterleaveAVX2(even, odd, in *float32, rows, n, ps, is int)
// even[r·ps + j] = in[r·is + 2j], odd[r·ps + j] = in[r·is + 2j+1] for
// r < rows and j < n: 16 floats of in per step, split within each
// 128-bit lane by VSHUFPS, then the lanes' 64-bit halves put in order by
// VPERMPD.
TEXT ·deinterleaveAVX2(SB), NOSPLIT, $0-56
	MOVQ even+0(FP), DI
	MOVQ odd+8(FP), BX
	MOVQ in+16(FP), SI
	MOVQ rows+24(FP), DX
	MOVQ n+32(FP), R8
	MOVQ ps+40(FP), R9
	MOVQ is+48(FP), R10
	SHLQ $2, R9
	SHLQ $2, R10

splitrow:
	MOVQ DI, AX
	MOVQ BX, R11
	MOVQ SI, R12
	MOVQ R8, CX

split:
	VMOVUPS (R12), Y0
	VMOVUPS 32(R12), Y1
	VSHUFPS $0x88, Y1, Y0, Y2 // a0 a2 b0 b2 | a4 a6 b4 b6
	VSHUFPS $0xdd, Y1, Y0, Y3 // a1 a3 b1 b3 | a5 a7 b5 b7
	VPERMPD $0xd8, Y2, Y2     // a0 a2 a4 a6 b0 b2 b4 b6
	VPERMPD $0xd8, Y3, Y3
	VMOVUPS Y2, (AX)
	VMOVUPS Y3, (R11)
	ADDQ $64, R12
	ADDQ $32, AX
	ADDQ $32, R11
	SUBQ $8, CX
	JNZ  split
	ADDQ R9, DI
	ADDQ R9, BX
	ADDQ R10, SI
	DECQ DX
	JNZ  splitrow
	VZEROUPPER
	RET

// func interleaveAVX2(out, even, odd *float32, rows, n, os, ps int)
// out[r·os + 2j] = even[r·ps + j], out[r·os + 2j+1] = odd[r·ps + j] for
// r < rows and j < n: 8 of each per step, paired within each 128-bit
// lane by VUNPCKLPS/VUNPCKHPS, then the lanes put in order by VPERM2F128.
TEXT ·interleaveAVX2(SB), NOSPLIT, $0-56
	MOVQ out+0(FP), DI
	MOVQ even+8(FP), SI
	MOVQ odd+16(FP), BX
	MOVQ rows+24(FP), DX
	MOVQ n+32(FP), R8
	MOVQ os+40(FP), R9
	MOVQ ps+48(FP), R10
	SHLQ $2, R9
	SHLQ $2, R10

mergerow:
	MOVQ DI, AX
	MOVQ SI, R11
	MOVQ BX, R12
	MOVQ R8, CX

merge:
	VMOVUPS (R11), Y0
	VMOVUPS (R12), Y1
	VUNPCKLPS Y1, Y0, Y2         // e0 o0 e1 o1 | e4 o4 e5 o5
	VUNPCKHPS Y1, Y0, Y3         // e2 o2 e3 o3 | e6 o6 e7 o7
	VPERM2F128 $0x20, Y3, Y2, Y4 // e0 o0 e1 o1 e2 o2 e3 o3
	VPERM2F128 $0x31, Y3, Y2, Y5 // e4 o4 e5 o5 e6 o6 e7 o7
	VMOVUPS Y4, (AX)
	VMOVUPS Y5, 32(AX)
	ADDQ $32, R11
	ADDQ $32, R12
	ADDQ $64, AX
	SUBQ $8, CX
	JNZ  merge
	ADDQ R9, DI
	ADDQ R10, SI
	ADDQ R10, BX
	DECQ DX
	JNZ  mergerow
	VZEROUPPER
	RET

// func addRowsAVX2(dst, src *float32, rows, cols, ds, ss int)
// dst[r·ds + i] += src[r·ss + i] for r < rows and i < cols, dst first in
// the add, as in addRowGo: four vectors per step while a row has them,
// then one. dst and src never overlap, so a step's loads may run ahead of
// its stores.
TEXT ·addRowsAVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ rows+16(FP), DX
	MOVQ cols+24(FP), R8
	MOVQ ds+32(FP), R9
	MOVQ ss+40(FP), R10
	SHLQ $2, R9
	SHLQ $2, R10

row:
	MOVQ DI, AX
	MOVQ SI, BX
	MOVQ R8, CX
	CMPQ CX, $32
	JLT  add1

add4:
	VMOVUPS (AX), Y0
	VMOVUPS 32(AX), Y1
	VMOVUPS 64(AX), Y2
	VMOVUPS 96(AX), Y3
	VADDPS (BX), Y0, Y0
	VADDPS 32(BX), Y1, Y1
	VADDPS 64(BX), Y2, Y2
	VADDPS 96(BX), Y3, Y3
	VMOVUPS Y0, (AX)
	VMOVUPS Y1, 32(AX)
	VMOVUPS Y2, 64(AX)
	VMOVUPS Y3, 96(AX)
	ADDQ $128, AX
	ADDQ $128, BX
	SUBQ $32, CX
	CMPQ CX, $32
	JGE  add4
	TESTQ CX, CX
	JZ   next

add1:
	VMOVUPS (AX), Y0
	VADDPS (BX), Y0, Y0
	VMOVUPS Y0, (AX)
	ADDQ $32, AX
	ADDQ $32, BX
	SUBQ $8, CX
	JNZ  add1

next:
	ADDQ R9, DI
	ADDQ R10, SI
	DECQ DX
	JNZ  row
	VZEROUPPER
	RET
