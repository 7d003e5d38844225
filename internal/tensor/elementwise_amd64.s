//go:build amd64 && !noasm

#include "textflag.h"

// The AVX2 elementwise kernels: one 8-float vector per step, n > 0 and a
// multiple of 8. Each lane does what the scalar loop in elementwise.go
// does to one element, with the same first source in every multiply and
// add, because when both sources are NaN the result is the first one's
// payload. In Go's operand order the first source is the middle operand:
// VMULPS Y2, Y0, Y3 is Y3 = Y0·Y2 with Y0 first.

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
