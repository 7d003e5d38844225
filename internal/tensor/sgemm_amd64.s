//go:build amd64 && !noasm

#include "textflag.h"

// Lane kernels for the k-major SGEMM. Each SIMD lane owns one output
// element and accumulates a[i][l]·B[l][j] in strictly ascending l with a
// separate multiply and add rounding per step, so results are
// bit-identical to the scalar kernels. Rows run in blocks of 4 with a
// single-row tail, except in the AVX-512 32-column body, which runs its
// leftover rows as one block of 2 and then one of 1, so any m ≥ 1 is
// handled entirely in assembly (m = 1 is the gemv shape of the
// single-frame Linear forward and the batched input-gradient head).
//
// Every rung comes in two forms that differ only in where row l of B
// starts:
//   - strided (sgemm*cols): B row l is bk + l·n, reached by adding the
//     row stride once per step;
//   - table (sgemm*colsTaps): B row l is b + off[l], one int32 load per
//     step from the offset table. The indirect conv forward reads every
//     tap of a padded input in place this way.
// Each rung's loop is written once, as a body macro, and instantiated for
// both forms; the body calls four hooks that the two forms define:
//   BSET      per row block: point the strided cursor R15 at bk row 0
//   BOFF      per step, before the loads: fetch off[l] into R15
//   BROW(d)   the address of B row l plus d bytes
//   BADV      per step, after the loads: advance the strided cursor
//
// Register layout (all rungs):
//   SI  a row-block base          DX  B base           DI  c row-block base
//   R8  remaining rows            R9  k
//   R11 a row stride (k*4 bytes)  R12 c (and strided B) row stride (n*4 bytes)
//   AX,BX,R13,R14  the four current a row pointers, advanced 4 bytes a
//                  step; in the 32-column body they point at their rows'
//                  ends and stay put, and a[i][l] is (AX)(CX*4)
//   R15 B row cursor (strided) or off[l] (table)
//   R10 one past the table's end (table form)
//   CX  l − k, counting up to 0, so off[l] is (R10)(CX*4)

// The SSE2 4-column body: one accumulator register per row.
#define SSE4BODY \
	TESTQ R9, R9; \
	JZ   done4; \
rows4: \
	CMPQ R8, $4; \
	JL   tail4; \
	XORPS X0, X0; \
	XORPS X1, X1; \
	XORPS X2, X2; \
	XORPS X3, X3; \
	MOVQ SI, AX; \
	LEAQ (SI)(R11*1), BX; \
	LEAQ (SI)(R11*2), R13; \
	LEAQ (BX)(R11*2), R14; \
	BSET; \
	MOVQ R9, CX; \
	NEGQ CX; \
l4: \
	BOFF; \
	MOVUPS BROW(0), X8; \
	MOVSS (AX), X10; \
	SHUFPS $0x00, X10, X10; \
	MULPS X8, X10; \
	ADDPS X10, X0; \
	MOVSS (BX), X10; \
	SHUFPS $0x00, X10, X10; \
	MULPS X8, X10; \
	ADDPS X10, X1; \
	MOVSS (R13), X10; \
	SHUFPS $0x00, X10, X10; \
	MULPS X8, X10; \
	ADDPS X10, X2; \
	MOVSS (R14), X10; \
	SHUFPS $0x00, X10, X10; \
	MULPS X8, X10; \
	ADDPS X10, X3; \
	ADDQ $4, AX; \
	ADDQ $4, BX; \
	ADDQ $4, R13; \
	ADDQ $4, R14; \
	BADV; \
	INCQ CX; \
	JNZ  l4; \
	MOVQ DI, AX; \
	MOVUPS X0, (AX); \
	ADDQ R12, AX; \
	MOVUPS X1, (AX); \
	ADDQ R12, AX; \
	MOVUPS X2, (AX); \
	ADDQ R12, AX; \
	MOVUPS X3, (AX); \
	LEAQ (SI)(R11*4), SI; \
	LEAQ (DI)(R12*4), DI; \
	SUBQ $4, R8; \
	JMP  rows4; \
tail4: \
	TESTQ R8, R8; \
	JZ   done4; \
	XORPS X0, X0; \
	MOVQ SI, AX; \
	BSET; \
	MOVQ R9, CX; \
	NEGQ CX; \
t4l: \
	BOFF; \
	MOVUPS BROW(0), X8; \
	MOVSS (AX), X10; \
	SHUFPS $0x00, X10, X10; \
	MULPS X8, X10; \
	ADDPS X10, X0; \
	ADDQ $4, AX; \
	BADV; \
	INCQ CX; \
	JNZ  t4l; \
	MOVUPS X0, (DI); \
	ADDQ R11, SI; \
	ADDQ R12, DI; \
	DECQ R8; \
	JMP  tail4; \
done4:

// The AVX2 8-column body: one YMM accumulator per row covers the whole
// block. VMULPS and VADDPS stay separate (no FMA), so every lane performs
// the same two float32 roundings per step as the SSE2 and scalar kernels.
#define AVX2BODY \
	TESTQ R9, R9; \
	JZ   vdone8; \
vrows8: \
	CMPQ R8, $4; \
	JL   vtail8; \
	VXORPS Y0, Y0, Y0; \
	VXORPS Y1, Y1, Y1; \
	VXORPS Y2, Y2, Y2; \
	VXORPS Y3, Y3, Y3; \
	MOVQ SI, AX; \
	LEAQ (SI)(R11*1), BX; \
	LEAQ (SI)(R11*2), R13; \
	LEAQ (BX)(R11*2), R14; \
	BSET; \
	MOVQ R9, CX; \
	NEGQ CX; \
vl8: \
	BOFF; \
	VMOVUPS BROW(0), Y8; \
	VBROADCASTSS (AX), Y10; \
	VMULPS Y8, Y10, Y10; \
	VADDPS Y10, Y0, Y0; \
	VBROADCASTSS (BX), Y10; \
	VMULPS Y8, Y10, Y10; \
	VADDPS Y10, Y1, Y1; \
	VBROADCASTSS (R13), Y10; \
	VMULPS Y8, Y10, Y10; \
	VADDPS Y10, Y2, Y2; \
	VBROADCASTSS (R14), Y10; \
	VMULPS Y8, Y10, Y10; \
	VADDPS Y10, Y3, Y3; \
	ADDQ $4, AX; \
	ADDQ $4, BX; \
	ADDQ $4, R13; \
	ADDQ $4, R14; \
	BADV; \
	INCQ CX; \
	JNZ  vl8; \
	MOVQ DI, AX; \
	VMOVUPS Y0, (AX); \
	ADDQ R12, AX; \
	VMOVUPS Y1, (AX); \
	ADDQ R12, AX; \
	VMOVUPS Y2, (AX); \
	ADDQ R12, AX; \
	VMOVUPS Y3, (AX); \
	LEAQ (SI)(R11*4), SI; \
	LEAQ (DI)(R12*4), DI; \
	SUBQ $4, R8; \
	JMP  vrows8; \
vtail8: \
	TESTQ R8, R8; \
	JZ   vdone8; \
	VXORPS Y0, Y0, Y0; \
	MOVQ SI, AX; \
	BSET; \
	MOVQ R9, CX; \
	NEGQ CX; \
vt8l: \
	BOFF; \
	VMOVUPS BROW(0), Y8; \
	VBROADCASTSS (AX), Y10; \
	VMULPS Y8, Y10, Y10; \
	VADDPS Y10, Y0, Y0; \
	ADDQ $4, AX; \
	BADV; \
	INCQ CX; \
	JNZ  vt8l; \
	VMOVUPS Y0, (DI); \
	ADDQ R11, SI; \
	ADDQ R12, DI; \
	DECQ R8; \
	JMP  vtail8; \
vdone8: \
	VZEROUPPER

// The AVX-512 16-column body: one ZMM accumulator per row covers a whole
// 16-column block. VMULPS and VADDPS stay separate (no FMA). Accumulators
// are zeroed with VPXORQ (AVX512F) rather than VXORPS on ZMM (which would
// need AVX512DQ).
#define AVX512BODY \
	TESTQ R9, R9; \
	JZ   zdone16; \
zrows16: \
	CMPQ R8, $4; \
	JL   ztail16; \
	VPXORQ Z0, Z0, Z0; \
	VPXORQ Z1, Z1, Z1; \
	VPXORQ Z2, Z2, Z2; \
	VPXORQ Z3, Z3, Z3; \
	MOVQ SI, AX; \
	LEAQ (SI)(R11*1), BX; \
	LEAQ (SI)(R11*2), R13; \
	LEAQ (BX)(R11*2), R14; \
	BSET; \
	MOVQ R9, CX; \
	NEGQ CX; \
zl16: \
	BOFF; \
	VMOVUPS BROW(0), Z8; \
	VBROADCASTSS (AX), Z10; \
	VMULPS Z8, Z10, Z10; \
	VADDPS Z10, Z0, Z0; \
	VBROADCASTSS (BX), Z10; \
	VMULPS Z8, Z10, Z10; \
	VADDPS Z10, Z1, Z1; \
	VBROADCASTSS (R13), Z10; \
	VMULPS Z8, Z10, Z10; \
	VADDPS Z10, Z2, Z2; \
	VBROADCASTSS (R14), Z10; \
	VMULPS Z8, Z10, Z10; \
	VADDPS Z10, Z3, Z3; \
	ADDQ $4, AX; \
	ADDQ $4, BX; \
	ADDQ $4, R13; \
	ADDQ $4, R14; \
	BADV; \
	INCQ CX; \
	JNZ  zl16; \
	MOVQ DI, AX; \
	VMOVUPS Z0, (AX); \
	ADDQ R12, AX; \
	VMOVUPS Z1, (AX); \
	ADDQ R12, AX; \
	VMOVUPS Z2, (AX); \
	ADDQ R12, AX; \
	VMOVUPS Z3, (AX); \
	LEAQ (SI)(R11*4), SI; \
	LEAQ (DI)(R12*4), DI; \
	SUBQ $4, R8; \
	JMP  zrows16; \
ztail16: \
	TESTQ R8, R8; \
	JZ   zdone16; \
	VPXORQ Z0, Z0, Z0; \
	MOVQ SI, AX; \
	BSET; \
	MOVQ R9, CX; \
	NEGQ CX; \
zt16l: \
	BOFF; \
	VMOVUPS BROW(0), Z8; \
	VBROADCASTSS (AX), Z10; \
	VMULPS Z8, Z10, Z10; \
	VADDPS Z10, Z0, Z0; \
	ADDQ $4, AX; \
	BADV; \
	INCQ CX; \
	JNZ  zt16l; \
	VMOVUPS Z0, (DI); \
	ADDQ R11, SI; \
	ADDQ R12, DI; \
	DECQ R8; \
	JMP  ztail16; \
zdone16: \
	VZEROUPPER

// The AVX-512 32-column body: two ZMM accumulators per row (Z{2r}
// columns 0-15, Z{2r+1} columns 16-31), Z8/Z9 the B row halves, Z10 the
// broadcast a, Z11/Z12 the products. Rows run in blocks of 4, then one
// block of 2, then 1, so a block keeps 8, 4 or 2 add chains in flight.
// The a row pointers point at their rows' ends and are indexed by CX,
// which runs from −k to 0, so a step advances no pointer but the strided
// B cursor.
#define AVX512W32BODY \
	TESTQ R9, R9; \
	JZ   wdone; \
wrows4: \
	CMPQ R8, $4; \
	JL   wrows2; \
	VPXORQ Z0, Z0, Z0; \
	VPXORQ Z1, Z1, Z1; \
	VPXORQ Z2, Z2, Z2; \
	VPXORQ Z3, Z3, Z3; \
	VPXORQ Z4, Z4, Z4; \
	VPXORQ Z5, Z5, Z5; \
	VPXORQ Z6, Z6, Z6; \
	VPXORQ Z7, Z7, Z7; \
	LEAQ (SI)(R11*1), AX; \
	LEAQ (SI)(R11*2), BX; \
	LEAQ (AX)(R11*2), R13; \
	LEAQ (SI)(R11*4), R14; \
	BSET; \
	MOVQ R9, CX; \
	NEGQ CX; \
wl4: \
	BOFF; \
	VMOVUPS BROW(0), Z8; \
	VMOVUPS BROW(64), Z9; \
	VBROADCASTSS (AX)(CX*4), Z10; \
	VMULPS Z8, Z10, Z11; \
	VMULPS Z9, Z10, Z12; \
	VADDPS Z11, Z0, Z0; \
	VADDPS Z12, Z1, Z1; \
	VBROADCASTSS (BX)(CX*4), Z10; \
	VMULPS Z8, Z10, Z11; \
	VMULPS Z9, Z10, Z12; \
	VADDPS Z11, Z2, Z2; \
	VADDPS Z12, Z3, Z3; \
	VBROADCASTSS (R13)(CX*4), Z10; \
	VMULPS Z8, Z10, Z11; \
	VMULPS Z9, Z10, Z12; \
	VADDPS Z11, Z4, Z4; \
	VADDPS Z12, Z5, Z5; \
	VBROADCASTSS (R14)(CX*4), Z10; \
	VMULPS Z8, Z10, Z11; \
	VMULPS Z9, Z10, Z12; \
	VADDPS Z11, Z6, Z6; \
	VADDPS Z12, Z7, Z7; \
	BADV; \
	INCQ CX; \
	JNZ  wl4; \
	MOVQ DI, AX; \
	VMOVUPS Z0, (AX); \
	VMOVUPS Z1, 64(AX); \
	ADDQ R12, AX; \
	VMOVUPS Z2, (AX); \
	VMOVUPS Z3, 64(AX); \
	ADDQ R12, AX; \
	VMOVUPS Z4, (AX); \
	VMOVUPS Z5, 64(AX); \
	ADDQ R12, AX; \
	VMOVUPS Z6, (AX); \
	VMOVUPS Z7, 64(AX); \
	MOVQ R14, SI; \
	LEAQ (DI)(R12*4), DI; \
	SUBQ $4, R8; \
	JMP  wrows4; \
wrows2: \
	CMPQ R8, $2; \
	JL   wrows1; \
	VPXORQ Z0, Z0, Z0; \
	VPXORQ Z1, Z1, Z1; \
	VPXORQ Z2, Z2, Z2; \
	VPXORQ Z3, Z3, Z3; \
	LEAQ (SI)(R11*1), AX; \
	LEAQ (SI)(R11*2), BX; \
	BSET; \
	MOVQ R9, CX; \
	NEGQ CX; \
wl2: \
	BOFF; \
	VMOVUPS BROW(0), Z8; \
	VMOVUPS BROW(64), Z9; \
	VBROADCASTSS (AX)(CX*4), Z10; \
	VMULPS Z8, Z10, Z11; \
	VMULPS Z9, Z10, Z12; \
	VADDPS Z11, Z0, Z0; \
	VADDPS Z12, Z1, Z1; \
	VBROADCASTSS (BX)(CX*4), Z10; \
	VMULPS Z8, Z10, Z11; \
	VMULPS Z9, Z10, Z12; \
	VADDPS Z11, Z2, Z2; \
	VADDPS Z12, Z3, Z3; \
	BADV; \
	INCQ CX; \
	JNZ  wl2; \
	VMOVUPS Z0, (DI); \
	VMOVUPS Z1, 64(DI); \
	VMOVUPS Z2, (DI)(R12*1); \
	VMOVUPS Z3, 64(DI)(R12*1); \
	MOVQ BX, SI; \
	LEAQ (DI)(R12*2), DI; \
	SUBQ $2, R8; \
wrows1: \
	TESTQ R8, R8; \
	JZ   wdone; \
	VPXORQ Z0, Z0, Z0; \
	VPXORQ Z1, Z1, Z1; \
	LEAQ (SI)(R11*1), AX; \
	BSET; \
	MOVQ R9, CX; \
	NEGQ CX; \
wl1: \
	BOFF; \
	VMOVUPS BROW(0), Z8; \
	VMOVUPS BROW(64), Z9; \
	VBROADCASTSS (AX)(CX*4), Z10; \
	VMULPS Z8, Z10, Z11; \
	VMULPS Z9, Z10, Z12; \
	VADDPS Z11, Z0, Z0; \
	VADDPS Z12, Z1, Z1; \
	BADV; \
	INCQ CX; \
	JNZ  wl1; \
	VMOVUPS Z0, (DI); \
	VMOVUPS Z1, 64(DI); \
wdone: \
	VZEROUPPER

// ARGS loads the six operands every kernel shares and derives the byte
// strides.
#define ARGS \
	MOVQ a+0(FP), SI; \
	MOVQ bk+8(FP), DX; \
	MOVQ c+16(FP), DI; \
	MOVQ m+24(FP), R8; \
	MOVQ k+32(FP), R9; \
	MOVQ n+40(FP), R12; \
	SHLQ $2, R12; \
	MOVQ R9, R11; \
	SHLQ $2, R11

// TABLE loads the offset table and points R10 one past its end.
#define TABLE \
	MOVQ off+48(FP), R10; \
	LEAQ (R10)(R11*1), R10

// The strided form: B row l is bk + l·n.
#define BSET MOVQ DX, R15
#define BOFF
#define BROW(d) d(R15)
#define BADV ADDQ R12, R15

// func sgemm4cols(a, bk, c *float32, m, k, n int)
//
// c[i][0:4] = Σ_l a[i][l]·bk[l][0:4] for i in [0,m), SSE2: the only
// block of the SSE2 rung and every rung's narrowest step-down.
TEXT ·sgemm4cols(SB), NOSPLIT, $0-48
	ARGS
	SSE4BODY
	RET

// func sgemm8colsAVX2(a, bk, c *float32, m, k, n int)
//
// Only reachable after the CPUID gate in sgemm_amd64.go confirms AVX2+OS
// support.
TEXT ·sgemm8colsAVX2(SB), NOSPLIT, $0-48
	ARGS
	AVX2BODY
	RET

// func sgemm16colsAVX512(a, bk, c *float32, m, k, n int)
//
// Only reachable after the hasAVX512 gate in sgemm_amd64.go confirms the
// v4 feature set and OS ZMM state support.
TEXT ·sgemm16colsAVX512(SB), NOSPLIT, $0-48
	ARGS
	AVX512BODY
	RET

// func sgemm32colsAVX512(a, bk, c *float32, m, k, n int)
//
// The widest block on the AVX-512 rung; gated like sgemm16colsAVX512.
TEXT ·sgemm32colsAVX512(SB), NOSPLIT, $0-48
	ARGS
	AVX512W32BODY
	RET

#undef BSET
#undef BOFF
#undef BROW
#undef BADV

// The table form: B row l is bk + off[l].
#define BSET
#define BOFF MOVLQSX (R10)(CX*4), R15
#define BROW(d) d(DX)(R15*4)
#define BADV

// func sgemm4colsTaps(a, bk, c *float32, m, k, n int, off *int32)
TEXT ·sgemm4colsTaps(SB), NOSPLIT, $0-56
	ARGS
	TABLE
	SSE4BODY
	RET

// func sgemm8colsAVX2Taps(a, bk, c *float32, m, k, n int, off *int32)
TEXT ·sgemm8colsAVX2Taps(SB), NOSPLIT, $0-56
	ARGS
	TABLE
	AVX2BODY
	RET

// func sgemm16colsAVX512Taps(a, bk, c *float32, m, k, n int, off *int32)
TEXT ·sgemm16colsAVX512Taps(SB), NOSPLIT, $0-56
	ARGS
	TABLE
	AVX512BODY
	RET

// func sgemm32colsAVX512Taps(a, bk, c *float32, m, k, n int, off *int32)
TEXT ·sgemm32colsAVX512Taps(SB), NOSPLIT, $0-56
	ARGS
	TABLE
	AVX512W32BODY
	RET
