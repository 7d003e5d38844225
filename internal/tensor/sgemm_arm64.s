//go:build arm64 && !noasm

#include "textflag.h"

// NEON 4-wide lane kernel for the k-major SGEMM. Each SIMD lane owns one
// output element and accumulates a[i][l]·bk[l][j] in strictly ascending l
// with a separate FMUL/FADD rounding per step, so results are bit-identical
// to the scalar and amd64 kernels. Rows run in blocks of 4 with a
// single-row tail, so any m ≥ 1 is handled entirely in assembly (m = 1 is
// the gemv shape of the single-frame Linear forward).
//
// The Go assembler has no mnemonics for the unfused vector FMUL/FADD
// (only the fused VFMLA, which performs a single rounding and would break
// the bit-identity contract), so those two instructions are emitted as
// WORD directives with fixed registers:
//
//	WORD $0x6E28DD4B  =  FMUL V11.4S, V10.4S, V8.4S   (V11 = V10 * V8)
//	WORD $0x4E2BD400  =  FADD V0.4S,  V0.4S,  V11.4S  (V0  += V11)
//	WORD $0x4E2BD421  =  FADD V1.4S,  V1.4S,  V11.4S
//	WORD $0x4E2BD442  =  FADD V2.4S,  V2.4S,  V11.4S
//	WORD $0x4E2BD463  =  FADD V3.4S,  V3.4S,  V11.4S
//
// (FMUL vector: 0x6E20DC00 | m<<16 | n<<5 | d; FADD vector:
// 0x4E20D400 | m<<16 | n<<5 | d — encodings verified by disassembly.)

// Both forms of the kernel share one loop body, NEON4BODY; they differ
// only in where row l of B starts. The strided form (sgemmNeon4cols)
// reads bk + l·n, advancing its cursor by the row stride each step; the
// table form (sgemmNeon4colsTaps) reads bk + off[l], loading one int32 of
// the offset table per step. The body calls three hooks the forms define:
//   BSET  per row block: point the cursor (R11 strided, R14 table) at row 0
//   BOFF  per step, before the load: R11 = bk + 4·off[l] (table form)
//   BADV  per step, after the load: R11 += n·4 (strided form)
//
// Register layout:
//   R0 a row-block base        R1 bk base          R2 c row-block base
//   R3 remaining rows          R4 k
//   R5 c (and strided bk) row stride (n*4)         R6 a row stride (k*4)
//   R7-R10 the four current a row pointers
//   R11 current B row pointer  R12 l countdown     R13 c store pointer
//   R14 table cursor, R15 off[l], R19 table base (table form)
//   V0-V3 accumulators (one per row)
//   V8 B row                   V10 broadcast a     V11 product scratch
#define NEON4BODY \
	CBZ  R4, ndone4; \
nrows4: \
	CMP  $4, R3; \
	BLT  ntail4; \
	VEOR V0.B16, V0.B16, V0.B16; \
	VEOR V1.B16, V1.B16, V1.B16; \
	VEOR V2.B16, V2.B16, V2.B16; \
	VEOR V3.B16, V3.B16, V3.B16; \
	MOVD R0, R7; \
	ADD  R6, R7, R8; \
	ADD  R6<<1, R7, R9; \
	ADD  R6<<1, R8, R10; \
	BSET; \
	MOVD R4, R12; \
nl4: \
	BOFF; \
	VLD1  (R11), [V8.S4]; \
	VLD1R (R7), [V10.S4]; \
	WORD  $0x6E28DD4B; \
	WORD  $0x4E2BD400; \
	VLD1R (R8), [V10.S4]; \
	WORD  $0x6E28DD4B; \
	WORD  $0x4E2BD421; \
	VLD1R (R9), [V10.S4]; \
	WORD  $0x6E28DD4B; \
	WORD  $0x4E2BD442; \
	VLD1R (R10), [V10.S4]; \
	WORD  $0x6E28DD4B; \
	WORD  $0x4E2BD463; \
	ADD  $4, R7; \
	ADD  $4, R8; \
	ADD  $4, R9; \
	ADD  $4, R10; \
	BADV; \
	SUBS $1, R12, R12; \
	BNE  nl4; \
	MOVD R2, R13; \
	VST1 [V0.S4], (R13); \
	ADD  R5, R13; \
	VST1 [V1.S4], (R13); \
	ADD  R5, R13; \
	VST1 [V2.S4], (R13); \
	ADD  R5, R13; \
	VST1 [V3.S4], (R13); \
	ADD  R6<<2, R0, R0; \
	ADD  R5<<2, R2, R2; \
	SUB  $4, R3, R3; \
	B    nrows4; \
ntail4: \
	CBZ  R3, ndone4; \
	VEOR V0.B16, V0.B16, V0.B16; \
	MOVD R0, R7; \
	BSET; \
	MOVD R4, R12; \
nt4l: \
	BOFF; \
	VLD1  (R11), [V8.S4]; \
	VLD1R (R7), [V10.S4]; \
	WORD  $0x6E28DD4B; \
	WORD  $0x4E2BD400; \
	ADD  $4, R7; \
	BADV; \
	SUBS $1, R12, R12; \
	BNE  nt4l; \
	VST1 [V0.S4], (R2); \
	ADD  R6, R0, R0; \
	ADD  R5, R2, R2; \
	SUB  $1, R3, R3; \
	B    ntail4; \
ndone4:

// ARGS loads the six operands both forms share and derives the byte
// strides; TABLE loads the offset table.
#define ARGS \
	MOVD a+0(FP), R0; \
	MOVD bk+8(FP), R1; \
	MOVD c+16(FP), R2; \
	MOVD m+24(FP), R3; \
	MOVD k+32(FP), R4; \
	MOVD n+40(FP), R5; \
	LSL  $2, R5, R5; \
	LSL  $2, R4, R6

#define TABLE MOVD off+48(FP), R19

#define BSET MOVD R1, R11
#define BOFF
#define BADV ADD R5, R11

// func sgemmNeon4cols(a, bk, c *float32, m, k, n int)
//
// c[i][0:4] = Σ_l a[i][l]·bk[l][0:4] for i in [0,m).
TEXT ·sgemmNeon4cols(SB), NOSPLIT, $0-48
	ARGS
	NEON4BODY
	RET

#undef BSET
#undef BOFF
#undef BADV
#define BSET MOVD R19, R14
#define BOFF MOVWU.P 4(R14), R15; ADD R15<<2, R1, R11
#define BADV

// func sgemmNeon4colsTaps(a, bk, c *float32, m, k, n int, off *int32)
//
// c[i][0:4] = Σ_l a[i][l]·bk[off[l]:][0:4] for i in [0,m).
TEXT ·sgemmNeon4colsTaps(SB), NOSPLIT, $0-56
	ARGS
	TABLE
	NEON4BODY
	RET
