#include "textflag.h"

// The AVX2 split-nibble kernel. Multiplying by a constant is linear over
// GF(2), so c·x = c·(x & 15) ^ c·(x >> 4 << 4): two 16-entry tables per
// coefficient, looked up 32 bytes at a time with VPSHUFB (which shuffles
// within each 128-bit lane, so each table is broadcast to both lanes).
//
// Registers in the loops: Y0-Y7 accumulate output rows 0-7, Y15 is the
// 0x0f mask, Y14/Y13 the low/high nibbles of one source's 32 bytes,
// Y11/Y12 a coefficient's tables. BX is the byte offset, R10 the end,
// SI the source headers, DI the destination headers, DX the tables,
// CX the source count, AX the row count, R8/R9/R11/R12/R13 temporaries.

// ROW adds one coefficient's product of the current source into acc; the
// coefficient's two tables sit at off(R9).
#define ROW(acc, off) \
	VBROADCASTI128 off(R9), Y11 \
	VBROADCASTI128 off+16(R9), Y12 \
	VPSHUFB        Y14, Y11, Y11 \
	VPSHUFB        Y13, Y12, Y12 \
	VPXOR          Y11, acc, acc \
	VPXOR          Y12, acc, acc

// NIBBLES loads source R8's 32 bytes at BX and splits them into Y14 (low
// nibbles) and Y13 (high nibbles).
#define NIBBLES \
	MOVQ    (R8), R13 \
	VMOVDQU (R13)(BX*1), Y14 \
	VPSRLQ  $4, Y14, Y13 \
	VPAND   Y15, Y14, Y14 \
	VPAND   Y15, Y13, Y13

// STORE writes acc to destination row hdr/24 at BX.
#define STORE(acc, hdr) \
	MOVQ    hdr(DI), R13 \
	VMOVDQU acc, (R13)(BX*1)

// START begins one 32-byte step: rewind to source 0 and its tables.
#define START \
	MOVQ SI, R8 \
	MOVQ DX, R9 \
	MOVQ CX, R12

// NEXT moves to the next source, whose tables follow this one's.
#define NEXT(stride, again) \
	ADDQ $24, R8 \
	ADDQ $stride, R9 \
	DECQ R12 \
	JNZ  again

// STEP ends one 32-byte step and loops while BX is short of the end.
#define STEP(again) \
	ADDQ $32, BX \
	CMPQ BX, R10 \
	JB   again \
	VZEROUPPER \
	RET

// func codeNibbles(nib []byte, srcs [][]byte, dsts [][]byte, off int, n int)
TEXT ·codeNibbles(SB), NOSPLIT, $0-88
	MOVQ nib_base+0(FP), DX
	MOVQ srcs_base+24(FP), SI
	MOVQ srcs_len+32(FP), CX
	MOVQ dsts_base+48(FP), DI
	MOVQ dsts_len+56(FP), AX
	MOVQ off+72(FP), BX
	MOVQ n+80(FP), R10
	ADDQ BX, R10
	MOVQ $0x0f, R11
	MOVQ R11, X15
	VPBROADCASTB X15, Y15
	CMPQ AX, $1
	JEQ  rows1
	CMPQ AX, $2
	JEQ  rows2
	CMPQ AX, $3
	JEQ  rows3
	CMPQ AX, $4
	JEQ  rows4
	CMPQ AX, $5
	JEQ  rows5
	CMPQ AX, $6
	JEQ  rows6
	CMPQ AX, $7
	JEQ  rows7
	JMP  rows8

rows1:
	START
	VPXOR Y0, Y0, Y0
src1:
	NIBBLES
	ROW(Y0, 0)
	NEXT(32, src1)
	STORE(Y0, 0)
	STEP(rows1)

rows2:
	START
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
src2:
	NIBBLES
	ROW(Y0, 0)
	ROW(Y1, 32)
	NEXT(64, src2)
	STORE(Y0, 0)
	STORE(Y1, 24)
	STEP(rows2)

rows3:
	START
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
src3:
	NIBBLES
	ROW(Y0, 0)
	ROW(Y1, 32)
	ROW(Y2, 64)
	NEXT(96, src3)
	STORE(Y0, 0)
	STORE(Y1, 24)
	STORE(Y2, 48)
	STEP(rows3)

rows4:
	START
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
src4:
	NIBBLES
	ROW(Y0, 0)
	ROW(Y1, 32)
	ROW(Y2, 64)
	ROW(Y3, 96)
	NEXT(128, src4)
	STORE(Y0, 0)
	STORE(Y1, 24)
	STORE(Y2, 48)
	STORE(Y3, 72)
	STEP(rows4)

rows5:
	START
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	VPXOR Y4, Y4, Y4
src5:
	NIBBLES
	ROW(Y0, 0)
	ROW(Y1, 32)
	ROW(Y2, 64)
	ROW(Y3, 96)
	ROW(Y4, 128)
	NEXT(160, src5)
	STORE(Y0, 0)
	STORE(Y1, 24)
	STORE(Y2, 48)
	STORE(Y3, 72)
	STORE(Y4, 96)
	STEP(rows5)

rows6:
	START
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	VPXOR Y4, Y4, Y4
	VPXOR Y5, Y5, Y5
src6:
	NIBBLES
	ROW(Y0, 0)
	ROW(Y1, 32)
	ROW(Y2, 64)
	ROW(Y3, 96)
	ROW(Y4, 128)
	ROW(Y5, 160)
	NEXT(192, src6)
	STORE(Y0, 0)
	STORE(Y1, 24)
	STORE(Y2, 48)
	STORE(Y3, 72)
	STORE(Y4, 96)
	STORE(Y5, 120)
	STEP(rows6)

rows7:
	START
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	VPXOR Y4, Y4, Y4
	VPXOR Y5, Y5, Y5
	VPXOR Y6, Y6, Y6
src7:
	NIBBLES
	ROW(Y0, 0)
	ROW(Y1, 32)
	ROW(Y2, 64)
	ROW(Y3, 96)
	ROW(Y4, 128)
	ROW(Y5, 160)
	ROW(Y6, 192)
	NEXT(224, src7)
	STORE(Y0, 0)
	STORE(Y1, 24)
	STORE(Y2, 48)
	STORE(Y3, 72)
	STORE(Y4, 96)
	STORE(Y5, 120)
	STORE(Y6, 144)
	STEP(rows7)

rows8:
	START
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	VPXOR Y4, Y4, Y4
	VPXOR Y5, Y5, Y5
	VPXOR Y6, Y6, Y6
	VPXOR Y7, Y7, Y7
src8:
	NIBBLES
	ROW(Y0, 0)
	ROW(Y1, 32)
	ROW(Y2, 64)
	ROW(Y3, 96)
	ROW(Y4, 128)
	ROW(Y5, 160)
	ROW(Y6, 192)
	ROW(Y7, 224)
	NEXT(256, src8)
	STORE(Y0, 0)
	STORE(Y1, 24)
	STORE(Y2, 48)
	STORE(Y3, 72)
	STORE(Y4, 96)
	STORE(Y5, 120)
	STORE(Y6, 144)
	STORE(Y7, 168)
	STEP(rows8)

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET
