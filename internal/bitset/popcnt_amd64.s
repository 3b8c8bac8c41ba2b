//go:build amd64 && !purego

#include "textflag.h"

// Counting kernels. Two families:
//
//   - Pairwise scalar kernels (POPCNT): 4x-unrolled popcount loops over a
//     word-combining op, with a word tail. Four independent POPCNT
//     destination registers (zeroed first — POPCNT has a false output
//     dependency on many Intel cores) keep the adds pipelined.
//   - Slab kernels (AVX2): batched counts of a query against every row of
//     a node's signature slab, using the VPSHUFB nibble-lookup popcount
//     with VPSADBW accumulation. They require whole 32-byte chunks —
//     stride divisible by 4 words and a zero-padded query of exactly
//     stride words; the Go adapters enforce this and fall back otherwise.
//
// Every kernel here is registered with the differential harness
// (kernels_diff_test.go), which checks it bit-for-bit against the naive
// reference and the unrolled Go implementation on fuzzed and exhaustive
// tail-sweep inputs. Edit nothing here without running `go test -run
// Kernel -fuzz FuzzKernelEquivalence ./internal/bitset`.

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

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func asmCount(a []uint64) int
TEXT ·asmCount(SB), NOSPLIT, $0-32
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), CX
	XORQ AX, AX
	XORQ R9, R9
	XORQ R10, R10
	XORQ R11, R11

count4:
	CMPQ CX, $4
	JLT  counttail
	XORL DX, DX
	XORL R8, R8
	XORL R12, R12
	XORL R13, R13
	POPCNTQ 0(SI), DX
	POPCNTQ 8(SI), R8
	POPCNTQ 16(SI), R12
	POPCNTQ 24(SI), R13
	ADDQ DX, AX
	ADDQ R8, R9
	ADDQ R12, R10
	ADDQ R13, R11
	ADDQ $32, SI
	SUBQ $4, CX
	JMP  count4

counttail:
	TESTQ CX, CX
	JZ    countdone
	XORL  DX, DX
	POPCNTQ 0(SI), DX
	ADDQ DX, AX
	ADDQ $8, SI
	DECQ CX
	JMP  counttail

countdone:
	ADDQ R9, AX
	ADDQ R10, AX
	ADDQ R11, AX
	MOVQ AX, ret+24(FP)
	RET

// func asmAndCount(a, b []uint64) int
TEXT ·asmAndCount(SB), NOSPLIT, $0-56
	MOVQ a_base+0(FP), SI
	MOVQ b_base+24(FP), DI
	MOVQ b_len+32(FP), CX
	XORQ AX, AX
	XORQ R9, R9
	XORQ R10, R10
	XORQ R11, R11

and4:
	CMPQ CX, $4
	JLT  andtail
	MOVQ 0(SI), DX
	MOVQ 8(SI), R8
	MOVQ 16(SI), R12
	MOVQ 24(SI), R13
	ANDQ 0(DI), DX
	ANDQ 8(DI), R8
	ANDQ 16(DI), R12
	ANDQ 24(DI), R13
	POPCNTQ DX, DX
	POPCNTQ R8, R8
	POPCNTQ R12, R12
	POPCNTQ R13, R13
	ADDQ DX, AX
	ADDQ R8, R9
	ADDQ R12, R10
	ADDQ R13, R11
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $4, CX
	JMP  and4

andtail:
	TESTQ CX, CX
	JZ    anddone
	MOVQ  0(SI), DX
	ANDQ  0(DI), DX
	POPCNTQ DX, DX
	ADDQ DX, AX
	ADDQ $8, SI
	ADDQ $8, DI
	DECQ CX
	JMP  andtail

anddone:
	ADDQ R9, AX
	ADDQ R10, AX
	ADDQ R11, AX
	MOVQ AX, ret+48(FP)
	RET

// func asmAndNotCount(a, b []uint64) int
// Counts |a &^ b|: load b, invert, AND with a.
TEXT ·asmAndNotCount(SB), NOSPLIT, $0-56
	MOVQ a_base+0(FP), SI
	MOVQ b_base+24(FP), DI
	MOVQ b_len+32(FP), CX
	XORQ AX, AX
	XORQ R9, R9
	XORQ R10, R10
	XORQ R11, R11

andn4:
	CMPQ CX, $4
	JLT  andntail
	MOVQ 0(DI), DX
	MOVQ 8(DI), R8
	MOVQ 16(DI), R12
	MOVQ 24(DI), R13
	NOTQ DX
	NOTQ R8
	NOTQ R12
	NOTQ R13
	ANDQ 0(SI), DX
	ANDQ 8(SI), R8
	ANDQ 16(SI), R12
	ANDQ 24(SI), R13
	POPCNTQ DX, DX
	POPCNTQ R8, R8
	POPCNTQ R12, R12
	POPCNTQ R13, R13
	ADDQ DX, AX
	ADDQ R8, R9
	ADDQ R12, R10
	ADDQ R13, R11
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $4, CX
	JMP  andn4

andntail:
	TESTQ CX, CX
	JZ    andndone
	MOVQ  0(DI), DX
	NOTQ  DX
	ANDQ  0(SI), DX
	POPCNTQ DX, DX
	ADDQ DX, AX
	ADDQ $8, SI
	ADDQ $8, DI
	DECQ CX
	JMP  andntail

andndone:
	ADDQ R9, AX
	ADDQ R10, AX
	ADDQ R11, AX
	MOVQ AX, ret+48(FP)
	RET

// func asmOrCount(a, b []uint64) int
TEXT ·asmOrCount(SB), NOSPLIT, $0-56
	MOVQ a_base+0(FP), SI
	MOVQ b_base+24(FP), DI
	MOVQ b_len+32(FP), CX
	XORQ AX, AX
	XORQ R9, R9
	XORQ R10, R10
	XORQ R11, R11

or4:
	CMPQ CX, $4
	JLT  ortail
	MOVQ 0(SI), DX
	MOVQ 8(SI), R8
	MOVQ 16(SI), R12
	MOVQ 24(SI), R13
	ORQ  0(DI), DX
	ORQ  8(DI), R8
	ORQ  16(DI), R12
	ORQ  24(DI), R13
	POPCNTQ DX, DX
	POPCNTQ R8, R8
	POPCNTQ R12, R12
	POPCNTQ R13, R13
	ADDQ DX, AX
	ADDQ R8, R9
	ADDQ R12, R10
	ADDQ R13, R11
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $4, CX
	JMP  or4

ortail:
	TESTQ CX, CX
	JZ    ordone
	MOVQ  0(SI), DX
	ORQ   0(DI), DX
	POPCNTQ DX, DX
	ADDQ DX, AX
	ADDQ $8, SI
	ADDQ $8, DI
	DECQ CX
	JMP  ortail

ordone:
	ADDQ R9, AX
	ADDQ R10, AX
	ADDQ R11, AX
	MOVQ AX, ret+48(FP)
	RET

// func asmXorCount(a, b []uint64) int
TEXT ·asmXorCount(SB), NOSPLIT, $0-56
	MOVQ a_base+0(FP), SI
	MOVQ b_base+24(FP), DI
	MOVQ b_len+32(FP), CX
	XORQ AX, AX
	XORQ R9, R9
	XORQ R10, R10
	XORQ R11, R11

xor4:
	CMPQ CX, $4
	JLT  xortail
	MOVQ 0(SI), DX
	MOVQ 8(SI), R8
	MOVQ 16(SI), R12
	MOVQ 24(SI), R13
	XORQ 0(DI), DX
	XORQ 8(DI), R8
	XORQ 16(DI), R12
	XORQ 24(DI), R13
	POPCNTQ DX, DX
	POPCNTQ R8, R8
	POPCNTQ R12, R12
	POPCNTQ R13, R13
	ADDQ DX, AX
	ADDQ R8, R9
	ADDQ R12, R10
	ADDQ R13, R11
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $4, CX
	JMP  xor4

xortail:
	TESTQ CX, CX
	JZ    xordone
	MOVQ  0(SI), DX
	XORQ  0(DI), DX
	POPCNTQ DX, DX
	ADDQ DX, AX
	ADDQ $8, SI
	ADDQ $8, DI
	DECQ CX
	JMP  xortail

xordone:
	ADDQ R9, AX
	ADDQ R10, AX
	ADDQ R11, AX
	MOVQ AX, ret+48(FP)
	RET

// --- AVX2 slab kernels ---

// Byte-wise popcount lookup table for VPSHUFB: entry i holds the number
// of set bits in nibble i, replicated across both 128-bit lanes.
DATA popcntNibbleLUT<>+0(SB)/8, $0x0302020102010100
DATA popcntNibbleLUT<>+8(SB)/8, $0x0403030203020201
DATA popcntNibbleLUT<>+16(SB)/8, $0x0302020102010100
DATA popcntNibbleLUT<>+24(SB)/8, $0x0403030203020201
GLOBL popcntNibbleLUT<>(SB), RODATA|NOPTR, $32

DATA nibbleMask<>+0(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA nibbleMask<>+8(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA nibbleMask<>+16(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA nibbleMask<>+24(SB)/8, $0x0f0f0f0f0f0f0f0f
GLOBL nibbleMask<>(SB), RODATA|NOPTR, $32

// The three slab kernels share one skeleton and differ only in the
// combining instruction (VPAND / VPANDN / VPXOR). Per 32-byte chunk the
// combined vector is popcounted via the nibble LUT (VPSHUFB twice,
// VPADDB) and folded into a per-row qword accumulator with VPSADBW; the
// row total is horizontally summed and stored as an int32. Loads are
// VMOVDQU, so neither the query nor the slab needs 32-byte alignment
// (the decoder aligns slabs anyway for cache-line behaviour).
//
// SLAB_HEAD/SLAB_POPCNT/SLAB_TAIL:
//   R9  query base   SI query cursor (reset per row)
//   DI  slab cursor (advances straight through consecutive rows)
//   BX  out cursor   DX chunks per row   CX chunk countdown
//   R8  rows remaining
//   Y0 row accumulator, Y1 query chunk, Y2 slab chunk, Y3 combined,
//   Y4/Y5 nibble scratch, Y13 zero, Y14 nibble mask, Y15 LUT

#define SLAB_HEAD(rowloop) \
	MOVQ q+0(FP), R9 \
	MOVQ slab+8(FP), DI \
	MOVQ out+16(FP), BX \
	MOVQ stride+24(FP), DX \
	SHRQ $2, DX \
	MOVQ rows+32(FP), R8 \
	VMOVDQU popcntNibbleLUT<>(SB), Y15 \
	VMOVDQU nibbleMask<>(SB), Y14 \
	VPXOR Y13, Y13, Y13 \
rowloop: \
	TESTQ R8, R8 \
	JZ slabdone \
	MOVQ R9, SI \
	MOVQ DX, CX \
	VPXOR Y0, Y0, Y0

#define SLAB_POPCNT \
	VPAND Y3, Y14, Y4 \
	VPSRLW $4, Y3, Y5 \
	VPAND Y5, Y14, Y5 \
	VPSHUFB Y4, Y15, Y4 \
	VPSHUFB Y5, Y15, Y5 \
	VPADDB Y4, Y5, Y4 \
	VPSADBW Y13, Y4, Y4 \
	VPADDQ Y4, Y0, Y0 \
	ADDQ $32, SI \
	ADDQ $32, DI \
	DECQ CX

#define SLAB_TAIL(rowloop) \
	VEXTRACTI128 $1, Y0, X1 \
	VPADDQ X1, X0, X0 \
	VPSHUFD $0x4E, X0, X1 \
	VPADDQ X1, X0, X0 \
	VMOVQ X0, AX \
	MOVL AX, (BX) \
	ADDQ $4, BX \
	DECQ R8 \
	JMP rowloop \
slabdone: \
	VZEROUPPER \
	RET

// func asmAndCountSlab(q, slab *uint64, out *int32, stride, rows int)
TEXT ·asmAndCountSlab(SB), NOSPLIT, $0-40
	SLAB_HEAD(androw)
andchunk:
	VMOVDQU (SI), Y1
	VMOVDQU (DI), Y2
	VPAND   Y1, Y2, Y3
	SLAB_POPCNT
	JNZ andchunk
	SLAB_TAIL(androw)

// func asmAndNotCountSlab(q, slab *uint64, out *int32, stride, rows int)
// VPANDN computes ^Y2 & Y1 = query &^ row.
TEXT ·asmAndNotCountSlab(SB), NOSPLIT, $0-40
	SLAB_HEAD(andnrow)
andnchunk:
	VMOVDQU (SI), Y1
	VMOVDQU (DI), Y2
	VPANDN  Y1, Y2, Y3
	SLAB_POPCNT
	JNZ andnchunk
	SLAB_TAIL(andnrow)

// func asmXorCountSlab(q, slab *uint64, out *int32, stride, rows int)
TEXT ·asmXorCountSlab(SB), NOSPLIT, $0-40
	SLAB_HEAD(xorrow)
xorchunk:
	VMOVDQU (SI), Y1
	VMOVDQU (DI), Y2
	VPXOR   Y1, Y2, Y3
	SLAB_POPCNT
	JNZ xorchunk
	SLAB_TAIL(xorrow)
