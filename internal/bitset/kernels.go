package bitset

// This file is the portable half of the counting-kernel layer. Every
// popcount-of-a-combination operation the similarity queries run — Count,
// AndCount, AndNotCount, OrCount, XOR/Hamming and the batched slab forms —
// funnels through one kern* dispatch
// function. On amd64 with POPCNT (and AVX2 for the slab kernels) the
// dispatchers select hand-written assembly (popcnt_amd64.s); everywhere
// else, and when the SGTREE_NO_ASM environment variable is set, they run
// the 4x-unrolled pure-Go loops below.
//
// Correctness protocol: the assembly, the unrolled Go loops, and a naive
// bit-by-bit reference must be indistinguishable. The differential harness
// (kernels_diff_test.go, FuzzKernelEquivalence) enforces this over
// exhaustive tail-length sweeps and fuzzed inputs; every implementation is
// registered in kernelImpls so the harness picks up new kernels
// automatically. Do not add a kernel without registering it there.

import (
	"math/bits"
	"unsafe"
)

// cacheLineWords is a 64-byte cache line in uint64 words.
const cacheLineWords = 8

// AlignedWords allocates n words whose base address is 64-byte aligned, for
// slab storage: rows laid out at cache-line-friendly strides then start on
// cache-line boundaries, so a blocked kernel pass touches the minimum number
// of lines per row. Alignment is achieved by over-allocating and slicing;
// the returned slice has length and capacity exactly n. Returns nil for
// n <= 0.
func AlignedWords(n int) []uint64 {
	if n <= 0 {
		return nil
	}
	raw := make([]uint64, n+cacheLineWords-1)
	base := uintptr(unsafe.Pointer(&raw[0]))
	off := 0
	if rem := base % 64; rem != 0 {
		off = int((64 - rem) / 8)
	}
	return raw[off : off+n : off+n]
}

// kernelImpl bundles one complete implementation of the counting kernels.
// The differential test harness runs every registered implementation
// against the naive bit-by-bit reference on identical inputs; production
// dispatch (the kern* functions in kernels_amd64.go / kernels_noasm.go)
// selects exactly one of them at init.
//
// Slab function fields may be nil when an implementation has no batched
// form (the harness skips them); the scalar fields are mandatory.
//
// Contracts shared by all implementations:
//
//   - pairwise kernels require len(a) == len(b) (the callers' mustMatch);
//   - slab kernels count against each of the len(out) rows of
//     slab[r*stride : r*stride+len(q)]; words of a row beyond len(q) are
//     ignored (callers keep row padding zeroed, so implementations that
//     process whole padded rows — the AVX2 path — see identical results).
type kernelImpl struct {
	name string

	count                                    func(a []uint64) int
	andCount, andNotCount, orCount, xorCount func(a, b []uint64) int

	andCountSlab, andNotCountSlab, xorCountSlab func(q, slab []uint64, stride int, out []int32)
}

// kernelImpls lists every implementation compiled into this binary, for
// the differential harness. The generic Go implementation is always
// present; kernels_amd64.go appends the assembly implementation when the
// CPU supports it — independently of SGTREE_NO_ASM, so the harness
// cross-checks the assembly even in runs where dispatch avoids it.
var kernelImpls = []kernelImpl{goKernels}

// goKernels is the portable 4x-unrolled implementation.
var goKernels = kernelImpl{
	name:            "generic-go",
	count:           countGo,
	andCount:        andCountGo,
	andNotCount:     andNotCountGo,
	orCount:         orCountGo,
	xorCount:        xorCountGo,
	andCountSlab:    andCountSlabGo,
	andNotCountSlab: andNotCountSlabGo,
	xorCountSlab:    xorCountSlabGo,
}

// shortKernelWords is the length below which the pairwise Go kernels use a
// plain scalar loop: under two unrolled blocks the four-accumulator setup
// costs more than it saves, and 4-word (256-bit) signatures are the most
// common production geometry.
const shortKernelWords = 8

// countGo is the unrolled popcount. Four independent accumulators break
// the loop-carried dependency so the adds pipeline.
func countGo(a []uint64) int {
	if len(a) < shortKernelWords {
		c := 0
		for i := range a {
			c += bits.OnesCount64(a[i])
		}
		return c
	}
	var c0, c1, c2, c3 int
	i := 0
	for ; i+4 <= len(a); i += 4 {
		c0 += bits.OnesCount64(a[i])
		c1 += bits.OnesCount64(a[i+1])
		c2 += bits.OnesCount64(a[i+2])
		c3 += bits.OnesCount64(a[i+3])
	}
	c := c0 + c1 + c2 + c3
	for ; i < len(a); i++ {
		c += bits.OnesCount64(a[i])
	}
	return c
}

func andCountGo(a, b []uint64) int {
	a = a[:len(b)] // one bounds check up front, none in the loop
	if len(b) < shortKernelWords {
		c := 0
		for i := range b {
			c += bits.OnesCount64(a[i] & b[i])
		}
		return c
	}
	var c0, c1, c2, c3 int
	i := 0
	for ; i+4 <= len(b); i += 4 {
		c0 += bits.OnesCount64(a[i] & b[i])
		c1 += bits.OnesCount64(a[i+1] & b[i+1])
		c2 += bits.OnesCount64(a[i+2] & b[i+2])
		c3 += bits.OnesCount64(a[i+3] & b[i+3])
	}
	c := c0 + c1 + c2 + c3
	for ; i < len(b); i++ {
		c += bits.OnesCount64(a[i] & b[i])
	}
	return c
}

func andNotCountGo(a, b []uint64) int {
	a = a[:len(b)]
	if len(b) < shortKernelWords {
		c := 0
		for i := range b {
			c += bits.OnesCount64(a[i] &^ b[i])
		}
		return c
	}
	var c0, c1, c2, c3 int
	i := 0
	for ; i+4 <= len(b); i += 4 {
		c0 += bits.OnesCount64(a[i] &^ b[i])
		c1 += bits.OnesCount64(a[i+1] &^ b[i+1])
		c2 += bits.OnesCount64(a[i+2] &^ b[i+2])
		c3 += bits.OnesCount64(a[i+3] &^ b[i+3])
	}
	c := c0 + c1 + c2 + c3
	for ; i < len(b); i++ {
		c += bits.OnesCount64(a[i] &^ b[i])
	}
	return c
}

func orCountGo(a, b []uint64) int {
	a = a[:len(b)]
	if len(b) < shortKernelWords {
		c := 0
		for i := range b {
			c += bits.OnesCount64(a[i] | b[i])
		}
		return c
	}
	var c0, c1, c2, c3 int
	i := 0
	for ; i+4 <= len(b); i += 4 {
		c0 += bits.OnesCount64(a[i] | b[i])
		c1 += bits.OnesCount64(a[i+1] | b[i+1])
		c2 += bits.OnesCount64(a[i+2] | b[i+2])
		c3 += bits.OnesCount64(a[i+3] | b[i+3])
	}
	c := c0 + c1 + c2 + c3
	for ; i < len(b); i++ {
		c += bits.OnesCount64(a[i] | b[i])
	}
	return c
}

func xorCountGo(a, b []uint64) int {
	a = a[:len(b)]
	if len(b) < shortKernelWords {
		c := 0
		for i := range b {
			c += bits.OnesCount64(a[i] ^ b[i])
		}
		return c
	}
	var c0, c1, c2, c3 int
	i := 0
	for ; i+4 <= len(b); i += 4 {
		c0 += bits.OnesCount64(a[i] ^ b[i])
		c1 += bits.OnesCount64(a[i+1] ^ b[i+1])
		c2 += bits.OnesCount64(a[i+2] ^ b[i+2])
		c3 += bits.OnesCount64(a[i+3] ^ b[i+3])
	}
	c := c0 + c1 + c2 + c3
	for ; i < len(b); i++ {
		c += bits.OnesCount64(a[i] ^ b[i])
	}
	return c
}

// --- batched slab kernels, generic form ---

func andCountSlabGo(q, slab []uint64, stride int, out []int32) {
	for r := range out {
		row := slab[r*stride : r*stride+len(q)]
		out[r] = int32(andCountGo(q, row))
	}
}

func andNotCountSlabGo(q, slab []uint64, stride int, out []int32) {
	for r := range out {
		row := slab[r*stride : r*stride+len(q)]
		out[r] = int32(andNotCountGo(q, row))
	}
}

func xorCountSlabGo(q, slab []uint64, stride int, out []int32) {
	for r := range out {
		row := slab[r*stride : r*stride+len(q)]
		out[r] = int32(xorCountGo(q, row))
	}
}

// checkSlab validates the shared slab-kernel preconditions.
func checkSlab(q, slab []uint64, stride int, rows int) {
	if stride < len(q) {
		panic("bitset: slab stride shorter than the query")
	}
	if rows > 0 && len(slab) < rows*stride {
		panic("bitset: slab too short for the requested rows")
	}
}

// AndCountSlab computes |q ∩ rowᵢ| for each of the len(out) signature rows
// of the slab, writing the counts to out. Row i occupies
// slab[i*stride : (i+1)*stride]; only its first len(q) words are counted
// (rows padded with zero words beyond len(q) yield identical results, which
// is what lets the vectorized path process whole padded rows). One batched
// call replaces len(out) pairwise AndCount calls on the node-scan hot path.
func AndCountSlab(q, slab []uint64, stride int, out []int32) {
	checkSlab(q, slab, stride, len(out))
	kernAndCountSlab(q, slab, stride, out)
}

// AndNotCountSlab is AndCountSlab for |q \ rowᵢ| — the batched form of the
// plain-Hamming mindist kernel.
func AndNotCountSlab(q, slab []uint64, stride int, out []int32) {
	checkSlab(q, slab, stride, len(out))
	kernAndNotCountSlab(q, slab, stride, out)
}

// XorCountSlab is AndCountSlab for |q Δ rowᵢ| — the batched Hamming
// distance over a leaf's entry slab. For zero-padded rows the query must
// either be at most len-of-row words or itself zero-padded, since XOR
// against implicit zeros only works when both sides agree on the padding.
func XorCountSlab(q, slab []uint64, stride int, out []int32) {
	checkSlab(q, slab, stride, len(out))
	kernXorCountSlab(q, slab, stride, out)
}
