//go:build !amd64 || purego

package bitset

// Portable dispatch: every kernel runs the unrolled Go implementation
// through a thin direct wrapper. The wrappers inline (and so do the Bitset
// methods calling them), so non-amd64 builds pay nothing for the dispatch
// layer — unlike the amd64 build, which routes through function variables
// to pick an implementation at init.

// Kernels reports the active kernel implementation; without assembly
// support this is always "generic-go".
func Kernels() string { return "generic-go" }

// FastSlabKernels reports whether the batched slab kernels are vectorized;
// never on the portable build.
func FastSlabKernels() bool { return false }

func kernCount(a []uint64) int          { return countGo(a) }
func kernAndCount(a, b []uint64) int    { return andCountGo(a, b) }
func kernAndNotCount(a, b []uint64) int { return andNotCountGo(a, b) }
func kernOrCount(a, b []uint64) int     { return orCountGo(a, b) }
func kernXorCount(a, b []uint64) int    { return xorCountGo(a, b) }

func kernAndCountSlab(q, slab []uint64, stride int, out []int32) {
	andCountSlabGo(q, slab, stride, out)
}

func kernAndNotCountSlab(q, slab []uint64, stride int, out []int32) {
	andNotCountSlabGo(q, slab, stride, out)
}

func kernXorCountSlab(q, slab []uint64, stride int, out []int32) {
	xorCountSlabGo(q, slab, stride, out)
}
