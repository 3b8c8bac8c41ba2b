package bitset

import (
	"math/bits"
	"math/rand"
	"testing"
)

// Kernel micro-benchmarks. Naming matters: `make bench-kernels` selects
// `-bench Kernel`, and the scalar baselines (BenchmarkKernelScalar*) are the
// pre-kernel one-word-at-a-time loops kept here for comparison, so one run
// shows the unrolled-vs-scalar and (on capable hardware) asm-vs-Go deltas.
// The word sizes bracket the production geometries: 4 words is a 256-bit
// signature (one slab half-line), 8 is a 512-bit row, 16 and 64 are the
// compressed-codec and long-signature regimes.

var benchWordSizes = []int{4, 8, 16, 64}

func benchWords(n int, seed int64) []uint64 {
	r := rand.New(rand.NewSource(seed))
	w := make([]uint64, n)
	for i := range w {
		w[i] = r.Uint64()
	}
	return w
}

func benchLabel(words int) string {
	return "words=" + itoa(words)
}

// benchSink defeats dead-code elimination of the counted results.
var benchSink int

// scalarAndNotCount is the pre-kernel loop: one word per iteration, no
// unrolling — the baseline the 4x-unrolled Go kernels are measured against.
func scalarAndNotCount(a, b []uint64) int {
	c := 0
	for i := range a {
		c += bits.OnesCount64(a[i] &^ b[i])
	}
	return c
}

func scalarCount(a []uint64) int {
	c := 0
	for i := range a {
		c += bits.OnesCount64(a[i])
	}
	return c
}

func BenchmarkKernelScalarCount(b *testing.B) {
	for _, n := range benchWordSizes {
		a := benchWords(n, 1)
		b.Run(benchLabel(n), func(b *testing.B) {
			b.SetBytes(int64(8 * n))
			for i := 0; i < b.N; i++ {
				benchSink = scalarCount(a)
			}
		})
	}
}

func BenchmarkKernelCount(b *testing.B) {
	for _, n := range benchWordSizes {
		a := benchWords(n, 1)
		b.Run(benchLabel(n), func(b *testing.B) {
			b.SetBytes(int64(8 * n))
			for i := 0; i < b.N; i++ {
				benchSink = kernCount(a)
			}
		})
	}
}

func BenchmarkKernelScalarAndNotCount(b *testing.B) {
	for _, n := range benchWordSizes {
		x, y := benchWords(n, 1), benchWords(n, 2)
		b.Run(benchLabel(n), func(b *testing.B) {
			b.SetBytes(int64(16 * n))
			for i := 0; i < b.N; i++ {
				benchSink = scalarAndNotCount(x, y)
			}
		})
	}
}

func BenchmarkKernelAndNotCount(b *testing.B) {
	for _, n := range benchWordSizes {
		x, y := benchWords(n, 1), benchWords(n, 2)
		b.Run(benchLabel(n), func(b *testing.B) {
			b.SetBytes(int64(16 * n))
			for i := 0; i < b.N; i++ {
				benchSink = kernAndNotCount(x, y)
			}
		})
	}
}

func BenchmarkKernelAndCount(b *testing.B) {
	for _, n := range benchWordSizes {
		x, y := benchWords(n, 1), benchWords(n, 2)
		b.Run(benchLabel(n), func(b *testing.B) {
			b.SetBytes(int64(16 * n))
			for i := 0; i < b.N; i++ {
				benchSink = kernAndCount(x, y)
			}
		})
	}
}

func BenchmarkKernelXorCount(b *testing.B) {
	for _, n := range benchWordSizes {
		x, y := benchWords(n, 1), benchWords(n, 2)
		b.Run(benchLabel(n), func(b *testing.B) {
			b.SetBytes(int64(16 * n))
			for i := 0; i < b.N; i++ {
				benchSink = kernXorCount(x, y)
			}
		})
	}
}

// Slab benchmarks: one batched pass over a 16-row padded slab versus 16
// per-entry kernel calls on the same rows.
const benchSlabRows = 16

func benchSlab(stride, rows int, seed int64) []uint64 {
	s := AlignedWords(stride * rows)
	r := rand.New(rand.NewSource(seed))
	for i := range s {
		s[i] = r.Uint64()
	}
	return s
}

func BenchmarkKernelSlabAndCount(b *testing.B) {
	for _, n := range []int{4, 8, 16} {
		q := benchWords(n, 1)
		slab := benchSlab(n, benchSlabRows, 2)
		out := make([]int32, benchSlabRows)
		b.Run(benchLabel(n), func(b *testing.B) {
			b.SetBytes(int64(8 * n * benchSlabRows))
			for i := 0; i < b.N; i++ {
				AndCountSlab(q, slab, n, out)
			}
		})
	}
}

func BenchmarkKernelSlabAndNotCount(b *testing.B) {
	for _, n := range []int{4, 8, 16} {
		q := benchWords(n, 1)
		slab := benchSlab(n, benchSlabRows, 2)
		out := make([]int32, benchSlabRows)
		b.Run(benchLabel(n), func(b *testing.B) {
			b.SetBytes(int64(8 * n * benchSlabRows))
			for i := 0; i < b.N; i++ {
				AndNotCountSlab(q, slab, n, out)
			}
		})
	}
}

func BenchmarkKernelPerEntryAndNotCount(b *testing.B) {
	for _, n := range []int{4, 8, 16} {
		q := benchWords(n, 1)
		slab := benchSlab(n, benchSlabRows, 2)
		out := make([]int32, benchSlabRows)
		b.Run(benchLabel(n), func(b *testing.B) {
			b.SetBytes(int64(8 * n * benchSlabRows))
			for i := 0; i < b.N; i++ {
				for r := 0; r < benchSlabRows; r++ {
					out[r] = int32(kernAndNotCount(q, slab[r*n:r*n+n]))
				}
			}
		})
	}
}
