package bitset

import (
	"math/rand"
	"testing"
)

// Differential harness for the counting kernels. The reference oracle below
// counts bit by bit — no bits.OnesCount64, no word tricks — so it shares no
// code, and therefore no bugs, with any implementation under test. Every
// registered kernelImpl (the unrolled Go loops always; the assembly
// whenever the CPU supports it, regardless of SGTREE_NO_ASM) is checked
// against the oracle on identical inputs: exhaustive tail-length sweeps,
// handcrafted SIMD-hostile patterns, misaligned views, and fuzzed inputs
// (kernels_fuzz_test.go).

// --- the naive reference oracle ---

func naiveCount(a []uint64) int {
	c := 0
	for _, w := range a {
		for b := 0; b < 64; b++ {
			if w>>uint(b)&1 == 1 {
				c++
			}
		}
	}
	return c
}

func naiveCombine(a, b []uint64, op func(x, y uint64) uint64) int {
	c := 0
	for i := range b {
		c += naiveCount([]uint64{op(a[i], b[i])})
	}
	return c
}

func naiveAndCount(a, b []uint64) int {
	return naiveCombine(a, b, func(x, y uint64) uint64 { return x & y })
}

func naiveAndNotCount(a, b []uint64) int {
	return naiveCombine(a, b, func(x, y uint64) uint64 { return x &^ y })
}

func naiveOrCount(a, b []uint64) int {
	return naiveCombine(a, b, func(x, y uint64) uint64 { return x | y })
}

func naiveXorCount(a, b []uint64) int {
	return naiveCombine(a, b, func(x, y uint64) uint64 { return x ^ y })
}

// --- contract checkers ---

// checkPairwise runs every registered implementation of the exact pairwise
// kernels against the oracle.
func checkPairwise(t *testing.T, label string, a, b []uint64) {
	t.Helper()
	wantCount := naiveCount(a)
	wantAnd := naiveAndCount(a, b)
	wantAndNot := naiveAndNotCount(a, b)
	wantOr := naiveOrCount(a, b)
	wantXor := naiveXorCount(a, b)
	for _, impl := range kernelImpls {
		if got := impl.count(a); got != wantCount {
			t.Errorf("%s: %s count = %d, oracle %d", label, impl.name, got, wantCount)
		}
		if got := impl.andCount(a, b); got != wantAnd {
			t.Errorf("%s: %s andCount = %d, oracle %d", label, impl.name, got, wantAnd)
		}
		if got := impl.andNotCount(a, b); got != wantAndNot {
			t.Errorf("%s: %s andNotCount = %d, oracle %d", label, impl.name, got, wantAndNot)
		}
		if got := impl.orCount(a, b); got != wantOr {
			t.Errorf("%s: %s orCount = %d, oracle %d", label, impl.name, got, wantOr)
		}
		if got := impl.xorCount(a, b); got != wantXor {
			t.Errorf("%s: %s xorCount = %d, oracle %d", label, impl.name, got, wantXor)
		}
	}
}

// --- input generators ---

// patterns returns the SIMD-hostile word patterns for a given word count:
// all zeros, all ones, a single bit in the first word, a single bit in the
// last word, alternating bits, and a deterministic random fill.
func patterns(words int, rng *rand.Rand) [][]uint64 {
	mk := func(fill func(i int) uint64) []uint64 {
		w := make([]uint64, words)
		for i := range w {
			w[i] = fill(i)
		}
		return w
	}
	out := [][]uint64{
		mk(func(int) uint64 { return 0 }),
		mk(func(int) uint64 { return ^uint64(0) }),
		mk(func(int) uint64 { return 0x5555555555555555 }),
		mk(func(int) uint64 { return rng.Uint64() }),
	}
	if words > 0 {
		single := mk(func(int) uint64 { return 0 })
		single[0] = 1
		out = append(out, single)
		last := mk(func(int) uint64 { return 0 })
		last[words-1] = 1 << 63
		out = append(out, last)
	}
	return out
}

// TestKernelDifferentialExhaustive sweeps every word count a signature of
// length [0, 4*64+3] can produce — all the unroll and tail boundaries of
// the 4x loops and the 32-byte SIMD chunks — crossing the hostile patterns
// pairwise and checking every kernel against the bit-by-bit oracle.
func TestKernelDifferentialExhaustive(t *testing.T) {
	if len(kernelImpls) < 2 {
		t.Logf("only the generic implementation is registered on this machine (kernels=%s)", Kernels())
	}
	rng := rand.New(rand.NewSource(42))
	for words := 0; words <= 8; words++ {
		pats := patterns(words, rng)
		for ai, a := range pats {
			for bi, b := range pats {
				label := labelFor(words, ai, bi)
				checkPairwise(t, label, a, b)
			}
		}
	}
}

func labelFor(words, ai, bi int) string {
	return "words=" + itoa(words) + " a#" + itoa(ai) + " b#" + itoa(bi)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// TestKernelDifferentialBitLengths runs the Bitset-level operations for
// every bit length in [0, 4*wordBits+3]: the View/tail-mask layer on top of
// the kernels, with random contents per length.
func TestKernelDifferentialBitLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for n := 0; n <= 4*wordBits+3; n++ {
		a, b := New(n), New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 1 {
				a.Set(i)
			}
			if rng.Intn(2) == 1 {
				b.Set(i)
			}
		}
		checkPairwise(t, "bits="+itoa(n), a.Words(), b.Words())

		// Cross-check the Bitset methods themselves (they route through the
		// selected kernel, which may differ from any tested above when
		// SGTREE_NO_ASM is set).
		if got, want := a.Count(), naiveCount(a.Words()); got != want {
			t.Fatalf("bits=%d: Count = %d, oracle %d", n, got, want)
		}
		if got, want := a.AndCount(b), naiveAndCount(a.Words(), b.Words()); got != want {
			t.Fatalf("bits=%d: AndCount = %d, oracle %d", n, got, want)
		}
		if got, want := a.HammingDistance(b), naiveXorCount(a.Words(), b.Words()); got != want {
			t.Fatalf("bits=%d: HammingDistance = %d, oracle %d", n, got, want)
		}
	}
}

// TestKernelMisalignedViews drives the kernels through View slices at every
// word offset of a shared backing array: the asm must not assume 16- or
// 32-byte alignment of either operand (it uses unaligned loads), and this
// is where that assumption would break.
func TestKernelMisalignedViews(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const words = 7
	backing := make([]uint64, words+8)
	for i := range backing {
		backing[i] = rng.Uint64()
	}
	for off := 0; off <= 8; off++ {
		a := backing[off : off+words]
		b := make([]uint64, words)
		for i := range b {
			b[i] = rng.Uint64()
		}
		checkPairwise(t, "off="+itoa(off), a, b)

		va := View(a, words*wordBits)
		vb := View(b, words*wordBits)
		if got, want := va.HammingDistance(&vb), naiveXorCount(a, b); got != want {
			t.Fatalf("off=%d: misaligned View HammingDistance = %d, oracle %d", off, got, want)
		}
	}
}

// --- slab kernels ---

func naiveSlabCheck(t *testing.T, label string, q, slab []uint64, stride int, rows int) {
	t.Helper()
	for _, impl := range kernelImpls {
		if impl.andCountSlab == nil {
			continue
		}
		out := make([]int32, rows)
		kernels := []struct {
			name  string
			slabF func(q, slab []uint64, stride int, out []int32)
			pair  func(a, b []uint64) int
		}{
			{"andCountSlab", impl.andCountSlab, naiveAndCount},
			{"andNotCountSlab", impl.andNotCountSlab, naiveAndNotCount},
			{"xorCountSlab", impl.xorCountSlab, naiveXorCount},
		}
		for _, k := range kernels {
			for i := range out {
				out[i] = -1
			}
			k.slabF(q, slab, stride, out)
			for r := 0; r < rows; r++ {
				row := slab[r*stride : r*stride+len(q)]
				if want := int32(k.pair(q, row)); out[r] != want {
					t.Errorf("%s: %s/%s row %d = %d, oracle %d", label, impl.name, k.name, r, out[r], want)
				}
			}
		}
	}
}

// TestSlabKernelDifferential sweeps slab geometries: strides that hit the
// vectorized whole-row path (multiple of 4, len(q) == stride) and strides
// that must fall back to the generic row loop, with row counts around the
// unroll boundaries, against the bit-by-bit oracle. Padding words beyond
// len(q) are filled with garbage for the truncated-row cases to prove they
// are ignored, and zeroed for the padded cases to mirror the production
// layout.
func TestSlabKernelDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for _, stride := range []int{4, 8, 12, 16, 5, 6, 7, 9} {
		for _, qw := range []int{stride, stride - 1, stride - 3, 1} {
			if qw < 0 {
				continue
			}
			for rows := 0; rows <= 17; rows++ {
				slab := make([]uint64, rows*stride)
				for i := range slab {
					slab[i] = rng.Uint64() // garbage padding included
				}
				q := make([]uint64, qw)
				for i := range q {
					q[i] = rng.Uint64()
				}
				label := "stride=" + itoa(stride) + " qw=" + itoa(qw) + " rows=" + itoa(rows)
				naiveSlabCheck(t, label, q, slab, stride, rows)
			}
		}
	}

	// Production layout: zero padding, aligned base, exported entry points.
	const stride, qw, rows = 8, 5, 9
	slab := AlignedWords(rows * stride)
	q := make([]uint64, stride) // zero-padded query
	for r := 0; r < rows; r++ {
		for i := 0; i < qw; i++ {
			slab[r*stride+i] = rng.Uint64()
		}
	}
	for i := 0; i < qw; i++ {
		q[i] = rng.Uint64()
	}
	out := make([]int32, rows)
	AndNotCountSlab(q, slab, stride, out)
	for r := 0; r < rows; r++ {
		row := slab[r*stride : (r+1)*stride]
		if want := int32(naiveAndNotCount(q, row)); out[r] != want {
			t.Errorf("aligned AndNotCountSlab row %d = %d, oracle %d", r, out[r], want)
		}
	}
}

// TestAlignedWords pins the alignment and length contract of the slab
// allocator.
func TestAlignedWords(t *testing.T) {
	if AlignedWords(0) != nil || AlignedWords(-3) != nil {
		t.Fatal("AlignedWords(<=0) must return nil")
	}
	for _, n := range []int{1, 7, 8, 9, 64, 1000} {
		w := AlignedWords(n)
		if len(w) != n || cap(w) != n {
			t.Fatalf("AlignedWords(%d): len=%d cap=%d", n, len(w), cap(w))
		}
		for i, v := range w {
			if v != 0 {
				t.Fatalf("AlignedWords(%d): word %d not zeroed", n, i)
			}
		}
	}
}

// TestSlabPreconditionPanics pins the exported slab functions' argument
// validation.
func TestSlabPreconditionPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	q := make([]uint64, 8)
	mustPanic("stride<len(q)", func() {
		AndCountSlab(q, make([]uint64, 32), 4, make([]int32, 2))
	})
	mustPanic("short slab", func() {
		XorCountSlab(q, make([]uint64, 8), 8, make([]int32, 2))
	})
}
