package bitset

import (
	"encoding/binary"
	"testing"
)

// FuzzKernelEquivalence feeds arbitrary word slices to every registered
// kernel implementation and cross-checks them against the bit-by-bit
// oracle — the fuzzing arm of the differential harness (the deterministic
// arm is kernels_diff_test.go). The raw bytes are split into two equal
// word slices; shape steers the slab geometry so the vector whole-row
// path, the adapter fallback and the generic row loop all get fuzzed.
func FuzzKernelEquivalence(f *testing.F) {
	f.Add([]byte{}, 1)
	f.Add([]byte{0xFF, 0x00, 0xAA, 0x55, 0xFF, 0xFF, 0xFF, 0xFF, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08}, 3)
	f.Add(make([]byte, 16*8*2), 1) // two 16-word all-zero operands
	f.Add(makeOnes(9*8*2), 64)     // two 9-word all-one operands
	f.Fuzz(func(t *testing.T, raw []byte, shape int) {
		words := len(raw) / 16 // two equal slices of full words
		a := make([]uint64, words)
		b := make([]uint64, words)
		for i := 0; i < words; i++ {
			a[i] = binary.LittleEndian.Uint64(raw[i*8:])
			b[i] = binary.LittleEndian.Uint64(raw[(words+i)*8:])
		}

		wantCount := naiveCount(a)
		wantAnd := naiveAndCount(a, b)
		wantAndNot := naiveAndNotCount(a, b)
		wantOr := naiveOrCount(a, b)
		wantXor := naiveXorCount(a, b)
		for _, impl := range kernelImpls {
			if got := impl.count(a); got != wantCount {
				t.Fatalf("%s count = %d, oracle %d", impl.name, got, wantCount)
			}
			if got := impl.andCount(a, b); got != wantAnd {
				t.Fatalf("%s andCount = %d, oracle %d", impl.name, got, wantAnd)
			}
			if got := impl.andNotCount(a, b); got != wantAndNot {
				t.Fatalf("%s andNotCount = %d, oracle %d", impl.name, got, wantAndNot)
			}
			if got := impl.orCount(a, b); got != wantOr {
				t.Fatalf("%s orCount = %d, oracle %d", impl.name, got, wantOr)
			}
			if got := impl.xorCount(a, b); got != wantXor {
				t.Fatalf("%s xorCount = %d, oracle %d", impl.name, got, wantXor)
			}
		}

		// Slab kernels: reinterpret a as query, b as first row, and tile b
		// into a few rows with shape steering the stride choice.
		if words > 0 {
			strides := []int{words, (words + 3) &^ 3, (words+3)&^3 + 4}
			stride := strides[abs(shape)%len(strides)]
			rows := 1 + abs(shape)%5
			slab := make([]uint64, rows*stride)
			for r := 0; r < rows; r++ {
				copy(slab[r*stride:r*stride+words], b)
				// rotate to vary the rows
				if words > 1 {
					first := slab[r*stride]
					copy(slab[r*stride:r*stride+words-1], slab[r*stride+1:r*stride+words])
					slab[r*stride+words-1] = first + uint64(r)
				}
			}
			naiveSlabCheck(t, "fuzz-slab", a, slab, stride, rows)
		}
	})
}

func makeOnes(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = 0xFF
	}
	return b
}

func abs(n int) int {
	if n < 0 {
		if n == -n { // MinInt
			return 0
		}
		return -n
	}
	return n
}
