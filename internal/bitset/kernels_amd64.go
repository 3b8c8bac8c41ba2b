//go:build amd64 && !purego

package bitset

import "os"

// Assembly kernels (popcnt_amd64.s). The pairwise kernels need POPCNT
// only; the slab kernels additionally need AVX2 (they use the
// VPSHUFB nibble-lookup popcount). Selection happens once at init:
// dispatch never re-checks features on the hot path.

//go:noescape
func asmCount(a []uint64) int

//go:noescape
func asmAndCount(a, b []uint64) int

//go:noescape
func asmAndNotCount(a, b []uint64) int

//go:noescape
func asmOrCount(a, b []uint64) int

//go:noescape
func asmXorCount(a, b []uint64) int

//go:noescape
func asmAndCountSlab(q, slab *uint64, out *int32, stride, rows int)

//go:noescape
func asmAndNotCountSlab(q, slab *uint64, out *int32, stride, rows int)

//go:noescape
func asmXorCountSlab(q, slab *uint64, out *int32, stride, rows int)

// cpuid and xgetbv wrap the raw instructions for feature detection.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

var (
	// hasPOPCNT / hasAVX2 report raw CPU capability; useAsm / useAVX2 are
	// the dispatch switches, which additionally honour SGTREE_NO_ASM. The
	// differential harness registers the assembly kernels whenever the CPU
	// is capable, so they stay cross-checked even when dispatch avoids
	// them.
	hasPOPCNT, hasAVX2 bool
	useAsm, useAVX2    bool
)

// Dispatch runs through these function variables, bound exactly once — the
// unrolled Go implementations by default, rebound to the assembly entry
// points in init when the CPU qualifies and SGTREE_NO_ASM is unset — and
// never written afterwards. Variables instead of branching wrapper
// functions keep the Bitset methods cheap enough to inline into callers,
// so a counting call stays one call deep, exactly like the pre-kernel
// scalar loops. (The portable build in kernels_noasm.go uses direct
// wrappers instead: with only one implementation there, an indirect call
// would be pure overhead.)
var (
	kernCount           = countGo
	kernAndCount        = andCountGo
	kernAndNotCount     = andNotCountGo
	kernOrCount         = orCountGo
	kernXorCount        = xorCountGo
	kernAndCountSlab    = andCountSlabGo
	kernAndNotCountSlab = andNotCountSlabGo
	kernXorCountSlab    = xorCountSlabGo
)

func init() {
	hasPOPCNT, hasAVX2 = detectCPU()
	// SGTREE_NO_ASM (any non-empty value) forces the pure-Go kernels; the
	// escape hatch for debugging miscompares and for exercising the
	// fallback path in CI.
	if os.Getenv("SGTREE_NO_ASM") == "" {
		useAsm, useAVX2 = hasPOPCNT, hasAVX2
	}
	if useAsm {
		kernCount = asmCount
		kernAndCount = asmAndCount
		kernAndNotCount = asmAndNotCount
		kernOrCount = asmOrCount
		kernXorCount = asmXorCount
	}
	if useAVX2 {
		kernAndCountSlab = andCountSlabAsm
		kernAndNotCountSlab = andNotCountSlabAsm
		kernXorCountSlab = xorCountSlabAsm
	}
	if hasPOPCNT {
		impl := kernelImpl{
			name:        "amd64-popcnt",
			count:       asmCount,
			andCount:    asmAndCount,
			andNotCount: asmAndNotCount,
			orCount:     asmOrCount,
			xorCount:    asmXorCount,
		}
		if hasAVX2 {
			impl.name = "amd64-avx2+popcnt"
			impl.andCountSlab = andCountSlabAsm
			impl.andNotCountSlab = andNotCountSlabAsm
			impl.xorCountSlab = xorCountSlabAsm
		}
		kernelImpls = append(kernelImpls, impl)
	}
}

// detectCPU probes POPCNT and AVX2 support, including the OS-enabled-YMM
// check (OSXSAVE + XCR0 bits 1:2) that AVX use requires.
func detectCPU() (popcnt, avx2 bool) {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 1 {
		return false, false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	popcnt = ecx1&(1<<23) != 0
	const osxsaveBit, avxBit = 1 << 27, 1 << 28
	if maxLeaf >= 7 && ecx1&osxsaveBit != 0 && ecx1&avxBit != 0 {
		if lo, _ := xgetbv(); lo&0x6 == 0x6 { // XMM and YMM state enabled
			_, ebx7, _, _ := cpuid(7, 0)
			avx2 = ebx7&(1<<5) != 0
		}
	}
	return popcnt, avx2
}

// Kernels reports the active kernel implementation, for diagnostics and
// the benchmark labels: "amd64-avx2+popcnt", "amd64-popcnt" or
// "generic-go".
func Kernels() string {
	switch {
	case useAVX2:
		return "amd64-avx2+popcnt"
	case useAsm:
		return "amd64-popcnt"
	default:
		return "generic-go"
	}
}

// FastSlabKernels reports whether the batched slab kernels are vectorized
// on this machine (and not disabled via SGTREE_NO_ASM); otherwise they run
// the generic Go slab loops. Diagnostics and benchmark labels report it.
func FastSlabKernels() bool { return useAVX2 }

// The asm slab entry points take raw pointers; these adapters apply the
// vector-path preconditions (whole padded rows, 32-byte chunks) and fall
// back to the generic loop when they do not hold. They are what both
// dispatch and the differential harness run, so the precondition logic is
// itself under test.

func andCountSlabAsm(q, slab []uint64, stride int, out []int32) {
	if len(out) == 0 {
		return
	}
	if stride%4 != 0 || len(q) != stride {
		andCountSlabGo(q, slab, stride, out)
		return
	}
	asmAndCountSlab(&q[0], &slab[0], &out[0], stride, len(out))
}

func andNotCountSlabAsm(q, slab []uint64, stride int, out []int32) {
	if len(out) == 0 {
		return
	}
	if stride%4 != 0 || len(q) != stride {
		andNotCountSlabGo(q, slab, stride, out)
		return
	}
	asmAndNotCountSlab(&q[0], &slab[0], &out[0], stride, len(out))
}

func xorCountSlabAsm(q, slab []uint64, stride int, out []int32) {
	if len(out) == 0 {
		return
	}
	if stride%4 != 0 || len(q) != stride {
		xorCountSlabGo(q, slab, stride, out)
		return
	}
	asmXorCountSlab(&q[0], &slab[0], &out[0], stride, len(out))
}
