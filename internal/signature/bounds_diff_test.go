package signature

import (
	"math"
	"testing"
)

// Differential harness for the bound/distance layer: every full and
// finisher form must agree with a bit-by-bit oracle that evaluates the
// Section 4 definitions literally, bit positions one at a time. This is the
// signature-level arm of the kernel correctness protocol (the word-level
// arm lives in internal/bitset).

// oracleSets decomposes two signatures into the per-position counts every
// metric is defined over, reading bits one by one through Test — no
// popcount kernels involved.
func oracleSets(q, t Signature) (inter, qOnly, tOnly int) {
	for i := 0; i < q.Len(); i++ {
		qb, tb := q.Test(i), t.Test(i)
		switch {
		case qb && tb:
			inter++
		case qb:
			qOnly++
		case tb:
			tOnly++
		}
	}
	return
}

// oracleDistance evaluates Distance from the definitions.
func oracleDistance(m Metric, q, t Signature) float64 {
	inter, qOnly, tOnly := oracleSets(q, t)
	qa, ta := inter+qOnly, inter+tOnly
	switch m {
	case Hamming:
		return float64(qOnly + tOnly)
	case Jaccard:
		union := inter + qOnly + tOnly
		if union == 0 {
			return 0
		}
		return 1 - float64(inter)/float64(union)
	case Dice:
		if qa+ta == 0 {
			return 0
		}
		return 1 - 2*float64(inter)/float64(qa+ta)
	case Cosine:
		if qa == 0 && ta == 0 {
			return 0
		}
		if qa == 0 || ta == 0 {
			return 1
		}
		return 1 - float64(inter)/math.Sqrt(float64(qa)*float64(ta))
	default:
		panic("unknown metric")
	}
}

var allMetrics = []Metric{Hamming, Jaccard, Dice, Cosine}

// diffCheckPair cross-checks every bound/distance form on one (q, e) pair.
func diffCheckPair(t *testing.T, q, e Signature) {
	t.Helper()
	inter, qOnly, _ := oracleSets(q, e)
	qa, ea := q.Area(), e.Area()
	if qa != inter+qOnly {
		t.Fatalf("Area() = %d, oracle %d", qa, inter+qOnly)
	}
	for _, m := range allMetrics {
		// Distance vs oracle, and the FromIntersect finisher vs Distance
		// (must be bit-identical, not merely close).
		want := oracleDistance(m, q, e)
		if got := Distance(m, q, e); got != want {
			t.Errorf("%v Distance = %v, oracle %v", m, got, want)
		}
		if got := DistanceFromIntersect(m, inter, qa, ea); got != want {
			t.Errorf("%v DistanceFromIntersect = %v, oracle %v", m, got, want)
		}

		// MinDist and its finisher.
		wantMD := MinDist(m, q, e)
		if got := MinDistFromIntersect(m, inter, qa); got != wantMD {
			t.Errorf("%v MinDistFromIntersect = %v, MinDist %v", m, got, wantMD)
		}
		// The bound must actually lower-bound the distance to any covered
		// signature; e itself is covered by e, so dist(q, e) qualifies.
		if wantMD > want+1e-12 {
			t.Errorf("%v MinDist %v exceeds distance-to-cover %v", m, wantMD, want)
		}

	}

	// Cardinality-statistics bounds: the FromIntersect finisher must match
	// the full form, and degenerate ranges must reproduce the generic and
	// fixed-card bounds.
	for _, rng := range [][2]int{{0, q.Len()}, {0, 0}, {ea, ea}, {1, 3}, {5, 2}, {-2, 4}} {
		lo, hi := rng[0], rng[1]
		for _, m := range allMetrics {
			full := MinDistCardRange(m, q, e, lo, hi)
			if got := MinDistCardRangeFromIntersect(m, inter, qa, lo, hi); got != full {
				t.Errorf("%v MinDistCardRangeFromIntersect(%d,%d) = %v, full form %v", m, lo, hi, got, full)
			}
		}
	}
	fixed := MinDistFixedCard(Hamming, q, e, ea)
	if got := MinDistFixedCardFromIntersect(inter, qa, ea); got != fixed {
		t.Errorf("MinDistFixedCardFromIntersect = %v, full form %v", got, fixed)
	}
	if cr := MinDistCardRange(Hamming, q, e, ea, ea); cr != fixed {
		t.Errorf("CardRange[d,d] = %v, FixedCard = %v", cr, fixed)
	}
}

// FuzzKernelEquivalence is the signature-level differential fuzz: arbitrary
// bit patterns, every metric, full and finisher forms versus the bit-by-bit
// oracle.
func FuzzKernelEquivalence(f *testing.F) {
	f.Add([]byte{0xFF, 0x0F}, []byte{0xF0, 0xFF})
	f.Add([]byte{}, []byte{})
	f.Add([]byte{0x01}, []byte{0x80, 0x01, 0x02})
	f.Add([]byte{0xAA, 0xAA, 0xAA, 0xAA, 0xAA, 0xAA, 0xAA, 0xAA, 0xAA}, []byte{0x55})
	f.Fuzz(func(t *testing.T, qb, eb []byte) {
		// Equalize lengths: signatures under one tree share a length.
		n := 8 * len(qb)
		if m := 8 * len(eb); m > n {
			n = m
		}
		if n == 0 {
			n = 1
		}
		if n > 4096 {
			return
		}
		q, e := New(n), New(n)
		for i := 0; i < 8*len(qb) && i < n; i++ {
			if qb[i/8]>>(uint(i)%8)&1 == 1 {
				q.Set(i)
			}
		}
		for i := 0; i < 8*len(eb) && i < n; i++ {
			if eb[i/8]>>(uint(i)%8)&1 == 1 {
				e.Set(i)
			}
		}
		diffCheckPair(t, q, e)
	})
}

// TestBoundsDifferentialTable runs diffCheckPair over deterministic edge
// patterns: empty/full/disjoint/identical signatures at the tail-boundary
// lengths.
func TestBoundsDifferentialTable(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 127, 128, 259} {
		empty := New(n)
		full := New(n)
		for i := 0; i < n; i++ {
			full.Set(i)
		}
		half := New(n)
		for i := 0; i < n; i += 2 {
			half.Set(i)
		}
		single := New(n)
		single.Set(n - 1)
		sigs := []Signature{empty, full, half, single}
		for _, q := range sigs {
			for _, e := range sigs {
				diffCheckPair(t, q, e)
			}
		}
	}
}
