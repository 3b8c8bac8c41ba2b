package signature

import "math"

// This file implements the distance lower bounds of Section 4 and the
// Section 6 extensions. All bounds exploit the coverage property: for every
// transaction t indexed under a directory entry with signature e, t ⊆ e.

// Metric identifies the set-theoretic similarity metric the tree searches
// under. Hamming is the paper's primary metric; Jaccard and Dice are the
// Section 6 extension.
type Metric int

const (
	// Hamming distance: |q Δ t|, the size of the symmetric difference.
	Hamming Metric = iota
	// Jaccard distance: 1 − |q∩t|/|q∪t|.
	Jaccard
	// Dice distance: 1 − 2|q∩t|/(|q|+|t|).
	Dice
	// Cosine distance: 1 − |q∩t|/√(|q|·|t|) (the set form of cosine
	// similarity, a.k.a. the Ochiai coefficient).
	Cosine
)

// String returns the metric name.
func (m Metric) String() string {
	switch m {
	case Hamming:
		return "hamming"
	case Jaccard:
		return "jaccard"
	case Dice:
		return "dice"
	case Cosine:
		return "cosine"
	default:
		return "unknown"
	}
}

// Distance returns the distance between two data signatures under m.
// Hamming distances are integral but returned as float64 so all metrics
// share one search code path.
func Distance(m Metric, q, t Signature) float64 {
	switch m {
	case Hamming:
		return float64(q.Hamming(t))
	case Jaccard:
		return 1 - q.Jaccard(t)
	case Dice:
		return 1 - q.Dice(t)
	case Cosine:
		return 1 - q.Cosine(t)
	default:
		panic("signature: unknown metric")
	}
}

// MinDist returns an optimistic lower bound on Distance(m, q, t) over all
// transactions t covered by directory entry e. For Hamming this is the
// paper's mindist(q,e) = |q \ e|: the query items the subtree cannot
// possibly supply must each contribute at least 1 to the symmetric
// difference. For Jaccard/Dice the bound follows from the Section 6 upper
// similarity bound: for any t ⊆ e, |q∩t| ≤ |q∩e| and |q∪t| ≥ |q|, hence
// J(q,t) ≤ |q∩e|/|q|.
func MinDist(m Metric, q, e Signature) float64 {
	if m == Hamming {
		return float64(q.Difference(e))
	}
	return MinDistFromIntersect(m, q.Intersect(e), q.Area())
}

// MinDistFromIntersect is MinDist with the popcounts already done: x is
// |q∩e| and qa is |q|. It is the scalar "finisher" behind the batched slab
// scans — the kernel layer computes x for a whole node in one blocked pass
// (bitset.AndCountSlab) and this function turns each count into the bound.
//
// Every intermediate quantity here is an integer, so any algebraically
// equal way of producing x and qa (|q\e| = qa−x, |q∪e| = qa+ta−x, …) yields
// bit-identical float64 results; the slab scans and MinDist therefore
// agree exactly, which the differential harness asserts.
//
//sglint:hotpath
func MinDistFromIntersect(m Metric, x, qa int) float64 {
	switch m {
	case Hamming:
		return float64(qa - x)
	case Jaccard:
		if qa == 0 {
			return 0
		}
		ub := float64(x) / float64(qa)
		return 1 - ub
	case Dice:
		// 2|q∩t|/(|q|+|t|) ≤ 2|q∩e|/(|q|+|t|) and |t| ≥ |q∩t|; the
		// maximum over feasible |t| is attained at |t| = |q∩t| ≤ |q∩e|,
		// giving similarity ≤ 2x/(|q|+x) with x = |q∩e| (increasing in x).
		xf, qaf := float64(x), float64(qa)
		if qaf+xf == 0 {
			return 0
		}
		return 1 - 2*xf/(qaf+xf)
	case Cosine:
		// |q∩t|/√(|q||t|) with |q∩t| ≤ min(x, |t|) for x = |q∩e|: the
		// maximum over feasible |t| is at |t| = |q∩t| = x, giving
		// similarity ≤ √(x/|q|).
		xf, qaf := float64(x), float64(qa)
		if qaf == 0 {
			return 0
		}
		ub := math.Sqrt(xf / qaf)
		if ub > 1 {
			ub = 1
		}
		return 1 - ub
	default:
		//sglint:alloc panic message on the unreachable unknown-metric arm
		panic("signature: unknown metric")
	}
}

// DistanceFromIntersect is Distance with the popcounts already done: x is
// |q∩t|, qa is |q| and ta is |t|. Like MinDistFromIntersect it is the
// scalar finisher for batched leaf scans, and is bit-identical to Distance
// because all inputs are integers (|qΔt| = qa+ta−2x, |q∪t| = qa+ta−x).
//
//sglint:hotpath
func DistanceFromIntersect(m Metric, x, qa, ta int) float64 {
	switch m {
	case Hamming:
		return float64(qa + ta - 2*x)
	case Jaccard:
		u := qa + ta - x
		if u == 0 {
			return 0 // two empty sets: similarity 1 by convention
		}
		return 1 - float64(x)/float64(u)
	case Dice:
		d := qa + ta
		if d == 0 {
			return 0
		}
		return 1 - 2*float64(x)/float64(d)
	case Cosine:
		if qa == 0 && ta == 0 {
			return 0
		}
		if qa == 0 || ta == 0 {
			return 1
		}
		return 1 - float64(x)/math.Sqrt(float64(qa)*float64(ta))
	default:
		//sglint:alloc panic message on the unreachable unknown-metric arm
		panic("signature: unknown metric")
	}
}

// MinDistCardRange returns a lower bound on Distance(m, q, t) over all
// transactions t ⊆ e whose cardinality lies in [lo, hi]. This implements
// the final paragraph of the paper ("we can use ... statistics from the
// indexed data" to derive stricter bounds): when directory entries carry
// the min/max cardinality of the data beneath them, the bound interpolates
// between the generic coverage bound (lo=0, hi=∞) and the Section 6
// fixed-dimensionality bound (lo=hi=d).
//
// Derivation for Hamming with x = |q∩e|, s = |t| ∈ [lo,hi]:
// |qΔt| = |q| + s − 2|q∩t| ≥ f(s) := |q| + s − 2·min(x, s), which decreases
// to |q|−x at s=x and increases after, so the minimum over [lo,hi] is at
// the point of [lo,hi] closest to x. For Jaccard, |q∩t| ≤ min(x,s) and
// |q∪t| = |q|+s−|q∩t| give similarity ≤ s/|q| for s ≤ x (increasing) and
// ≤ x/(|q|+s−x) for s ≥ x (decreasing), again maximized at the point of
// [lo,hi] closest to x. Dice and Cosine fall back to the generic bound.
func MinDistCardRange(m Metric, q, e Signature, lo, hi int) float64 {
	return MinDistCardRangeFromIntersect(m, q.Intersect(e), q.Area(), lo, hi)
}

// MinDistCardRangeFromIntersect is MinDistCardRange with the popcounts
// already done (x = |q∩e|, qa = |q|), the finisher used by the slab scans
// when directory entries carry cardinality statistics. Bit-identical to
// MinDistCardRange for the same integer inputs.
//
//sglint:hotpath
func MinDistCardRangeFromIntersect(m Metric, x, qa, lo, hi int) float64 {
	if lo < 0 {
		lo = 0
	}
	if hi < lo {
		hi = lo
	}
	switch m {
	case Hamming:
		s := x
		if s < lo {
			s = lo
		}
		if s > hi {
			s = hi
		}
		var bound int
		if s <= x {
			bound = qa - s
		} else {
			bound = qa + s - 2*x
		}
		if relaxed := qa - x; relaxed > bound {
			bound = relaxed
		}
		if bound < 0 {
			bound = 0
		}
		return float64(bound)
	case Jaccard:
		if qa == 0 {
			return 0
		}
		s := x
		if s < lo {
			s = lo
		}
		if s > hi {
			s = hi
		}
		var ub float64
		if s <= x {
			ub = float64(s) / float64(qa)
		} else {
			ub = float64(x) / float64(qa+s-x)
		}
		if ub > 1 {
			ub = 1
		}
		return 1 - ub
	default:
		return MinDistFromIntersect(m, x, qa)
	}
}

// MinDistFixedCard returns the stricter Hamming lower bound of Section 6
// for categorical data of fixed dimensionality: when every indexed tuple
// has exactly d items, |q Δ t| = |q| + d − 2|q∩t| and |q∩t| ≤ min(d, |q|,
// |q∩e|), giving
//
//	mindist_d(q,e) = max(|q \ e|, |q| + d − 2·min(d, |q|, |q∩e|)).
//
// It panics unless m is Hamming (the extension is defined for Hamming).
func MinDistFixedCard(m Metric, q, e Signature, d int) float64 {
	if m != Hamming {
		panic("signature: fixed-cardinality bound defined for Hamming only")
	}
	return MinDistFixedCardFromIntersect(q.Intersect(e), q.Area(), d)
}

// MinDistFixedCardFromIntersect is the Hamming fixed-cardinality bound with
// the popcounts already done (x = |q∩e|, qa = |q|), the slab-scan finisher
// for fixed-dimensionality trees. Bit-identical to MinDistFixedCard.
//
//sglint:hotpath
func MinDistFixedCardFromIntersect(x, qa, d int) float64 {
	maxShared := x
	if d < maxShared {
		maxShared = d
	}
	if qa < maxShared {
		maxShared = qa
	}
	strict := qa + d - 2*maxShared
	relaxed := qa - x // == |q \ e|
	if strict > relaxed {
		return float64(strict)
	}
	return float64(relaxed)
}
