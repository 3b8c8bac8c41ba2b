package core

import (
	"sgtree/internal/bitset"
	"sgtree/internal/signature"
)

// Node scans. Decoded nodes keep their entry signatures in one padded,
// cache-line-aligned slab (node.slab); every query computes a node's entry
// lower bounds or exact distances in a single blocked kernel pass over that
// slab — these two functions are the only way a traversal scans a node.
// Every bound and distance the tree uses is a function of x = |q ∩ e| plus
// per-entry integers (areas, cardinality ranges), so one
// bitset.AndCountSlab pass plus the signature package's *FromIntersect
// scalar finishers covers every configuration; the plain-Hamming cases
// skip even that and batch the final count directly (AndNotCountSlab for
// directory bounds, XorCountSlab for leaf distances). The bitset package
// picks the kernel: AVX2 where available, its Go slab loops otherwise
// (non-amd64, no AVX2, SGTREE_NO_ASM).
//
// The finishers are bit-identical to MinDist/Distance for the same integer
// inputs (see the signature package), so every value is exact and a
// traversal recovers prune/accept verdicts as distFails(e.bounds[i], thr,
// strict); slabscan_test.go pins both against the per-entry references.
//
// The scratch rules mirror orderBranches: e.counts and e.bounds are
// executor-level buffers reused across nodes, so traversals must consume
// them before recursing (rangeWalk copies survivors into a pooled
// branchEntry buffer first; the leaf loops and the iterative best-first
// loops consume in place).

// scanBufs sizes the executor's slab scratch for rows entries.
func (e *executor) scanBufs(rows int) (counts []int32, bounds []float64) {
	if cap(e.counts) < rows {
		e.counts = make([]int32, rows)
		e.bounds = make([]float64, rows)
	}
	return e.counts[:rows], e.bounds[:rows]
}

// padQuery returns the query's words zero-padded to stride words, using
// pooled scratch. The padded form lets the vector kernels process whole
// padded slab rows: both sides of every combining op are zero in the
// padding, so the counts equal the unpadded ones.
func (e *executor) padQuery(q signature.Signature, stride int) []uint64 {
	w := q.Bitset.Words()
	if len(w) == stride {
		return w
	}
	if cap(e.qpad) < stride {
		e.qpad = make([]uint64, stride)
	}
	qp := e.qpad[:stride]
	n := copy(qp, w)
	for i := n; i < stride; i++ {
		qp[i] = 0
	}
	return qp
}

// slabBounds computes the exact lower-bound distance between q and every
// directory entry of n in one batched pass, filling e.bounds[i] for entry
// i. n must come from the query-path read (readNodeCached).
//
//sglint:hotpath
func (e *executor) slabBounds(n *node, q signature.Signature) {
	rows := len(n.entries)
	counts, bounds := e.scanBufs(rows) //sglint:alloc executor scratch grows once to the max row count, then is reused across nodes
	qp := e.padQuery(q, n.slabStride)  //sglint:alloc pooled query padding, reallocated only when the stride grows
	m := e.t.opts.Metric
	switch {
	case e.t.opts.CardStats:
		bitset.AndCountSlab(qp, n.slab, n.slabStride, counts)
		qa := q.Area()
		for i, x := range counts {
			bounds[i] = signature.MinDistCardRangeFromIntersect(m, int(x), qa, n.entries[i].lo, n.entries[i].hi)
		}
	case e.t.opts.FixedCardinality > 0:
		bitset.AndCountSlab(qp, n.slab, n.slabStride, counts)
		qa := q.Area()
		for i, x := range counts {
			bounds[i] = signature.MinDistFixedCardFromIntersect(int(x), qa, e.t.opts.FixedCardinality)
		}
	case m == signature.Hamming:
		// mindist(q,e) = |q \ e|, batched directly.
		bitset.AndNotCountSlab(qp, n.slab, n.slabStride, counts)
		for i, c := range counts {
			bounds[i] = float64(c)
		}
	default:
		bitset.AndCountSlab(qp, n.slab, n.slabStride, counts)
		qa := q.Area()
		for i, x := range counts {
			bounds[i] = signature.MinDistFromIntersect(m, int(x), qa)
		}
	}
	e.stats.EntriesTested += rows
}

// slabDistances computes the exact distance between q and every leaf entry
// of n in one batched pass, filling e.bounds[i]. Like slabBounds it takes
// only query-path nodes, whose area cache supplies |t| to the non-Hamming
// finishers.
//
//sglint:hotpath
func (e *executor) slabDistances(n *node, q signature.Signature) {
	m := e.t.opts.Metric
	rows := len(n.entries)
	counts, bounds := e.scanBufs(rows) //sglint:alloc executor scratch grows once to the max row count, then is reused across nodes
	qp := e.padQuery(q, n.slabStride)  //sglint:alloc pooled query padding, reallocated only when the stride grows
	if m == signature.Hamming {
		bitset.XorCountSlab(qp, n.slab, n.slabStride, counts)
		for i, c := range counts {
			bounds[i] = float64(c)
		}
	} else {
		bitset.AndCountSlab(qp, n.slab, n.slabStride, counts)
		qa := q.Area()
		for i, x := range counts {
			bounds[i] = signature.DistanceFromIntersect(m, int(x), qa, n.areas[i])
		}
	}
	e.stats.DataCompared += rows
}
