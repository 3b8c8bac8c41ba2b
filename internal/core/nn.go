package core

import (
	"context"
	"fmt"
	"math"

	"sgtree/internal/signature"
	"sgtree/internal/storage"
)

// This file implements the nearest-neighbor machinery of Section 4.1: the
// depth-first branch-and-bound algorithm of Figure 4 (an adaptation of
// Roussopoulos et al. to signature covers, with the paper's area
// tie-breaking), its k-NN generalization with a bounded priority queue, the
// all-ties variant, and the optimal best-first algorithm of Hjaltason &
// Samet that Section 4.1 describes as the node-access-optimal alternative.
// All traversals run through the shared executor (exec.go), which owns
// node loading, cancellation, stats and observer dispatch.

// resultHeap is a bounded max-heap holding the k best neighbors found so
// far; the root is the current k-th best, whose distance is the pruning
// bound. The heap is hand-rolled over the slice rather than going through
// container/heap: the interface methods box every Neighbor pushed or
// popped, which is one allocation per candidate on the innermost search
// loop.
type resultHeap []Neighbor

// push adds a neighbor, sifting it up to keep the max-heap property.
func (h *resultHeap) push(nb Neighbor) {
	*h = append(*h, nb)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if s[p].Dist >= s[i].Dist {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
}

// replaceRoot overwrites the current maximum and sifts the replacement
// down — the "evict the k-th best" step of a bounded k-NN heap.
func (h resultHeap) replaceRoot(nb Neighbor) {
	h[0] = nb
	i := 0
	for {
		big := i
		if l := 2*i + 1; l < len(h) && h[l].Dist > h[big].Dist {
			big = l
		}
		if r := 2*i + 2; r < len(h) && h[r].Dist > h[big].Dist {
			big = r
		}
		if big == i {
			return
		}
		h[i], h[big] = h[big], h[i]
		i = big
	}
}

// knnAccumulator tracks the k nearest neighbors during a search.
type knnAccumulator struct {
	k    int
	heap resultHeap
}

// bound returns the pruning distance: +Inf until k results exist, then the
// distance of the k-th best.
func (a *knnAccumulator) bound() float64 {
	if len(a.heap) < a.k {
		return math.Inf(1)
	}
	return a.heap[0].Dist
}

// offer considers a candidate.
func (a *knnAccumulator) offer(n Neighbor) {
	if len(a.heap) < a.k {
		a.heap.push(n)
		return
	}
	if n.Dist < a.heap[0].Dist {
		a.heap.replaceRoot(n)
	}
}

// results returns the neighbors sorted by distance.
func (a *knnAccumulator) results() []Neighbor {
	out := append([]Neighbor(nil), a.heap...)
	sortNeighbors(out)
	return out
}

// NearestNeighbor returns the single nearest neighbor of q using the
// depth-first algorithm of Figure 4. It errors on an empty tree.
func (t *Tree) NearestNeighbor(q signature.Signature) (Neighbor, QueryStats, error) {
	return t.NearestNeighborContext(context.Background(), q)
}

// NearestNeighborContext is NearestNeighbor with cancellation.
func (t *Tree) NearestNeighborContext(ctx context.Context, q signature.Signature) (Neighbor, QueryStats, error) {
	res, stats, err := t.KNNContext(ctx, q, 1)
	if err != nil {
		return Neighbor{}, stats, err
	}
	if len(res) == 0 {
		return Neighbor{}, stats, fmt.Errorf("core: nearest neighbor on an empty tree")
	}
	return res[0], stats, nil
}

// KNN returns the k nearest neighbors of q (fewer if the tree holds fewer
// signatures), sorted by distance, using depth-first branch and bound.
func (t *Tree) KNN(q signature.Signature, k int) ([]Neighbor, QueryStats, error) {
	return t.KNNContext(context.Background(), q, k)
}

// KNNContext is KNN with cancellation: the traversal checks ctx at every
// node and on abort returns ctx's error with the partial-work stats
// accumulated so far.
func (t *Tree) KNNContext(ctx context.Context, q signature.Signature, k int) ([]Neighbor, QueryStats, error) {
	if err := t.checkQuerySignature(q); err != nil {
		return nil, QueryStats{}, err
	}
	if k < 1 {
		return nil, QueryStats{}, fmt.Errorf("core: k = %d < 1", k)
	}
	snap := t.pinSnapshot()
	defer snap.release()
	if snap.root == storage.InvalidPage {
		return nil, QueryStats{}, nil
	}
	e := t.newExec(ctx)
	defer e.release()
	acc := e.newAccumulator(k)
	if err := e.dfSearch(snap.root, q, acc); err != nil {
		return nil, e.stats, e.finish(err)
	}
	res := acc.results()
	for _, nb := range res {
		e.result(nb.TID, nb.Dist)
	}
	return res, e.stats, e.finish(nil)
}

// branchEntry carries the sort key of Figure 4: ascending optimistic bound,
// ties broken by the smallest area (the smaller cover is the more likely to
// actually contain the optimistic match — see the probabilistic argument in
// Section 4.1).
type branchEntry struct {
	idx     int
	minDist float64
	area    int
}

// orderBranches computes every entry's exact lower bound in one batched
// slab pass and sorts by the Figure 4 key. The buffer comes from the
// executor's per-level free list; callers return it with putBranches.
func (e *executor) orderBranches(n *node, q signature.Signature) []branchEntry {
	branches := e.getBranches()
	e.slabBounds(n, q)
	for i := range n.entries {
		branches = append(branches, branchEntry{idx: i, minDist: e.bounds[i], area: n.areas[i]})
	}
	sortBranches(branches)
	return branches
}

// sortBranches orders by (minDist, area, idx) — ascending bound, area
// tie-break per Section 4.1, entry index as the final deterministic
// tie-break. Insertion sort: nodes hold at most a few tens of entries and
// the bounds arrive nearly sorted often enough that this beats a general
// sort, without the closure allocation of sort.Slice.
func sortBranches(b []branchEntry) {
	for i := 1; i < len(b); i++ {
		x := b[i]
		j := i - 1
		for j >= 0 && branchLess(x, b[j]) {
			b[j+1] = b[j]
			j--
		}
		b[j+1] = x
	}
}

func branchLess(a, b branchEntry) bool {
	if a.minDist != b.minDist {
		return a.minDist < b.minDist
	}
	if a.area != b.area {
		return a.area < b.area
	}
	return a.idx < b.idx
}

// pruneFrom records the branches from position i on as pruned (entries are
// sorted by bound, so once one fails the pruning test the rest do too).
func (e *executor) pruneFrom(n *node, branches []branchEntry, i int) {
	for ; i < len(branches); i++ {
		e.prune(n.entries[branches[i].idx].child, branches[i].minDist)
	}
}

// dfSearch is the recursive procedure of Figure 4 generalized to k results.
func (e *executor) dfSearch(id storage.PageID, q signature.Signature, acc *knnAccumulator) error {
	n, err := e.visit(id)
	if err != nil {
		return err
	}
	if n.leaf {
		e.slabDistances(n, q)
		for i := range n.entries {
			if d := e.bounds[i]; !distFails(d, acc.bound(), true) {
				acc.offer(Neighbor{TID: n.entries[i].tid, Dist: d})
			}
		}
		return nil
	}
	branches := e.orderBranches(n, q)
	defer e.putBranches(branches)
	for bi, b := range branches {
		if b.minDist >= acc.bound() {
			// Entries are sorted: nothing further can improve the result.
			e.pruneFrom(n, branches, bi)
			break
		}
		if err := e.dfSearch(n.entries[b.idx].child, q, acc); err != nil {
			return err
		}
	}
	return nil
}

// AllNearestNeighbors returns every signature at the minimum distance from
// q — the variant of Figure 4 with "<" relaxed to "≤" that the paper
// sketches for retrieving all ties.
func (t *Tree) AllNearestNeighbors(q signature.Signature) ([]Neighbor, QueryStats, error) {
	return t.AllNearestNeighborsContext(context.Background(), q)
}

// AllNearestNeighborsContext is AllNearestNeighbors with cancellation.
func (t *Tree) AllNearestNeighborsContext(ctx context.Context, q signature.Signature) ([]Neighbor, QueryStats, error) {
	if err := t.checkQuerySignature(q); err != nil {
		return nil, QueryStats{}, err
	}
	snap := t.pinSnapshot()
	defer snap.release()
	if snap.root == storage.InvalidPage {
		return nil, QueryStats{}, nil
	}
	e := t.newExec(ctx)
	defer e.release()
	best := math.Inf(1)
	var out []Neighbor
	if err := e.dfSearchAll(snap.root, q, &best, &out); err != nil {
		return nil, e.stats, e.finish(err)
	}
	sortNeighbors(out)
	for _, nb := range out {
		e.result(nb.TID, nb.Dist)
	}
	return out, e.stats, e.finish(nil)
}

func (e *executor) dfSearchAll(id storage.PageID, q signature.Signature, best *float64, out *[]Neighbor) error {
	n, err := e.visit(id)
	if err != nil {
		return err
	}
	if n.leaf {
		e.slabDistances(n, q)
		for i := range n.entries {
			// Inclusive threshold: ties with the current best are kept,
			// anything farther is skipped.
			d := e.bounds[i]
			switch {
			case d < *best:
				*best = d
				*out = (*out)[:0]
				*out = append(*out, Neighbor{TID: n.entries[i].tid, Dist: d})
			case d == *best:
				*out = append(*out, Neighbor{TID: n.entries[i].tid, Dist: d})
			}
		}
		return nil
	}
	branches := e.orderBranches(n, q)
	defer e.putBranches(branches)
	for bi, b := range branches {
		if b.minDist > *best {
			e.pruneFrom(n, branches, bi)
			break
		}
		if err := e.dfSearchAll(n.entries[b.idx].child, q, best, out); err != nil {
			return err
		}
	}
	return nil
}

// pqItem is a priority-queue element of the best-first search: a node (or
// tree region) with its optimistic distance.
type pqItem struct {
	id      storage.PageID
	minDist float64
	area    int
}

// nodePQ is a min-heap over (minDist, area), hand-rolled like resultHeap
// to keep pqItems out of interface boxes on the search's inner loop. The
// backing slice is pooled with the executor.
type nodePQ []pqItem

func pqLess(a, b pqItem) bool {
	if a.minDist != b.minDist {
		return a.minDist < b.minDist
	}
	return a.area < b.area
}

func (h *nodePQ) push(it pqItem) {
	*h = append(*h, it)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !pqLess(s[i], s[p]) {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
}

func (h *nodePQ) pop() pqItem {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	*h = s
	i := 0
	for {
		small := i
		if l := 2*i + 1; l < len(s) && pqLess(s[l], s[small]) {
			small = l
		}
		if r := 2*i + 2; r < len(s) && pqLess(s[r], s[small]) {
			small = r
		}
		if small == i {
			return top
		}
		s[i], s[small] = s[small], s[i]
		i = small
	}
}

// KNNBestFirst returns the k nearest neighbors using the optimal best-first
// strategy (Hjaltason & Samet): a global priority queue of subtrees ordered
// by optimistic distance. It visits the provably minimal set of nodes, at
// the cost of the queue bookkeeping — the trade-off Section 4.1 discusses
// against the simpler depth-first algorithm.
func (t *Tree) KNNBestFirst(q signature.Signature, k int) ([]Neighbor, QueryStats, error) {
	return t.KNNBestFirstContext(context.Background(), q, k)
}

// KNNBestFirstContext is KNNBestFirst with cancellation.
func (t *Tree) KNNBestFirstContext(ctx context.Context, q signature.Signature, k int) ([]Neighbor, QueryStats, error) {
	if err := t.checkQuerySignature(q); err != nil {
		return nil, QueryStats{}, err
	}
	if k < 1 {
		return nil, QueryStats{}, fmt.Errorf("core: k = %d < 1", k)
	}
	snap := t.pinSnapshot()
	defer snap.release()
	if snap.root == storage.InvalidPage {
		return nil, QueryStats{}, nil
	}
	e := t.newExec(ctx)
	defer e.release()
	acc := e.newAccumulator(k)
	pq := &e.pq
	pq.push(pqItem{id: snap.root, minDist: 0})
	for len(*pq) > 0 {
		item := pq.pop()
		if item.minDist >= acc.bound() {
			e.prune(item.id, item.minDist)
			continue
		}
		n, err := e.visit(item.id)
		if err != nil {
			return nil, e.stats, e.finish(err)
		}
		if n.leaf {
			e.slabDistances(n, q)
			for i := range n.entries {
				if d := e.bounds[i]; !distFails(d, acc.bound(), true) {
					acc.offer(Neighbor{TID: n.entries[i].tid, Dist: d})
				}
			}
			continue
		}
		// The loop body only pushes onto the frontier (no recursion, no
		// nested slab scan), so consuming e.bounds in place is safe.
		e.slabBounds(n, q)
		for i := range n.entries {
			if md := e.bounds[i]; distFails(md, acc.bound(), true) {
				e.prune(n.entries[i].child, md)
			} else {
				pq.push(pqItem{
					id:      n.entries[i].child,
					minDist: md,
					area:    n.areas[i],
				})
			}
		}
	}
	res := acc.results()
	for _, nb := range res {
		e.result(nb.TID, nb.Dist)
	}
	return res, e.stats, e.finish(nil)
}
