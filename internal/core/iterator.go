package core

import (
	"context"
	"fmt"

	"sgtree/internal/dataset"
	"sgtree/internal/signature"
	"sgtree/internal/storage"
)

// NNIterator implements distance browsing (Hjaltason & Samet, the paper's
// reference for optimal NN search): it yields indexed signatures in
// non-decreasing distance from the query, on demand. Unlike KNN it needs no
// k up front — callers stop when they have seen enough, and the tree is
// explored lazily with the usual coverage bounds.
//
// The iterator pins one tree snapshot for its whole lifetime: it browses
// the tree exactly as of NewNNIterator, unaffected by (and never blocking)
// concurrent updates. Release the snapshot by draining the iterator or by
// calling Close — an abandoned, unclosed iterator keeps its epoch's pages
// from being reclaimed. A single iterator must not be used from multiple
// goroutines at once.
type NNIterator struct {
	t    *Tree
	q    signature.Signature
	e    *executor
	snap *treeSnapshot // nil once released (exhausted or closed)
	pq   browseHeap
}

// browseItem is either an unexpanded subtree (node != InvalidPage) or a
// data entry with its exact distance.
type browseItem struct {
	dist float64
	node storage.PageID
	area int
	tid  dataset.TID
}

// browseHeap is the distance-browsing frontier: a min-heap hand-rolled
// over the slice like resultHeap and nodePQ (nn.go), keeping browseItems
// out of interface boxes on the per-neighbor loop (and container/heap out
// of the hot path, which sglint's bannedapi enforces).
type browseHeap []browseItem

// browseLess orders the frontier by distance; at equal distance data is
// yielded before expanding subtrees — the order stays non-decreasing (a
// tied subtree can only contain items at this distance or farther) and
// callers consuming a short prefix avoid expanding every tied node — with
// integral Hamming distances the difference is large. Remaining ties break
// by area then tid.
func browseLess(a, b browseItem) bool {
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	aNode := a.node != storage.InvalidPage
	bNode := b.node != storage.InvalidPage
	if aNode != bNode {
		return bNode
	}
	if aNode {
		return a.area < b.area
	}
	return a.tid < b.tid
}

func (h *browseHeap) push(it browseItem) {
	*h = append(*h, it)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !browseLess(s[i], s[p]) {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
}

func (h *browseHeap) pop() browseItem {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	*h = s
	i := 0
	for {
		small := i
		if l := 2*i + 1; l < len(s) && browseLess(s[l], s[small]) {
			small = l
		}
		if r := 2*i + 2; r < len(s) && browseLess(s[r], s[small]) {
			small = r
		}
		if small == i {
			return top
		}
		s[i], s[small] = s[small], s[i]
		i = small
	}
}

// NewNNIterator starts a distance-browsing traversal from q.
func (t *Tree) NewNNIterator(q signature.Signature) (*NNIterator, error) {
	if err := t.checkQuerySignature(q); err != nil {
		return nil, err
	}
	// The iterator owns its executor for the whole browsing session — the
	// frontier spans many Next calls — so unlike the one-shot queries it
	// never returns it to the executor pool. It likewise pins its snapshot
	// once, here, instead of per step: the traversal stays coherent across
	// the whole session even as writers publish new epochs.
	it := &NNIterator{t: t, q: q.Clone(), e: t.newExec(nil), snap: t.pinSnapshot()}
	if it.snap.root != storage.InvalidPage {
		it.pq = browseHeap{{node: it.snap.root}}
	}
	return it, nil
}

// Close releases the iterator's snapshot pin without draining it. It is
// idempotent and safe after exhaustion; the iterator's Stats remain
// readable. Further Next calls return exhausted.
func (it *NNIterator) Close() {
	it.pq = nil
	it.e.finish(nil)
	if it.snap != nil {
		it.snap.release()
		it.snap = nil
	}
}

// Next returns the next neighbor in non-decreasing distance order; ok is
// false when the tree is exhausted.
func (it *NNIterator) Next() (Neighbor, bool, error) {
	return it.NextContext(context.Background())
}

// NextContext is Next with cancellation: node reads performed while
// advancing check ctx, and an aborted call returns ctx's error. The
// iterator remains usable after an abort (the pending frontier is kept).
func (it *NNIterator) NextContext(ctx context.Context) (Neighbor, bool, error) {
	if ctx != nil && ctx != context.Background() {
		it.e.ctx = ctx
		defer func() { it.e.ctx = nil }()
	}
	for len(it.pq) > 0 {
		item := it.pq[0]
		if item.node == storage.InvalidPage {
			it.pq.pop()
			it.e.result(item.tid, item.dist)
			return Neighbor{TID: item.tid, Dist: item.dist}, true, nil
		}
		n, err := it.e.visit(item.node)
		if err != nil {
			// Leave the unexpanded subtree at the top of the frontier so a
			// retry (e.g. after a transient cancellation) resumes cleanly.
			return Neighbor{}, false, fmt.Errorf("core: distance browsing: %w", err)
		}
		it.pq.pop()
		// Both expansion loops only push onto the frontier, so the slab
		// scratch can be consumed in place; distance browsing needs every
		// entry's exact value anyway, which is exactly what the batched
		// scans produce.
		if n.leaf {
			it.e.slabDistances(n, it.q)
			for i := range n.entries {
				it.pq.push(browseItem{dist: it.e.bounds[i], tid: n.entries[i].tid})
			}
			continue
		}
		it.e.slabBounds(n, it.q)
		for i := range n.entries {
			it.pq.push(browseItem{
				dist: it.e.bounds[i],
				node: n.entries[i].child,
				area: n.areas[i],
			})
		}
	}
	// Exhausted: drop the snapshot pin so the epoch's pages can be
	// reclaimed without requiring an explicit Close.
	it.Close()
	return Neighbor{}, false, nil
}

// Stats returns the cumulative work performed so far.
func (it *NNIterator) Stats() QueryStats { return it.e.stats }
