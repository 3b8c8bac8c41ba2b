package core

import (
	"context"
	"errors"
	"fmt"

	"sgtree/internal/dataset"
	"sgtree/internal/signature"
	"sgtree/internal/storage"
)

// This file is the exact-verification half of the approximate sketch
// tier (DESIGN.md §13): the sketch index outside this package nominates
// candidate leaf pages, and the entry points here scan exactly those
// leaves with the same slab kernels the full traversals use, so every
// reported distance is exact and route-mode results are a subset of the
// exact answer by construction.
//
// Leaf page ids are only meaningful within one snapshot epoch —
// copy-on-write updates relocate pages, so a page id harvested at epoch
// N may name a freed page, a directory page, or unrelated data at epoch
// N+1. The contract is therefore epoch-stamped end to end: WalkLeaves
// reports the epoch it walked, and the candidate scans pin the current
// snapshot and refuse with ErrStaleLeaves unless the epochs match. The
// caller reacts by rebuilding its leaf set (the facade rebuilds the
// sketch index) and retrying, or falling back to an exact query.

// ErrStaleLeaves reports that a candidate-leaf query carried leaf page
// ids from a snapshot epoch that is no longer current; the caller's
// leaf set must be rebuilt from a fresh WalkLeaves.
var ErrStaleLeaves = errors.New("core: candidate leaves are from a stale snapshot epoch")

// Epoch returns the snapshot epoch of the currently published tree
// version. It advances by one on every successful update, so equal
// epochs mean identical trees (within one tree's lifetime in memory).
func (t *Tree) Epoch() uint64 {
	s := t.pinSnapshot()
	defer s.release()
	return s.epoch
}

// WalkLeaves visits every indexed ⟨signature, tid⟩ pair together with
// the id of the leaf page holding it, in leaf order, and returns the
// snapshot epoch the walk observed — the epoch the reported leaf ids
// are valid for (pass it to CandidateKNNContext / CandidateRangeContext
// along with any subset of the leaf ids). The signature is only valid
// for the duration of the call; returning false stops the walk early.
func (t *Tree) WalkLeaves(ctx context.Context, fn func(leaf storage.PageID, sig signature.Signature, tid dataset.TID) bool) (uint64, error) {
	snap := t.pinSnapshot()
	defer snap.release()
	if snap.root == storage.InvalidPage {
		return snap.epoch, nil
	}
	e := t.newExec(ctx)
	defer e.release()
	_, err := e.walkLeavesRec(snap.root, fn)
	return snap.epoch, e.finish(err)
}

func (e *executor) walkLeavesRec(id storage.PageID, fn func(storage.PageID, signature.Signature, dataset.TID) bool) (bool, error) {
	n, err := e.visit(id)
	if err != nil {
		return false, err
	}
	if n.leaf {
		for i := range n.entries {
			if !fn(id, n.entries[i].sig, n.entries[i].tid) {
				return false, nil
			}
		}
		return true, nil
	}
	for i := range n.entries {
		cont, err := e.walkLeavesRec(n.entries[i].child, fn)
		if err != nil || !cont {
			return cont, err
		}
	}
	return true, nil
}

// CandidateKNN is CandidateKNNContext without cancellation.
func (t *Tree) CandidateKNN(q signature.Signature, k int, epoch uint64, leaves []storage.PageID) ([]Neighbor, QueryStats, error) {
	return t.CandidateKNNContext(context.Background(), q, k, epoch, leaves)
}

// CandidateKNNContext answers a k-nearest-neighbor query restricted to
// the given candidate leaf pages: every entry of every listed leaf is
// compared exactly (slab kernels where available), and the k nearest
// survivors are returned in (distance, TID) order. The leaf ids must
// come from a WalkLeaves at the same epoch; if the tree has moved on,
// the call fails with ErrStaleLeaves without touching any page.
//
// The result is the exact top-k of the candidate multiset, so it is a
// subset of the exact k-NN answer whenever the candidate leaves contain
// the true neighbors — the sketch tier's recall knob controls that
// probability, never the correctness of the reported distances.
func (t *Tree) CandidateKNNContext(ctx context.Context, q signature.Signature, k int, epoch uint64, leaves []storage.PageID) ([]Neighbor, QueryStats, error) {
	if err := t.checkQuerySignature(q); err != nil {
		return nil, QueryStats{}, err
	}
	if k < 1 {
		return nil, QueryStats{}, fmt.Errorf("core: k = %d < 1", k)
	}
	snap := t.pinSnapshot()
	defer snap.release()
	if snap.epoch != epoch {
		return nil, QueryStats{}, ErrStaleLeaves
	}
	if snap.root == storage.InvalidPage || len(leaves) == 0 {
		return nil, QueryStats{}, nil
	}
	e := t.newExec(ctx)
	defer e.release()
	acc := e.newAccumulator(k)
	for _, id := range leaves {
		if err := e.scanLeafKNN(id, q, acc); err != nil {
			return nil, e.stats, e.finish(err)
		}
	}
	res := acc.results()
	for _, nb := range res {
		e.result(nb.TID, nb.Dist)
	}
	return res, e.stats, e.finish(nil)
}

// CandidateRange is CandidateRangeContext without cancellation.
func (t *Tree) CandidateRange(q signature.Signature, eps float64, epoch uint64, leaves []storage.PageID) ([]Neighbor, QueryStats, error) {
	return t.CandidateRangeContext(context.Background(), q, eps, epoch, leaves)
}

// CandidateRangeContext answers a range query restricted to the given
// candidate leaf pages, with the same epoch contract as
// CandidateKNNContext. Every returned neighbor carries its exact
// distance and lies within eps, so the result is always a subset of the
// exact range answer — candidates the sketch tier missed are absent,
// false positives are impossible.
func (t *Tree) CandidateRangeContext(ctx context.Context, q signature.Signature, eps float64, epoch uint64, leaves []storage.PageID) ([]Neighbor, QueryStats, error) {
	if err := t.checkQuerySignature(q); err != nil {
		return nil, QueryStats{}, err
	}
	if eps < 0 {
		return nil, QueryStats{}, fmt.Errorf("core: negative range %v", eps)
	}
	snap := t.pinSnapshot()
	defer snap.release()
	if snap.epoch != epoch {
		return nil, QueryStats{}, ErrStaleLeaves
	}
	if snap.root == storage.InvalidPage || len(leaves) == 0 {
		return nil, QueryStats{}, nil
	}
	e := t.newExec(ctx)
	defer e.release()
	var out []Neighbor
	for _, id := range leaves {
		if err := e.scanLeafRange(id, q, eps, &out); err != nil {
			return nil, e.stats, e.finish(err)
		}
	}
	sortNeighbors(out)
	for _, nb := range out {
		e.result(nb.TID, nb.Dist)
	}
	return out, e.stats, e.finish(nil)
}

// scanLeafKNN offers every entry of one candidate leaf to the k-NN
// accumulator — the leaf-handling block of dfSearch, applied to a leaf
// nominated by the sketch tier instead of reached by descent.
//
//sglint:hotpath
func (e *executor) scanLeafKNN(id storage.PageID, q signature.Signature, acc *knnAccumulator) error {
	n, err := e.visit(id)
	if err != nil {
		return err
	}
	if !n.leaf {
		//sglint:alloc error path: boxing the id allocates only on a corrupt candidate set
		return fmt.Errorf("core: candidate page %d is not a leaf", id)
	}
	e.slabDistances(n, q)
	for i := range n.entries {
		if d := e.bounds[i]; !distFails(d, acc.bound(), true) {
			acc.offer(Neighbor{TID: n.entries[i].tid, Dist: d})
		}
	}
	return nil
}

// scanLeafRange collects every entry of one candidate leaf within eps —
// the leaf-handling block of rangeWalk.
//
//sglint:hotpath
func (e *executor) scanLeafRange(id storage.PageID, q signature.Signature, eps float64, out *[]Neighbor) error {
	n, err := e.visit(id)
	if err != nil {
		return err
	}
	if !n.leaf {
		//sglint:alloc error path: boxing the id allocates only on a corrupt candidate set
		return fmt.Errorf("core: candidate page %d is not a leaf", id)
	}
	e.slabDistances(n, q)
	for i := range n.entries {
		if d := e.bounds[i]; !distFails(d, eps, false) {
			*out = append(*out, Neighbor{TID: n.entries[i].tid, Dist: d})
		}
	}
	return nil
}
