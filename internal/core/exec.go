package core

import (
	"context"
	"errors"
	"math"
	"sync"

	"sgtree/internal/dataset"
	"sgtree/internal/signature"
	"sgtree/internal/storage"
)

// executor is the shared query-execution layer: every read path (predicate
// queries, range search, branch-and-bound NN, joins, walks, distance
// browsing) drives the tree through one of these instead of touching
// readNode and QueryStats directly. The executor owns
//
//   - node loading with cancellation checked at node granularity,
//   - per-query stats accounting,
//   - lower-bound computation and prune bookkeeping,
//   - observer dispatch and the tree's cumulative counters.
//
// An executor serves exactly one traversal and is not safe for concurrent
// use; concurrency comes from running many executors (one per query), each
// over its own pinned snapshot, as the batch engine does.
//
// Executors are pooled (execPool): the scratch state a traversal needs —
// the bounded result heap, the best-first frontier, one branch-ordering
// buffer per tree level — is retained across queries, so a steady query
// stream stops paying per-query allocations for search bookkeeping.
type executor struct {
	t     *Tree
	ctx   context.Context // nil when the query is not cancellable
	obs   Observer        // nil when no hooks are registered
	stats QueryStats
	done  bool

	// Pooled scratch, reset (lengths only) between queries:
	acc        knnAccumulator  // k-NN result accumulator, heap backed by neighbors
	neighbors  []Neighbor      // backing array handed to acc.heap
	pq         nodePQ          // best-first search frontier
	branchFree [][]branchEntry // free list of branch-ordering buffers (one per depth)

	// Slab-scan scratch (slabscan.go). counts and bounds hold one node's
	// batched kernel output and are clobbered by the next slabBounds /
	// slabDistances call, so traversals consume them before recursing;
	// qpad holds the query words zero-padded to the slab row stride.
	counts []int32
	bounds []float64
	qpad   []uint64
}

var execPool = sync.Pool{New: func() interface{} { return new(executor) }}

// newExec builds an executor for one traversal of t, drawing on the pool.
// Query entry points call it after pinning a snapshot — it takes no lock
// itself — and release the executor with e.release() when the traversal —
// including any reads of e.stats — is complete; the query entry points do
// this with defer, which runs after the return values are evaluated.
// NNIterator keeps its executor for the iterator's whole lifetime and
// never returns it to the pool. A nil or Background context disables
// cancellation checks entirely, keeping the legacy APIs at their original
// cost.
func (t *Tree) newExec(ctx context.Context) *executor {
	e := execPool.Get().(*executor)
	e.t = t
	if ctx != nil && ctx != context.Background() {
		e.ctx = ctx
	}
	tObs := t.treeObserver()
	qObs := observerFrom(ctx)
	switch {
	case tObs != nil && qObs != nil:
		e.obs = multiObserver{tObs, qObs}
	case tObs != nil:
		e.obs = tObs
	default:
		e.obs = qObs
	}
	return e
}

// release returns the executor to the pool, keeping the scratch buffers'
// capacity but dropping everything query-specific.
func (e *executor) release() {
	if e.acc.heap != nil {
		// Recover the (possibly grown) heap backing for the next query.
		e.neighbors = e.acc.heap[:0]
	}
	e.acc = knnAccumulator{}
	e.pq = e.pq[:0]
	e.t, e.ctx, e.obs = nil, nil, nil
	e.stats = QueryStats{}
	e.done = false
	execPool.Put(e)
}

// newAccumulator readies the executor's k-NN accumulator on the pooled
// heap backing.
func (e *executor) newAccumulator(k int) *knnAccumulator {
	e.acc = knnAccumulator{k: k, heap: e.neighbors[:0]}
	return &e.acc
}

// getBranches hands out an empty branch-ordering buffer from the free
// list; putBranches returns it. Depth-first traversals use one buffer per
// level, so the free list grows to the tree height and then stops
// allocating.
func (e *executor) getBranches() []branchEntry {
	if n := len(e.branchFree); n > 0 {
		b := e.branchFree[n-1]
		e.branchFree = e.branchFree[:n-1]
		return b[:0]
	}
	return nil
}

func (e *executor) putBranches(b []branchEntry) {
	e.branchFree = append(e.branchFree, b)
}

// visit loads a node of the executor's own tree.
func (e *executor) visit(id storage.PageID) (*node, error) {
	return e.visitIn(e.t, id)
}

// visitIn loads a node of tr (the non-receiver side of a join), checking
// cancellation first and accounting the access. Cancellation is checked
// here — once per node — so an aborted query stops within one node's worth
// of work. The read goes through tr's decoded-node cache; the returned
// node may be shared with concurrent queries and must be treated as
// read-only by every traversal.
func (e *executor) visitIn(tr *Tree, id storage.PageID) (*node, error) {
	if e.ctx != nil {
		if err := e.ctx.Err(); err != nil {
			return nil, err
		}
	}
	n, err := tr.readNodeCached(id)
	if err != nil {
		return nil, err
	}
	e.stats.NodesAccessed++
	if n.leaf {
		e.stats.LeavesAccessed++
	}
	if e.obs != nil {
		e.obs.OnNodeVisit(id, n.leaf)
	}
	return n, nil
}

// testEntry accounts a directory-entry predicate evaluation.
func (e *executor) testEntry() {
	e.stats.EntriesTested++
}

// prune records that the subtree under child was skipped; bound is the
// lower bound that justified it (+Inf for boolean prunes).
func (e *executor) prune(child storage.PageID, bound float64) {
	e.stats.EntriesPruned++
	if e.obs != nil {
		e.obs.OnPrune(child, bound)
	}
}

// compare evaluates the exact distance between the query and a leaf
// signature, counting the comparison.
func (e *executor) compare(q, s signature.Signature) float64 {
	e.stats.DataCompared++
	return e.t.opts.distance(q, s)
}

// testData accounts a leaf predicate evaluation.
func (e *executor) testData() {
	e.stats.DataCompared++
}

// result reports one produced result to the observers.
func (e *executor) result(tid dataset.TID, dist float64) {
	if e.obs != nil {
		e.obs.OnResult(tid, dist)
	}
}

// finish closes the traversal: it folds the per-query stats into the
// tree's cumulative counters, classifies cancellations, and fires
// OnQueryDone. It returns err unchanged so callers can write
// `return out, e.stats, e.finish(err)`. finish is idempotent.
func (e *executor) finish(err error) error {
	if e.done {
		return err
	}
	e.done = true
	c := &e.t.counters
	c.queries.Add(1)
	c.nodesRead.Add(int64(e.stats.NodesAccessed))
	c.entriesPruned.Add(int64(e.stats.EntriesPruned))
	c.dataCompared.Add(int64(e.stats.DataCompared))
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		c.cancellations.Add(1)
	}
	if e.obs != nil {
		e.obs.OnQueryDone(e.stats, err)
	}
	return err
}

// --- shared traversal shapes ---

// predicate describes a boolean tree query: which directory covers may
// hold matches (descend) and which leaf signatures match. The three
// Section 3 query types (containment, exact, subset) are instances.
type predicate struct {
	descend func(cover signature.Signature) bool
	match   func(data signature.Signature) bool
}

// predicateWalk is the single depth-first traversal behind every boolean
// query: descend subtrees admitted by p.descend, collect leaf tids passing
// p.match.
func (e *executor) predicateWalk(id storage.PageID, p predicate, out *[]dataset.TID) error {
	n, err := e.visit(id)
	if err != nil {
		return err
	}
	if n.leaf {
		for i := range n.entries {
			e.testData()
			if p.match(n.entries[i].sig) {
				e.result(n.entries[i].tid, 0)
				*out = append(*out, n.entries[i].tid)
			}
		}
		return nil
	}
	for i := range n.entries {
		e.testEntry()
		if !p.descend(n.entries[i].sig) {
			e.prune(n.entries[i].child, math.Inf(1))
			continue
		}
		if err := e.predicateWalk(n.entries[i].child, p, out); err != nil {
			return err
		}
	}
	return nil
}

// rangeWalk is the depth-first range-query traversal (Section 4.1's bound
// applied with a fixed radius): descend subtrees whose lower bound is
// within eps, collect leaf entries within eps.
func (e *executor) rangeWalk(id storage.PageID, q signature.Signature, eps float64, out *[]Neighbor) error {
	n, err := e.visit(id)
	if err != nil {
		return err
	}
	if n.leaf {
		e.slabDistances(n, q)
		for i := range n.entries {
			if d := e.bounds[i]; !distFails(d, eps, false) {
				e.result(n.entries[i].tid, d)
				*out = append(*out, Neighbor{TID: n.entries[i].tid, Dist: d})
			}
		}
		return nil
	}
	// e.bounds is clobbered by the recursive calls below, so the surviving
	// branches are copied into a pooled buffer first.
	e.slabBounds(n, q)
	branches := e.getBranches()
	for i := range n.entries {
		if md := e.bounds[i]; distFails(md, eps, false) {
			e.prune(n.entries[i].child, md)
		} else {
			branches = append(branches, branchEntry{idx: i, minDist: md})
		}
	}
	for _, b := range branches {
		if err := e.rangeWalk(n.entries[b.idx].child, q, eps, out); err != nil {
			e.putBranches(branches)
			return err
		}
	}
	e.putBranches(branches)
	return nil
}
