package core

import (
	"context"
	"sync/atomic"

	"sgtree/internal/dataset"
	"sgtree/internal/storage"
)

// Observer receives traversal events from the query executor. Hooks are
// invoked synchronously on the querying goroutine, so implementations must
// be fast and must not call back into the tree (the tree lock is held).
//
// An observer can be attached to a tree (SetObserver: every query reports
// to it) or to a single query (WithObserver on the query context); when
// both are present each event is delivered to both, tree observer first.
type Observer interface {
	// OnNodeVisit fires after a node has been loaded for the traversal.
	OnNodeVisit(id storage.PageID, leaf bool)
	// OnPrune fires when a directory entry's subtree is skipped. For
	// distance queries bound is the lower bound that exceeded the pruning
	// threshold; for boolean (containment-style) prunes it is +Inf.
	OnPrune(child storage.PageID, bound float64)
	// OnResult fires for every result the query produces. Boolean queries
	// report distance 0.
	OnResult(tid dataset.TID, dist float64)
	// OnQueryDone fires once when the traversal finishes, with the final
	// per-query stats and error (nil on success, ctx.Err() on abort).
	OnQueryDone(stats QueryStats, err error)
}

// FuncObserver adapts optional callbacks to the Observer interface; nil
// fields are skipped.
type FuncObserver struct {
	NodeVisit func(id storage.PageID, leaf bool)
	Prune     func(child storage.PageID, bound float64)
	Result    func(tid dataset.TID, dist float64)
	QueryDone func(stats QueryStats, err error)
}

func (f *FuncObserver) OnNodeVisit(id storage.PageID, leaf bool) {
	if f.NodeVisit != nil {
		f.NodeVisit(id, leaf)
	}
}

func (f *FuncObserver) OnPrune(child storage.PageID, bound float64) {
	if f.Prune != nil {
		f.Prune(child, bound)
	}
}

func (f *FuncObserver) OnResult(tid dataset.TID, dist float64) {
	if f.Result != nil {
		f.Result(tid, dist)
	}
}

func (f *FuncObserver) OnQueryDone(stats QueryStats, err error) {
	if f.QueryDone != nil {
		f.QueryDone(stats, err)
	}
}

// multiObserver fans events out to several observers in order.
type multiObserver []Observer

func (m multiObserver) OnNodeVisit(id storage.PageID, leaf bool) {
	for _, o := range m {
		o.OnNodeVisit(id, leaf)
	}
}

func (m multiObserver) OnPrune(child storage.PageID, bound float64) {
	for _, o := range m {
		o.OnPrune(child, bound)
	}
}

func (m multiObserver) OnResult(tid dataset.TID, dist float64) {
	for _, o := range m {
		o.OnResult(tid, dist)
	}
}

func (m multiObserver) OnQueryDone(stats QueryStats, err error) {
	for _, o := range m {
		o.OnQueryDone(stats, err)
	}
}

type observerCtxKey struct{}

// WithObserver attaches a per-query observer to a context. Every query
// executed with the returned context reports its traversal events to obs
// (in addition to the tree-level observer, if any).
func WithObserver(ctx context.Context, obs Observer) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, observerCtxKey{}, obs)
}

// observerFrom extracts the per-query observer, if any.
func observerFrom(ctx context.Context) Observer {
	if ctx == nil {
		return nil
	}
	obs, _ := ctx.Value(observerCtxKey{}).(Observer)
	return obs
}

// observerBox wraps the tree-level observer so queries can load it with a
// single atomic pointer read; a nil box or nil obs both mean "none".
type observerBox struct {
	obs Observer
}

// SetObserver installs (or, with nil, removes) the tree-level observer.
// It takes effect for queries started after the call.
func (t *Tree) SetObserver(obs Observer) {
	t.observer.Store(&observerBox{obs: obs})
}

// treeObserver returns the tree-level observer, or nil.
func (t *Tree) treeObserver() Observer {
	if box := t.observer.Load(); box != nil {
		return box.obs
	}
	return nil
}

// treeCounters are the tree's cumulative query-execution counters,
// maintained atomically so concurrent lock-free queries can all
// update them.
type treeCounters struct {
	queries       atomic.Int64
	nodesRead     atomic.Int64
	entriesPruned atomic.Int64
	dataCompared  atomic.Int64
	cancellations atomic.Int64
}

// Counters is a snapshot of a tree's cumulative query-execution counters.
type Counters struct {
	// Queries is the number of traversals served (each batch query counts
	// its member queries individually).
	Queries int64
	// NodesRead is the total number of node visits across all queries.
	NodesRead int64
	// EntriesPruned is the total number of directory entries whose
	// subtrees were skipped by a bound or predicate.
	EntriesPruned int64
	// DataCompared is the total number of leaf entries compared with
	// queries.
	DataCompared int64
	// Cancellations is the number of traversals aborted by context
	// cancellation or deadline.
	Cancellations int64

	// NodeCacheHits / NodeCacheMisses count query-path node reads served
	// from (resp. decoded into) the decoded-node cache. Both stay zero when
	// the cache is disabled (Options.NodeCacheSize < 0).
	NodeCacheHits   int64
	NodeCacheMisses int64
	// NodeCacheEvictions counts decoded nodes dropped from a full cache
	// to make room for a fresh decode. A steadily climbing value means the
	// working set exceeds Options.NodeCacheSize and queries are paying
	// decode misses on nodes they had already read.
	NodeCacheEvictions int64

	// WAL activity of the tree's buffer pool, all zero when the tree runs
	// without a write-ahead log. These are cumulative (not per-query): a
	// query never writes, so WAL traffic is attributable only to updates
	// and Sync/Close commits.
	WALRecords     int64 // page-image and free records appended
	WALCommits     int64 // commit records appended (one per Sync with dirty state)
	WALCheckpoints int64 // log truncations after a durable checkpoint
	WALBytes       int64 // total record bytes appended
}

// Counters returns a snapshot of the cumulative query counters.
func (t *Tree) Counters() Counters {
	ws := t.pool.WALStats()
	c := Counters{
		Queries:        t.counters.queries.Load(),
		NodesRead:      t.counters.nodesRead.Load(),
		EntriesPruned:  t.counters.entriesPruned.Load(),
		DataCompared:   t.counters.dataCompared.Load(),
		Cancellations:  t.counters.cancellations.Load(),
		WALRecords:     ws.Records,
		WALCommits:     ws.Commits,
		WALCheckpoints: ws.Checkpoints,
		WALBytes:       ws.BytesAppended,
	}
	if t.ncache != nil {
		c.NodeCacheHits = t.ncache.hits.Load()
		c.NodeCacheMisses = t.ncache.misses.Load()
		c.NodeCacheEvictions = t.ncache.evictions.Load()
	}
	return c
}

// ResetCounters zeroes the cumulative query counters (between benchmark
// phases).
func (t *Tree) ResetCounters() {
	t.counters.queries.Store(0)
	t.counters.nodesRead.Store(0)
	t.counters.entriesPruned.Store(0)
	t.counters.dataCompared.Store(0)
	t.counters.cancellations.Store(0)
	if t.ncache != nil {
		t.ncache.resetStats()
	}
}
