// Package sgtree is a similarity-search index for sets and categorical
// data, implementing the signature tree (SG-tree) of Mamoulis, Cheung and
// Lian, "Similarity Search in Sets and Categorical Data Using the Signature
// Tree" (ICDE 2003).
//
// An Index stores sets of integer items (transactions, tags, market
// baskets, categorical tuples) keyed by a caller-chosen id, and answers:
//
//   - k-nearest-neighbor and range queries under Hamming (symmetric
//     difference), Jaccard, Dice or Cosine distance, plus incremental
//     distance browsing;
//   - containment queries ("all sets including these items"), subset and
//     exact-match queries;
//   - similarity joins, k-NN joins and closest-pair queries between two
//     indexes, and structural clustering of one index.
//
// The index is a disk-oriented paginated structure: it is fully dynamic
// (insert/delete), supports gray-code bulk loading, and can live on a
// memory pager (default) or a file pager for persistence. See the
// examples/ directory for runnable walkthroughs and DESIGN.md for how the
// implementation maps to the paper.
package sgtree

import (
	"context"
	"fmt"

	"sgtree/internal/core"
	"sgtree/internal/dataset"
	"sgtree/internal/signature"
	"sgtree/internal/storage"
)

// Metric selects the distance the index searches under.
type Metric = signature.Metric

// Available metrics.
const (
	// Hamming is the size of the symmetric difference |A Δ B| — the
	// paper's primary metric.
	Hamming = signature.Hamming
	// Jaccard is 1 − |A∩B|/|A∪B|.
	Jaccard = signature.Jaccard
	// Dice is 1 − 2|A∩B|/(|A|+|B|).
	Dice = signature.Dice
	// Cosine is 1 − |A∩B|/√(|A|·|B|) (set cosine / Ochiai).
	Cosine = signature.Cosine
)

// SplitPolicy selects the node-split algorithm (Section 3.1 of the paper).
type SplitPolicy = core.SplitPolicy

// Split policies. MinSplit is the paper's recommendation after its Table 1
// comparison: the best tree quality at acceptable build cost.
const (
	QSplit   = core.QSplit
	AvSplit  = core.AvSplit
	MinSplit = core.MinSplit
)

// ChoosePolicy selects the insertion ChooseSubtree heuristic.
type ChoosePolicy = core.ChoosePolicy

// Choose policies. MinEnlargement is the paper's default.
const (
	MinEnlargement = core.MinEnlargement
	MinOverlap     = core.MinOverlap
)

// Config configures an Index. The zero value is invalid: Universe is
// required.
type Config struct {
	// Universe is the number of distinct items; item ids must lie in
	// [0, Universe). Required.
	Universe int
	// SignatureLength is the bitmap length. 0 (default) means Universe:
	// one bit per item, making all distances exact. A smaller value
	// switches to hashed superimposed coding: the index shrinks but
	// reported distances become lower bounds and containment results
	// carry false positives (never false negatives).
	SignatureLength int
	// Metric is the search distance (default Hamming).
	Metric Metric
	// Split is the node split policy. The zero value is QSplit; the paper
	// recommends MinSplit (see the constants above), which must be set
	// explicitly.
	Split SplitPolicy
	// Choose is the insertion heuristic (default MinEnlargement).
	Choose ChoosePolicy
	// PageSize is the node page size in bytes (default 4096).
	PageSize int
	// BufferPages is the buffer-pool capacity in pages (default 256).
	BufferPages int
	// MaxNodeEntries caps the node fanout (default 64).
	MaxNodeEntries int
	// MaxNodePages lets a node span this many chained pages (default 1),
	// allowing signatures much larger than the page size; reading an
	// L-page node costs L page accesses.
	MaxNodePages int
	// Compress enables the sparse-signature encoding of Section 3.2
	// (recommended for sparse data; default off to match the paper's
	// uncompressed baseline configuration).
	Compress bool
	// FixedCardinality declares that every indexed set has exactly this
	// many items (e.g. categorical tuples over this many attributes) and
	// enables the stricter Section 6 search bound. 0 disables it.
	FixedCardinality int
	// ForcedReinsert enables R*-tree-style overflow treatment: evict and
	// re-insert the cover-stretching entries of an overflowing node
	// before resorting to a split. Better clustering, costlier inserts.
	ForcedReinsert bool
	// CardStats maintains min/max set-size statistics in directory
	// entries and uses them to tighten search bounds — worthwhile when
	// the indexed sets vary in size (for Hamming and Jaccard searches).
	CardStats bool
	// Durable (file-backed indexes only) guards every page write with a
	// write-ahead log at path+".wal": each Sync/Close commits atomically,
	// and after a crash Recover (or OpenFile, which recovers implicitly)
	// restores the last committed state. Costs one fsynced log append per
	// page flush.
	Durable bool
	// Sketch enables the approximate query tier (ApproxKNN,
	// ApproxRangeSearch): an in-memory MinHash LSH index that routes
	// each query to a few candidate leaves the tree then verifies
	// exactly. nil disables it; &SketchConfig{} enables it with
	// defaults. See SketchConfig and DESIGN.md §13.
	Sketch *SketchConfig
}

func (c Config) coreOptions() core.Options {
	sigLen := c.SignatureLength
	if sigLen == 0 {
		sigLen = c.Universe
	}
	return core.Options{
		SignatureLength:  sigLen,
		PageSize:         c.PageSize,
		BufferPages:      c.BufferPages,
		Split:            c.Split,
		Choose:           c.Choose,
		Metric:           c.Metric,
		Compress:         c.Compress,
		FixedCardinality: c.FixedCardinality,
		MaxNodeEntries:   c.MaxNodeEntries,
		MaxNodePages:     c.MaxNodePages,
		CardStats:        c.CardStats,
		ForcedReinsert:   c.ForcedReinsert,
	}
}

func (c Config) mapper() signature.Mapper {
	if c.SignatureLength != 0 && c.SignatureLength < c.Universe {
		return signature.NewHashMapper(c.SignatureLength, 0x5347)
	}
	sigLen := c.SignatureLength
	if sigLen == 0 {
		sigLen = c.Universe
	}
	return signature.NewDirectMapper(sigLen)
}

// Match is one similarity-search result: the id the set was inserted under
// and its distance from the query.
type Match struct {
	ID       uint32
	Distance float64
}

// Pair is one join result.
type Pair struct {
	Left, Right uint32
	Distance    float64
}

// Stats reports the work one query performed; see the fields of
// core.QueryStats for the exact semantics.
type Stats struct {
	// NodesAccessed counts index nodes read (≈ random I/Os cold).
	NodesAccessed int
	// DataCompared counts stored sets compared with the query.
	DataCompared int
	// EntriesPruned counts directory entries whose subtrees were skipped.
	EntriesPruned int
}

func toStats(s core.QueryStats) Stats {
	return Stats{NodesAccessed: s.NodesAccessed, DataCompared: s.DataCompared, EntriesPruned: s.EntriesPruned}
}

// PageID identifies a tree page in observer events.
type PageID = storage.PageID

// TID identifies a stored transaction in observer events; it carries the
// same value as Item.ID / Match.ID. Without this alias external code
// could not implement Observer.OnResult or set FuncObserver.Result.
type TID = dataset.TID

// Observer receives per-query traversal events (node visits, prunes,
// results, completion); see core.Observer for the hook semantics. Attach
// one per-index with SetObserver or per-query with WithObserver.
type Observer = core.Observer

// FuncObserver adapts optional callbacks to the Observer interface.
type FuncObserver = core.FuncObserver

// Counters is a snapshot of an index's cumulative query-execution
// counters (queries served, nodes read, entries pruned, data compared,
// cancellations), maintained atomically across concurrent queries.
type Counters = core.Counters

// WithObserver attaches a per-query observer to a context; every query
// executed with the returned context reports its traversal events to obs.
func WithObserver(ctx context.Context, obs Observer) context.Context {
	return core.WithObserver(ctx, obs)
}

func toMatches(ns []core.Neighbor) []Match {
	out := make([]Match, len(ns))
	for i, n := range ns {
		out[i] = Match{ID: uint32(n.TID), Distance: n.Dist}
	}
	return out
}

// Index is a signature tree over sets of items.
type Index struct {
	cfg    Config
	tree   *core.Tree
	mapper signature.Mapper
	exact  bool        // direct mapping: distances are exact
	sketch *sketchTier // nil unless cfg.Sketch is set
}

// New creates an in-memory Index.
func New(cfg Config) (*Index, error) {
	return newIndex(cfg, nil, nil)
}

// NewOnFile creates an Index persisted to the given file (truncating it).
// Call Close to flush before the process exits; reopen with OpenFile. With
// cfg.Durable a write-ahead log is created at path+".wal".
func NewOnFile(cfg Config, path string) (*Index, error) {
	pageSize := cfg.PageSize
	if pageSize == 0 {
		pageSize = storage.DefaultPageSize
	}
	p, err := storage.CreateFilePager(path, pageSize)
	if err != nil {
		return nil, err
	}
	var wal *storage.WAL
	if cfg.Durable {
		if wal, err = storage.CreateWAL(storage.WALPath(path), pageSize); err != nil {
			p.Close()
			return nil, err
		}
	}
	return newIndex(cfg, p, wal)
}

// OpenFile reopens an Index created with NewOnFile. The configuration must
// match the one used at creation. With cfg.Durable the write-ahead log is
// replayed first, so opening after a crash restores the last committed
// state (use Recover to also see the recovery statistics).
func OpenFile(cfg Config, path string) (*Index, error) {
	ix, _, err := openFile(cfg, path)
	return ix, err
}

// RecoveryStats summarizes a WAL recovery pass; see storage.RecoveryStats.
type RecoveryStats = storage.RecoveryStats

// Recover is OpenFile for a durable index that may have crashed: it replays
// the write-ahead log and reports what recovery did. On a cleanly closed
// index the stats are zero.
func Recover(cfg Config, path string) (*Index, RecoveryStats, error) {
	cfg.Durable = true
	return openFile(cfg, path)
}

func openFile(cfg Config, path string) (*Index, RecoveryStats, error) {
	if cfg.Universe <= 0 {
		return nil, RecoveryStats{}, fmt.Errorf("sgtree: Universe must be positive")
	}
	var (
		p     *storage.FilePager
		stats RecoveryStats
		wal   *storage.WAL
		err   error
	)
	if cfg.Durable {
		if p, stats, err = storage.OpenFilePagerRecover(path); err != nil {
			return nil, stats, err
		}
		if wal, err = storage.OpenWAL(storage.WALPath(path), p.PageSize()); err != nil {
			p.Close()
			return nil, stats, err
		}
	} else if p, err = storage.OpenFilePager(path); err != nil {
		return nil, stats, err
	}
	tree, err := core.OpenWithWAL(p, wal, 1, cfg.coreOptions())
	if err != nil {
		p.Close()
		return nil, stats, err
	}
	tier, err := cfg.sketchTier()
	if err != nil {
		tree.Close()
		p.Close()
		return nil, stats, err
	}
	return &Index{
		cfg:    cfg,
		tree:   tree,
		mapper: cfg.mapper(),
		exact:  cfg.SignatureLength == 0 || cfg.SignatureLength >= cfg.Universe,
		sketch: tier,
	}, stats, nil
}

// sketchTier builds the approximate tier for this configuration, or
// nil when Sketch is unset.
func (c Config) sketchTier() (*sketchTier, error) {
	if c.Sketch == nil {
		return nil, nil
	}
	return newSketchTier(c.Sketch, c.Metric)
}

func newIndex(cfg Config, pager storage.Pager, wal *storage.WAL) (*Index, error) {
	if cfg.Universe <= 0 {
		return nil, fmt.Errorf("sgtree: Universe must be positive")
	}
	opts := cfg.coreOptions()
	var tree *core.Tree
	var err error
	if pager == nil {
		tree, err = core.New(opts)
	} else {
		tree, err = core.NewWithPagerWAL(pager, wal, opts)
	}
	if err != nil {
		return nil, err
	}
	tier, err := cfg.sketchTier()
	if err != nil {
		tree.Close()
		return nil, err
	}
	return &Index{
		cfg:    cfg,
		tree:   tree,
		mapper: cfg.mapper(),
		exact:  cfg.SignatureLength == 0 || cfg.SignatureLength >= cfg.Universe,
		sketch: tier,
	}, nil
}

// Exact reports whether distances and predicate results are exact (direct
// item mapping) rather than signature approximations (hashed mapping).
func (ix *Index) Exact() bool { return ix.exact }

// Len returns the number of indexed sets.
func (ix *Index) Len() int { return ix.tree.Len() }

// Height returns the tree height (0 when empty).
func (ix *Index) Height() int { return ix.tree.Height() }

// Close flushes the index to its pager. On a durable index this is a
// commit point, like Sync.
func (ix *Index) Close() error { return ix.tree.Close() }

// Sync flushes all dirty state to the pager. On a durable index the
// updates since the previous Sync become durable atomically: after a
// crash, recovery restores either all of them or none.
func (ix *Index) Sync() error { return ix.tree.Sync() }

// Tree exposes the underlying core tree for benchmarks and advanced use.
func (ix *Index) Tree() *core.Tree { return ix.tree }

func (ix *Index) sig(items []int) (signature.Signature, error) {
	for _, it := range items {
		if it < 0 || it >= ix.cfg.Universe {
			return signature.Signature{}, fmt.Errorf("sgtree: item %d outside universe [0,%d)", it, ix.cfg.Universe)
		}
	}
	return signature.FromItems(ix.mapper, items), nil
}

// Insert adds a set under the given id. Ids are not required to be unique,
// but Delete removes one occurrence at a time.
func (ix *Index) Insert(id uint32, items []int) error {
	s, err := ix.sig(items)
	if err != nil {
		return err
	}
	return ix.tree.Insert(s, dataset.TID(id))
}

// Delete removes the set previously inserted under the id with exactly
// these items, reporting whether it was found.
func (ix *Index) Delete(id uint32, items []int) (bool, error) {
	s, err := ix.sig(items)
	if err != nil {
		return false, err
	}
	return ix.tree.Delete(s, dataset.TID(id))
}

// Item is a (id, items) pair for bulk loading.
type Item struct {
	ID    uint32
	Items []int
}

// BulkLoad replaces the index contents with the given items using
// gray-code-sorted packing — much faster than repeated Insert and usually
// producing a better-clustered tree.
func (ix *Index) BulkLoad(items []Item) error {
	bulk := make([]core.BulkItem, len(items))
	for i, it := range items {
		s, err := ix.sig(it.Items)
		if err != nil {
			return fmt.Errorf("item %d: %w", i, err)
		}
		bulk[i] = core.BulkItem{Sig: s, TID: dataset.TID(it.ID)}
	}
	return ix.tree.BulkLoad(bulk)
}

// KNN returns the k nearest sets to the query under the configured metric.
func (ix *Index) KNN(query []int, k int) ([]Match, Stats, error) {
	return ix.KNNContext(context.Background(), query, k)
}

// KNNContext is KNN with cancellation: the traversal checks ctx at every
// index node and on abort returns ctx's error together with the
// partial-work stats accumulated so far.
func (ix *Index) KNNContext(ctx context.Context, query []int, k int) ([]Match, Stats, error) {
	s, err := ix.sig(query)
	if err != nil {
		return nil, Stats{}, err
	}
	res, st, err := ix.tree.KNNContext(ctx, s, k)
	return toMatches(res), toStats(st), err
}

// NearestNeighbor returns the single closest set; it errors when empty.
func (ix *Index) NearestNeighbor(query []int) (Match, Stats, error) {
	return ix.NearestNeighborContext(context.Background(), query)
}

// NearestNeighborContext is NearestNeighbor with cancellation.
func (ix *Index) NearestNeighborContext(ctx context.Context, query []int) (Match, Stats, error) {
	s, err := ix.sig(query)
	if err != nil {
		return Match{}, Stats{}, err
	}
	res, st, err := ix.tree.NearestNeighborContext(ctx, s)
	return Match{ID: uint32(res.TID), Distance: res.Dist}, toStats(st), err
}

// RangeSearch returns every set within distance eps of the query.
func (ix *Index) RangeSearch(query []int, eps float64) ([]Match, Stats, error) {
	return ix.RangeSearchContext(context.Background(), query, eps)
}

// RangeSearchContext is RangeSearch with cancellation.
func (ix *Index) RangeSearchContext(ctx context.Context, query []int, eps float64) ([]Match, Stats, error) {
	s, err := ix.sig(query)
	if err != nil {
		return nil, Stats{}, err
	}
	res, st, err := ix.tree.RangeSearchContext(ctx, s, eps)
	return toMatches(res), toStats(st), err
}

// Containing returns the ids of all sets that contain every query item.
// With a hashed signature the result may include false positives.
func (ix *Index) Containing(items []int) ([]uint32, Stats, error) {
	return ix.ContainingContext(context.Background(), items)
}

// ContainingContext is Containing with cancellation.
func (ix *Index) ContainingContext(ctx context.Context, items []int) ([]uint32, Stats, error) {
	s, err := ix.sig(items)
	if err != nil {
		return nil, Stats{}, err
	}
	ids, st, err := ix.tree.ContainmentContext(ctx, s)
	return toIDs(ids), toStats(st), err
}

// SubsetsOf returns the ids of all sets that are subsets of the query set.
func (ix *Index) SubsetsOf(items []int) ([]uint32, Stats, error) {
	return ix.SubsetsOfContext(context.Background(), items)
}

// SubsetsOfContext is SubsetsOf with cancellation.
func (ix *Index) SubsetsOfContext(ctx context.Context, items []int) ([]uint32, Stats, error) {
	s, err := ix.sig(items)
	if err != nil {
		return nil, Stats{}, err
	}
	ids, st, err := ix.tree.SubsetContext(ctx, s)
	return toIDs(ids), toStats(st), err
}

// ExactMatch returns the ids of all sets exactly equal to the query set.
func (ix *Index) ExactMatch(items []int) ([]uint32, Stats, error) {
	return ix.ExactMatchContext(context.Background(), items)
}

// ExactMatchContext is ExactMatch with cancellation.
func (ix *Index) ExactMatchContext(ctx context.Context, items []int) ([]uint32, Stats, error) {
	s, err := ix.sig(items)
	if err != nil {
		return nil, Stats{}, err
	}
	ids, st, err := ix.tree.ExactContext(ctx, s)
	return toIDs(ids), toStats(st), err
}

// SimilarityJoin returns all cross pairs within eps between two indexes
// (or all unordered pairs when joined with itself).
func (ix *Index) SimilarityJoin(other *Index, eps float64) ([]Pair, Stats, error) {
	return ix.SimilarityJoinContext(context.Background(), other, eps)
}

// SimilarityJoinContext is SimilarityJoin with cancellation.
func (ix *Index) SimilarityJoinContext(ctx context.Context, other *Index, eps float64) ([]Pair, Stats, error) {
	pairs, st, err := ix.tree.SimilarityJoinContext(ctx, other.tree, eps)
	return toPairs(pairs), toStats(st), err
}

// ClosestPairs returns the k closest pairs between two indexes.
func (ix *Index) ClosestPairs(other *Index, k int) ([]Pair, Stats, error) {
	return ix.ClosestPairsContext(context.Background(), other, k)
}

// ClosestPairsContext is ClosestPairs with cancellation.
func (ix *Index) ClosestPairsContext(ctx context.Context, other *Index, k int) ([]Pair, Stats, error) {
	pairs, st, err := ix.tree.ClosestPairsContext(ctx, other.tree, k)
	return toPairs(pairs), toStats(st), err
}

// BatchResult is the outcome of one query in a batch call: its matches,
// per-query stats, and error (nil on success).
type BatchResult struct {
	Matches []Match
	Stats   Stats
	Err     error
}

// BatchKNN answers the k-NN query for every query set in parallel, fanning
// the batch across a worker pool (workers <= 0 means GOMAXPROCS) that
// shares the index's buffer pool. Results align with queries by index. An
// invalid query set fails the whole batch up front, before any work is
// scheduled; a failure during execution is recorded in its slot without
// stopping the batch; a context cancellation aborts the whole batch and is
// returned.
func (ix *Index) BatchKNN(ctx context.Context, queries [][]int, k, workers int) ([]BatchResult, error) {
	sigs, out, err := ix.batchSigs(queries)
	if err != nil {
		return out, err
	}
	res, err := ix.tree.BatchNN(ctx, sigs, k, workers)
	for i, r := range res {
		out[i] = BatchResult{Matches: toMatches(r.Neighbors), Stats: toStats(r.Stats), Err: r.Err}
	}
	return out, err
}

// BatchRangeSearch answers the range query for every query set in
// parallel, with the same worker-pool and error semantics as BatchKNN.
func (ix *Index) BatchRangeSearch(ctx context.Context, queries [][]int, eps float64, workers int) ([]BatchResult, error) {
	sigs, out, err := ix.batchSigs(queries)
	if err != nil {
		return out, err
	}
	res, err := ix.tree.BatchRangeQuery(ctx, sigs, eps, workers)
	for i, r := range res {
		out[i] = BatchResult{Matches: toMatches(r.Neighbors), Stats: toStats(r.Stats), Err: r.Err}
	}
	return out, err
}

// batchSigs maps every query item set to its signature up front, so an
// invalid item fails the batch before any work is scheduled.
func (ix *Index) batchSigs(queries [][]int) ([]signature.Signature, []BatchResult, error) {
	sigs := make([]signature.Signature, len(queries))
	out := make([]BatchResult, len(queries))
	for i, q := range queries {
		s, err := ix.sig(q)
		if err != nil {
			return nil, nil, fmt.Errorf("query %d: %w", i, err)
		}
		sigs[i] = s
	}
	return sigs, out, nil
}

// SetObserver installs (or, with nil, removes) an index-level observer
// receiving traversal events from every query.
func (ix *Index) SetObserver(obs Observer) { ix.tree.SetObserver(obs) }

// Counters returns a snapshot of the index's cumulative query-execution
// counters.
func (ix *Index) Counters() Counters { return ix.tree.Counters() }

// ResetCounters zeroes the cumulative query counters.
func (ix *Index) ResetCounters() { ix.tree.ResetCounters() }

// JoinMatch is one row of a k-NN join: a left-index id and its nearest
// neighbors in the right index.
type JoinMatch struct {
	Left      uint32
	Neighbors []Match
}

// NNJoin returns, for every set in ix, its k nearest neighbors in other
// (all-nearest-neighbors). Joining an index with itself excludes each
// item's own id.
func (ix *Index) NNJoin(other *Index, k int) ([]JoinMatch, Stats, error) {
	return ix.NNJoinContext(context.Background(), other, k)
}

// NNJoinContext is NNJoin with cancellation.
func (ix *Index) NNJoinContext(ctx context.Context, other *Index, k int) ([]JoinMatch, Stats, error) {
	rows, st, err := ix.tree.NNJoinContext(ctx, other.tree, k)
	if err != nil {
		return nil, toStats(st), err
	}
	out := make([]JoinMatch, len(rows))
	for i, r := range rows {
		out[i] = JoinMatch{Left: uint32(r.Left), Neighbors: toMatches(r.Neighbors)}
	}
	return out, toStats(st), nil
}

// Neighbors starts a distance-browsing iteration: results arrive in
// non-decreasing distance order, computed lazily, so callers can stop as
// soon as they have seen enough without choosing k up front.
func (ix *Index) Neighbors(query []int) (*NeighborIterator, error) {
	s, err := ix.sig(query)
	if err != nil {
		return nil, err
	}
	it, err := ix.tree.NewNNIterator(s)
	if err != nil {
		return nil, err
	}
	return &NeighborIterator{it: it}, nil
}

// NeighborIterator yields matches in non-decreasing distance order. The
// iterator browses a snapshot of the index taken at Neighbors time, so
// concurrent updates neither block on it nor disturb it; a single iterator
// must still not be shared between goroutines. Drain it or call Close —
// an abandoned open iterator keeps its snapshot's pages from being
// reclaimed.
type NeighborIterator struct {
	it *core.NNIterator
}

// Close releases the iterator's snapshot without draining it. The
// snapshot pin is released exactly once: Close is idempotent, so calling
// it again (or after exhaustion, or via a redundant defer) is a no-op and
// never double-releases the pin. Stats remain readable after Close;
// further Next calls report exhaustion.
func (n *NeighborIterator) Close() { n.it.Close() }

// Next returns the next match; ok is false when the index is exhausted.
func (n *NeighborIterator) Next() (Match, bool, error) {
	return n.NextContext(context.Background())
}

// NextContext is Next with cancellation: node reads performed while
// advancing check ctx, and an aborted call returns its error; the iterator
// remains usable afterwards.
func (n *NeighborIterator) NextContext(ctx context.Context) (Match, bool, error) {
	nb, ok, err := n.it.NextContext(ctx)
	if !ok || err != nil {
		return Match{}, false, err
	}
	return Match{ID: uint32(nb.TID), Distance: nb.Dist}, true, nil
}

// Stats returns the work performed so far.
func (n *NeighborIterator) Stats() Stats { return toStats(n.it.Stats()) }

// Clusters partitions the indexed sets into k groups by merging the tree's
// leaf covers (a fast structural clustering — see the paper's Section 6).
// Each group is a slice of the ids inserted into it.
func (ix *Index) Clusters(k int) ([][]uint32, error) {
	cs, err := ix.tree.ClusterLeaves(k)
	if err != nil {
		return nil, err
	}
	out := make([][]uint32, len(cs))
	for i, c := range cs {
		out[i] = toIDs(c.Members)
	}
	return out, nil
}

// TreeStats describes the structure of the index: size, height, node
// counts and the per-level average signature areas (the paper's clustering
// quality metric).
type TreeStats = core.TreeStats

// TreeStats walks the index and returns its structural statistics.
func (ix *Index) TreeStats() (TreeStats, error) { return ix.tree.Stats() }

// Compact rebuilds the index in place (export + gray-code bulk load),
// restoring packing density after heavy deletion.
func (ix *Index) Compact() error { return ix.tree.Compact() }

// CheckInvariants verifies the structural invariants of the tree; a healthy
// index always returns nil.
func (ix *Index) CheckInvariants() error { return ix.tree.CheckInvariants() }

func toIDs(tids []dataset.TID) []uint32 {
	out := make([]uint32, len(tids))
	for i, id := range tids {
		out[i] = uint32(id)
	}
	return out
}

func toPairs(ps []core.Pair) []Pair {
	out := make([]Pair, len(ps))
	for i, p := range ps {
		out[i] = Pair{Left: uint32(p.Left), Right: uint32(p.Right), Distance: p.Dist}
	}
	return out
}
