// Package core implements the SG-tree (signature tree) of Mamoulis, Cheung
// and Lian (ICDE 2003): a dynamic, height-balanced, disk-based index over
// signature bitmaps. Structurally it is an R-tree whose bounding predicate
// is bitwise coverage — the signature of a directory entry is the OR of all
// signatures beneath it — and whose "area" is the number of set bits.
//
// The package provides the full lifecycle (insert, delete, bulk load) with
// the paper's three split policies, and the query algorithms of Section 4:
// containment queries, depth-first and best-first nearest-neighbor search,
// k-NN, similarity range queries, plus a similarity self/join extension.
package core

import (
	"fmt"

	"sgtree/internal/signature"
	"sgtree/internal/storage"
)

// SplitPolicy selects the node-split algorithm of Section 3.1.
type SplitPolicy int

const (
	// QSplit is the R-tree quadratic split adapted to signatures: the two
	// entries at maximum Hamming distance seed the groups and the rest
	// join the group needing the least area enlargement.
	QSplit SplitPolicy = iota
	// AvSplit merges clusters hierarchically by minimum group-average
	// distance until two remain.
	AvSplit
	// MinSplit merges clusters hierarchically by minimum single-link
	// (closest pair) distance — clustering along the minimum spanning tree.
	MinSplit
)

// String returns the paper's name for the policy.
func (p SplitPolicy) String() string {
	switch p {
	case QSplit:
		return "q-split"
	case AvSplit:
		return "av-split"
	case MinSplit:
		return "min-split"
	default:
		return "unknown"
	}
}

// ChoosePolicy selects the ChooseSubtree heuristic used on insertion.
type ChoosePolicy int

const (
	// MinEnlargement is the paper's standard heuristic: prefer covering
	// entries (smallest area first); otherwise pick the entry whose area
	// grows least, ties broken by smaller area. The paper found it gives
	// trees of the same quality as MinOverlap at much lower cost.
	MinEnlargement ChoosePolicy = iota
	// MinOverlap picks the entry which, after extension, has the minimum
	// overlap increase with its siblings — the alternative the authors
	// implemented and rejected. Kept for the ablation experiments.
	MinOverlap
)

// String returns the heuristic name.
func (p ChoosePolicy) String() string {
	switch p {
	case MinEnlargement:
		return "min-enlargement"
	case MinOverlap:
		return "min-overlap"
	default:
		return "unknown"
	}
}

// Options configures an SG-tree.
type Options struct {
	// SignatureLength is the bitmap length L; with the default direct item
	// mapping it must be at least the item universe size. Required.
	SignatureLength int
	// PageSize is the disk page (= node) size in bytes (default 4096).
	PageSize int
	// BufferPages is the buffer-pool capacity in pages (default 256).
	BufferPages int
	// NodeCacheSize is the capacity, in nodes, of the decoded-node cache
	// the query paths read through (hot nodes skip page assembly and the
	// signature codec entirely). 0 selects the default of 1024 nodes; a
	// negative value disables the cache, which restores the strict
	// one-page-access-per-node-visit behaviour the paper's I/O experiments
	// assume (see also Tree.DropCaches).
	NodeCacheSize int
	// Split selects the split policy. The zero value is QSplit; MinSplit,
	// the policy the paper adopts after the Table 1 comparison, must be
	// set explicitly.
	Split SplitPolicy
	// Choose selects the ChooseSubtree heuristic (default MinEnlargement).
	Choose ChoosePolicy
	// Metric is the similarity metric searched under (default Hamming).
	Metric signature.Metric
	// Compress enables the Section 3.2 sparse-signature encoding. Sparse
	// data pack more entries per node, increasing fanout.
	Compress bool
	// FixedCardinality, when positive, declares that every indexed
	// signature has exactly this area (categorical data with this many
	// attributes) and enables the stricter Section 6 lower bound.
	// Only valid with the Hamming metric.
	FixedCardinality int
	// MinFill is the minimum node utilization after splits and the
	// underflow threshold for deletes, as a fraction of capacity in
	// (0, 0.5]. Default 0.4.
	MinFill float64
	// MaxNodeEntries is the maximum entry count M per node (default 64,
	// "in the order of several tens" per Section 3). A node splits when it
	// exceeds M entries or its encoding no longer fits the page, whichever
	// comes first.
	MaxNodeEntries int
	// MaxNodePages lets a node span this many chained pages (default 1).
	// Section 3 notes multipage nodes as an implementation option; they
	// allow signatures large relative to the page size (a read of an
	// L-page node costs L page accesses).
	MaxNodePages int
	// ForcedReinsert enables R*-tree-style overflow treatment: the first
	// time a node overflows during an insertion, the entries contributing
	// the most exclusive bits to its cover are evicted and re-inserted
	// from the root instead of splitting. Better clustering for extra
	// insertion work.
	ForcedReinsert bool
	// CardStats augments every directory entry with the minimum and
	// maximum cardinality of the data signatures beneath it (4 bytes per
	// entry) and uses them for the stricter search bounds the paper's
	// closing section proposes ("statistics from the indexed data"). Most
	// effective when the indexed sets vary in size; with FixedCardinality
	// the bound is identical and the stats are redundant. Effective for
	// Hamming and Jaccard; other metrics fall back to the generic bound.
	CardStats bool
}

// withDefaults returns the options with defaults applied.
func (o Options) withDefaults() Options {
	if o.PageSize == 0 {
		o.PageSize = storage.DefaultPageSize
	}
	if o.BufferPages == 0 {
		o.BufferPages = 256
	}
	if o.NodeCacheSize == 0 {
		o.NodeCacheSize = 1024
	}
	if o.MinFill == 0 {
		o.MinFill = 0.4
	}
	if o.MaxNodeEntries == 0 {
		o.MaxNodeEntries = 64
	}
	if o.MaxNodePages == 0 {
		o.MaxNodePages = 1
	}
	return o
}

// Validate checks the options.
func (o Options) Validate() error {
	o = o.withDefaults()
	if o.SignatureLength <= 0 {
		return fmt.Errorf("core: SignatureLength must be positive")
	}
	if o.MinFill <= 0 || o.MinFill > 0.5 {
		return fmt.Errorf("core: MinFill %v outside (0, 0.5]", o.MinFill)
	}
	if o.FixedCardinality < 0 {
		return fmt.Errorf("core: negative FixedCardinality")
	}
	if o.FixedCardinality > 0 && o.Metric != signature.Hamming {
		return fmt.Errorf("core: FixedCardinality bound requires the Hamming metric")
	}
	switch o.Split {
	case QSplit, AvSplit, MinSplit:
	default:
		return fmt.Errorf("core: unknown split policy %d", o.Split)
	}
	switch o.Choose {
	case MinEnlargement, MinOverlap:
	default:
		return fmt.Errorf("core: unknown choose policy %d", o.Choose)
	}
	if o.MaxNodeEntries < 4 {
		return fmt.Errorf("core: MaxNodeEntries %d < 4", o.MaxNodeEntries)
	}
	if o.CardStats && o.SignatureLength > 0xFFFF {
		return fmt.Errorf("core: CardStats stores cardinalities as uint16; signature length %d too large", o.SignatureLength)
	}
	if o.MaxNodePages < 1 || o.MaxNodePages > 64 {
		return fmt.Errorf("core: MaxNodePages %d outside [1,64]", o.MaxNodePages)
	}
	// Four worst-case entries must fit in the node byte budget so splits
	// can always produce two valid nodes.
	codec := signature.Codec{Length: o.SignatureLength, ForceDense: true}
	worst := codec.MaxEncodedSize() + entryRefSize
	if o.CardStats {
		worst += entryCardSize
	}
	budget := o.PageSize + (o.MaxNodePages-1)*(o.PageSize-contHeaderSize)
	if nodeHeaderSize+4*worst > budget {
		return fmt.Errorf("core: node budget %d too small for %d-bit signatures (need ≥ %d; raise PageSize or MaxNodePages)",
			budget, o.SignatureLength, nodeHeaderSize+4*worst)
	}
	return nil
}

// codec returns the signature codec implied by the options.
func (o Options) codec() signature.Codec {
	return signature.Codec{Length: o.SignatureLength, ForceDense: !o.Compress}
}

// minDist returns the lower-bound distance between a query signature and a
// directory-entry signature under the configured metric and bounds.
func (o Options) minDist(q, e signature.Signature) float64 {
	if o.FixedCardinality > 0 {
		return signature.MinDistFixedCard(o.Metric, q, e, o.FixedCardinality)
	}
	return signature.MinDist(o.Metric, q, e)
}

// entryMinDist returns the lower-bound distance between a query and a
// directory entry, using the entry's stored cardinality range when the
// tree maintains statistics (the paper's closing-section optimization).
// It is the per-entry reference the batched slabBounds must reproduce
// bit for bit.
func (t *Tree) entryMinDist(q signature.Signature, e *entry) float64 {
	if t.opts.CardStats {
		return signature.MinDistCardRange(t.opts.Metric, q, e.sig, e.lo, e.hi)
	}
	return t.opts.minDist(q, e.sig)
}

// distance returns the exact distance between two data signatures.
func (o Options) distance(q, t signature.Signature) float64 {
	return signature.Distance(o.Metric, q, t)
}

// distFails reports whether distance d fails threshold thr under the
// chosen comparison semantics: strict rejects d >= thr (k-NN pruning
// against the current k-th best), inclusive rejects only d > thr (range
// radii and all-ties search).
func distFails(d, thr float64, strict bool) bool {
	if strict {
		return d >= thr
	}
	return d > thr
}
