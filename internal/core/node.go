package core

import (
	"encoding/binary"
	"fmt"

	"sgtree/internal/bitset"
	"sgtree/internal/dataset"
	"sgtree/internal/signature"
	"sgtree/internal/storage"
)

// Layout of a node, as a logical byte string distributed over one or more
// chained pages (multipage nodes are the implementation option Section 3
// mentions for signatures large relative to the page):
//
//	byte 0      flags (bit 0: leaf)
//	byte 1      level (0 = leaf)
//	bytes 2..3  entry count (uint16, little endian)
//	bytes 4..7  continuation page id (0 = node fits its primary page)
//	then per entry: encoded signature (codec), a uint32 ref (child page id
//	in directory nodes, transaction id in leaves) and — in directory nodes
//	of trees with cardinality statistics — uint16 min and max cardinality
//	of the data signatures in the subtree.
//
// Continuation pages start with their own 4-byte next pointer followed by
// the next chunk of the logical byte string.
const (
	nodeHeaderSize = 8
	nodeNextOff    = 4
	contHeaderSize = 4
	entryRefSize   = 4
	entryCardSize  = 4 // uint16 lo + uint16 hi
	flagLeaf       = 0x01
)

// entry is one ⟨signature, ptr/tid⟩ pair of a node (Section 3). In a leaf
// the signature is the transaction's signature and the ref its id; in a
// directory node the signature is the OR of everything below the child.
// When cardinality statistics are enabled, directory entries additionally
// carry the [lo, hi] range of data-signature areas in their subtree.
type entry struct {
	sig    signature.Signature
	child  storage.PageID // directory nodes
	tid    dataset.TID    // leaf nodes
	lo, hi int            // cardinality range (CardStats directory entries)
}

// ref returns the 4-byte reference for serialization.
func (e *entry) ref(leaf bool) uint32 {
	if leaf {
		return uint32(e.tid)
	}
	return uint32(e.child)
}

// node is the in-memory form of a tree node. cont lists the continuation
// pages the node occupied when it was read (reused and trimmed on write).
//
// Decoding lays all entry signatures out in one contiguous []uint64 slab
// (see decodeBuf), so a freshly read node costs five allocations however
// many entries it has (the node, its entries, the view headers, the slab
// and the area cache) and the entry-scan loops of the query algorithms
// walk adjacent memory. Entries appended later by update paths (splits,
// merges) carry their own independently allocated signatures; the two
// kinds mix freely because every entry's signature is self-describing.
type node struct {
	id      storage.PageID
	leaf    bool
	level   int // 0 for leaves
	entries []entry
	cont    []storage.PageID

	// areas caches each entry's signature area (popcount), filled by
	// decodeBuf as it decodes each row, so every node a traversal sees
	// carries it. Like the slab it describes the node as decoded: update
	// paths that mutate their private copies let it go stale and never
	// read it.
	areas []int

	// slab is the decoded entry signatures as a structure-of-arrays matrix:
	// row i (entry i's signature words) occupies
	// slab[i*slabStride : i*slabStride+words], with the row padding beyond
	// the signature's words kept zero. The base address is 64-byte aligned
	// and slabStride is a multiple of 4 words, which is what the batched
	// AVX2 kernels (bitset.*Slab) need to scan whole nodes in one blocked
	// pass. Entry views alias the same memory. Only the query path scans
	// the slab, and it only ever sees nodes exactly as decodeBuf produced
	// them: update paths mutate the private copies readNode hands out,
	// whose slab rows may stop matching their entries, and write them back
	// without ever scanning them.
	slab       []uint64
	slabStride int
}

// slabStrideFor picks the slab row stride for signatures of the given word
// count: whole 64-byte cache lines per row once signatures exceed half a
// line, a half-line otherwise. Always a multiple of 4 (one 32-byte AVX2
// chunk), so vectorized row scans never need a tail.
func slabStrideFor(words int) int {
	if words <= 4 {
		return 4
	}
	return (words + 7) &^ 7
}

// nodeLayout bundles everything needed to serialize nodes: the signature
// codec, whether directory entries carry cardinality statistics, and the
// page geometry (a node may span up to maxPages chained pages).
type nodeLayout struct {
	codec     signature.Codec
	cardStats bool
	pageSize  int
	maxPages  int
}

// budget returns the maximum logical byte size of a node: one primary page
// plus maxPages-1 continuation pages (each losing its chain pointer).
func (l nodeLayout) budget() int {
	return l.pageSize + (l.maxPages-1)*(l.pageSize-contHeaderSize)
}

// entrySize returns the on-page size of one entry of a (leaf or directory)
// node.
func (l nodeLayout) entrySize(sig signature.Signature, leaf bool) int {
	sz := l.codec.EncodedSize(sig) + entryRefSize
	if l.cardStats && !leaf {
		sz += entryCardSize
	}
	return sz
}

// encodedSize returns the node's on-page size.
func (l nodeLayout) encodedSize(n *node) int {
	sz := nodeHeaderSize
	for i := range n.entries {
		sz += l.entrySize(n.entries[i].sig, n.leaf)
	}
	return sz
}

// fits reports whether the node serializes within the node byte budget.
func (l nodeLayout) fits(n *node) bool {
	return l.encodedSize(n) <= l.budget()
}

// encodeBuf serializes the node's logical byte string: header (with a zero
// continuation pointer — the tree fills it while distributing the buffer
// over pages) followed by the entries.
func (l nodeLayout) encodeBuf(n *node) ([]byte, error) {
	if len(n.entries) > 0xFFFF {
		return nil, fmt.Errorf("core: node %d has %d entries, exceeding the format limit", n.id, len(n.entries))
	}
	var flags byte
	if n.leaf {
		flags |= flagLeaf
	}
	buf := make([]byte, nodeHeaderSize, l.encodedSize(n))
	buf[0] = flags
	buf[1] = byte(n.level)
	binary.LittleEndian.PutUint16(buf[2:4], uint16(len(n.entries)))
	for i := range n.entries {
		buf = l.codec.Append(buf, n.entries[i].sig)
		var ref [entryRefSize]byte
		binary.LittleEndian.PutUint32(ref[:], n.entries[i].ref(n.leaf))
		buf = append(buf, ref[:]...)
		if l.cardStats && !n.leaf {
			var cards [entryCardSize]byte
			binary.LittleEndian.PutUint16(cards[0:], uint16(n.entries[i].lo))
			binary.LittleEndian.PutUint16(cards[2:], uint16(n.entries[i].hi))
			buf = append(buf, cards[:]...)
		}
	}
	return buf, nil
}

// decodeBuf parses a node from its assembled logical byte string.
func (l nodeLayout) decodeBuf(id storage.PageID, buf []byte) (*node, error) {
	if len(buf) < nodeHeaderSize {
		return nil, fmt.Errorf("core: page %d too small for a node header", id)
	}
	n := &node{
		id:    id,
		leaf:  buf[0]&flagLeaf != 0,
		level: int(buf[1]),
	}
	count := int(binary.LittleEndian.Uint16(buf[2:4]))
	// Every entry takes at least a codec tag byte and its ref, so a count
	// the buffer cannot hold is corrupt; rejecting it here bounds the
	// allocations below by the buffer rather than by the header.
	if count > (len(buf)-nodeHeaderSize)/(1+entryRefSize) {
		return nil, fmt.Errorf("core: node %d claims %d entries, more than its %d bytes can hold", id, count, len(buf))
	}
	n.entries = make([]entry, count)
	// One contiguous word slab and one view-header slab back every entry
	// signature: a fixed 5 allocations per node (node, entries, views,
	// slab, areas) instead of 2 per entry, and the scan loops of
	// bound/compare touch sequential memory. The slab is laid
	// out with a padded, cache-line-aligned row stride (see the node.slab
	// field) so the batched kernels can process whole nodes; padding words
	// start zero (AlignedWords zeroes) and stay zero because the entry
	// views only ever touch the first `words` words of their row.
	words := (l.codec.Length + 63) / 64
	stride := slabStrideFor(words)
	slab := bitset.AlignedWords(count * stride)
	views := make([]bitset.Bitset, count)
	// Each row's area is counted right after its decode, while the row is
	// still in L1, instead of in a second pass over the slab.
	areas := make([]int, count)
	pos := nodeHeaderSize
	for i := 0; i < count; i++ {
		views[i] = bitset.View(slab[i*stride:i*stride+words], l.codec.Length)
		sig := signature.Signature{Bitset: &views[i]}
		used, err := l.codec.DecodeInto(buf[pos:], sig)
		if err != nil {
			return nil, fmt.Errorf("core: node %d entry %d: %w", id, i, err)
		}
		pos += used
		areas[i] = views[i].Count()
		if pos+entryRefSize > len(buf) {
			return nil, fmt.Errorf("core: node %d entry %d: truncated ref", id, i)
		}
		ref := binary.LittleEndian.Uint32(buf[pos : pos+entryRefSize])
		pos += entryRefSize
		n.entries[i].sig = sig
		if n.leaf {
			n.entries[i].tid = dataset.TID(ref)
		} else {
			n.entries[i].child = storage.PageID(ref)
		}
		if l.cardStats && !n.leaf {
			if pos+entryCardSize > len(buf) {
				return nil, fmt.Errorf("core: node %d entry %d: truncated cardinality stats", id, i)
			}
			n.entries[i].lo = int(binary.LittleEndian.Uint16(buf[pos:]))
			n.entries[i].hi = int(binary.LittleEndian.Uint16(buf[pos+2:]))
			pos += entryCardSize
		}
	}
	n.slab = slab
	n.slabStride = stride
	n.areas = areas
	return n, nil
}

// coverSignature returns the OR of all entry signatures — the signature the
// parent entry for this node must carry (Definition 5).
func (n *node) coverSignature(length int) signature.Signature {
	s := signature.New(length)
	for i := range n.entries {
		s.Merge(n.entries[i].sig)
	}
	return s
}

// cardRange returns the [lo, hi] range of data cardinalities under the
// node: entry areas for leaves, merged child ranges for directory nodes.
// An empty node yields (0, 0).
func (n *node) cardRange() (int, int) {
	if len(n.entries) == 0 {
		return 0, 0
	}
	if n.leaf {
		lo, hi := n.entries[0].sig.Area(), n.entries[0].sig.Area()
		for i := 1; i < len(n.entries); i++ {
			a := n.entries[i].sig.Area()
			if a < lo {
				lo = a
			}
			if a > hi {
				hi = a
			}
		}
		return lo, hi
	}
	lo, hi := n.entries[0].lo, n.entries[0].hi
	for i := 1; i < len(n.entries); i++ {
		if n.entries[i].lo < lo {
			lo = n.entries[i].lo
		}
		if n.entries[i].hi > hi {
			hi = n.entries[i].hi
		}
	}
	return lo, hi
}

// parentEntry builds the directory entry a parent must hold for this node:
// the exact cover and, for CardStats trees, the cardinality range.
func (n *node) parentEntry(length int) entry {
	e := entry{sig: n.coverSignature(length), child: n.id}
	e.lo, e.hi = n.cardRange()
	return e
}

// removeEntry deletes entry i preserving order (order is irrelevant to the
// structure but stable behaviour simplifies testing).
func (n *node) removeEntry(i int) {
	n.entries = append(n.entries[:i], n.entries[i+1:]...)
}
