package core

import (
	"fmt"

	"sgtree/internal/dataset"
	"sgtree/internal/signature"
	"sgtree/internal/storage"
)

// Delete removes the ⟨signature, tid⟩ pair from the tree, returning whether
// it was found. Deletions follow the R-tree protocol the paper adopts: if a
// leaf under-flows it is dissolved and its remaining entries re-inserted,
// which recovers space utilization and improves the clustering of the tree.
func (t *Tree) Delete(sig signature.Signature, tid dataset.TID) (bool, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if sig.Len() != t.opts.SignatureLength {
		return false, fmt.Errorf("core: signature length %d != tree length %d", sig.Len(), t.opts.SignatureLength)
	}
	if t.root == storage.InvalidPage {
		return false, nil
	}
	var found bool
	err := t.runUpdate(func() error {
		rootNode, err := t.readNode(t.root)
		if err != nil {
			return err
		}
		var orphans []orphan
		var underflow bool
		found, underflow, err = t.deleteRec(rootNode, sig, tid, &orphans)
		if err != nil {
			return err
		}
		if !found {
			return nil
		}
		t.count--
		_ = underflow // the root never dissolves into an orphan; it shrinks below
		// Copy-on-write may have relocated the root node; republish its id.
		t.root = rootNode.id

		// Shrink the root: a directory root with a single entry hands the
		// tree to its only child; an empty root leaves an empty tree.
		for {
			rootNode, err = t.readNode(t.root)
			if err != nil {
				return err
			}
			if len(rootNode.entries) == 0 {
				if err := t.freeNode(rootNode); err != nil {
					return err
				}
				t.root = storage.InvalidPage
				t.height = 0
				break
			}
			if rootNode.leaf || len(rootNode.entries) > 1 {
				break
			}
			child := rootNode.entries[0].child
			if err := t.freeNode(rootNode); err != nil {
				return err
			}
			t.root = child
			t.height--
		}

		// Re-insert orphaned entries. Higher levels first so leaf
		// re-inserts land in an already-stabilized structure.
		for i := len(orphans) - 1; i >= 0; i-- {
			if err := t.reinsertOrphan(orphans[i]); err != nil {
				return err
			}
		}
		return nil
	})
	return found && err == nil, err
}

// orphan is an entry whose node was dissolved, remembered with the level it
// must be re-inserted at.
type orphan struct {
	e     entry
	level int
}

// deleteRec removes the pair from the subtree under n. It returns whether
// the pair was found and whether n under-flowed and was dissolved (its
// surviving entries appended to orphans and its page freed; the caller must
// remove its entry).
func (t *Tree) deleteRec(n *node, sig signature.Signature, tid dataset.TID, orphans *[]orphan) (found, dissolved bool, err error) {
	if n.leaf {
		idx := -1
		for i := range n.entries {
			if n.entries[i].tid == tid && n.entries[i].sig.Equal(sig.Bitset) {
				idx = i
				break
			}
		}
		if idx < 0 {
			return false, false, nil
		}
		n.removeEntry(idx)
		dis, err := t.finishNodeUpdate(n, orphans)
		return true, dis, err
	}
	for i := range n.entries {
		if !n.entries[i].sig.Covers(sig) {
			continue
		}
		child, err := t.readNode(n.entries[i].child)
		if err != nil {
			return false, false, err
		}
		f, childDissolved, err := t.deleteRec(child, sig, tid, orphans)
		if err != nil {
			return false, false, err
		}
		if !f {
			continue
		}
		if childDissolved {
			n.removeEntry(i)
		} else {
			// Tighten: deletions can shrink covers and cardinality ranges,
			// so recompute both exactly.
			n.entries[i] = child.parentEntry(t.opts.SignatureLength)
		}
		dis, err := t.finishNodeUpdate(n, orphans)
		return true, dis, err
	}
	return false, false, nil
}

// finishNodeUpdate either writes the modified node back or, if it
// under-flowed (and is not the root), dissolves it into orphans. It reports
// whether the node was dissolved (so the parent removes its entry).
func (t *Tree) finishNodeUpdate(n *node, orphans *[]orphan) (bool, error) {
	if n.id != t.root && t.underflows(n) {
		for _, e := range n.entries {
			*orphans = append(*orphans, orphan{e: e, level: n.level})
		}
		return true, t.freeNode(n)
	}
	return false, t.writeNode(n)
}

// underflows reports whether the node has dropped below the minimum fill.
// The threshold adapts to the node's effective capacity: the configured
// MaxNodeEntries, or fewer when the node's entries are so large that the
// page holds fewer of them.
func (t *Tree) underflows(n *node) bool {
	if len(n.entries) < 2 {
		return true
	}
	capacity := t.opts.MaxNodeEntries
	if ne := len(n.entries); ne > 0 {
		avg := (t.layout.encodedSize(n) - nodeHeaderSize) / ne
		if avg > 0 {
			if byCap := (t.layout.budget() - nodeHeaderSize) / avg; byCap < capacity {
				capacity = byCap
			}
		}
	}
	min := int(t.opts.MinFill * float64(capacity))
	if min < 2 {
		min = 2
	}
	return len(n.entries) < min
}

// reinsertOrphan re-inserts an orphaned entry at its original level. If the
// tree has shrunk below that level the subtree is dismantled and its leaf
// entries re-inserted individually (a rare corner case).
func (t *Tree) reinsertOrphan(o orphan) error {
	rootLevel := -1
	if t.root != storage.InvalidPage {
		rn, err := t.readNode(t.root)
		if err != nil {
			return err
		}
		rootLevel = rn.level
	}
	if o.level == 0 || o.level <= rootLevel {
		return t.insertEntry(o.e, o.level)
	}
	// The orphan references a subtree taller than the current tree:
	// dismantle it.
	leaves, err := t.dismantle(o.e.child)
	if err != nil {
		return err
	}
	for _, le := range leaves {
		if err := t.insertEntry(le, 0); err != nil {
			return err
		}
	}
	return nil
}

// dismantle collects all leaf entries beneath page id and frees the pages.
func (t *Tree) dismantle(id storage.PageID) ([]entry, error) {
	n, err := t.readNode(id)
	if err != nil {
		return nil, err
	}
	var out []entry
	if n.leaf {
		out = append(out, n.entries...)
	} else {
		for i := range n.entries {
			sub, err := t.dismantle(n.entries[i].child)
			if err != nil {
				return nil, err
			}
			out = append(out, sub...)
		}
	}
	return out, t.freeNode(n)
}
