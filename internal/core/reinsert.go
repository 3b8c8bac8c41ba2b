package core

import "sort"

// This file implements forced reinsertion, the R*-tree-style insertion
// improvement adapted to signatures: when a node first overflows during an
// insertion, instead of splitting immediately, evict the entries that
// contribute the most *exclusive* bits to the node's cover and re-insert
// them from the root. Entries whose bits nobody else shares are the ones
// stretching the cover; rehoming them tightens covers exactly the way the
// R*-tree's center-distance reinsertion tightens bounding boxes. The
// option trades extra insertion work for better clustering — the same
// trade the paper's Table 1 examines across split policies.

// reinsertFraction is the share of an overflowing node evicted for
// reinsertion (the R*-tree uses 30%).
const reinsertFraction = 0.3

// exclusiveContributions returns, for each entry, the number of cover bits
// only that entry supplies. Computed via per-bit occupancy counts in
// O(M · L/64 + cover bits).
func exclusiveContributions(entries []entry, sigLen int) []int {
	// occupancy[i] = how many entries set bit i; saturates at 2 (we only
	// care about ==1).
	occupancy := make([]uint8, sigLen)
	for e := range entries {
		entries[e].sig.ForEach(func(i int) {
			if occupancy[i] < 2 {
				occupancy[i]++
			}
		})
	}
	out := make([]int, len(entries))
	for e := range entries {
		n := 0
		entries[e].sig.ForEach(func(i int) {
			if occupancy[i] == 1 {
				n++
			}
		})
		out[e] = n
	}
	return out
}

// maybeForcedReinsert implements the overflow treatment: if the option is
// on and this level has not already reinserted during the current
// top-level insertion, evict the top contributors and queue them. It
// returns the node rewritten (not split) and true, or false when the
// caller should split as usual.
func (t *Tree) maybeForcedReinsert(n *node) (bool, error) {
	if !t.opts.ForcedReinsert || t.reinsertActive == nil {
		return false, nil
	}
	if t.reinsertActive[n.level] {
		return false, nil
	}
	if n.id == t.root {
		return false, nil // the root has nowhere to re-insert from
	}
	p := int(reinsertFraction * float64(len(n.entries)))
	if p < 1 {
		p = 1
	}
	if len(n.entries)-p < 2 {
		return false, nil // would underflow the node
	}
	t.reinsertActive[n.level] = true

	contrib := exclusiveContributions(n.entries, t.opts.SignatureLength)
	order := make([]int, len(n.entries))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return contrib[order[a]] > contrib[order[b]] })

	evictSet := make(map[int]bool, p)
	for _, idx := range order[:p] {
		evictSet[idx] = true
	}
	kept := make([]entry, 0, len(n.entries)-p)
	evicted := make([]entry, 0, p)
	for i := range n.entries {
		if evictSet[i] {
			evicted = append(evicted, n.entries[i])
		} else {
			kept = append(kept, n.entries[i])
		}
	}
	n.entries = kept
	if t.overflows(n) {
		// Still too big (size-bound overflow): fall back to splitting with
		// the original entries.
		n.entries = append(kept, evicted...)
		return false, nil
	}
	if err := t.writeNode(n); err != nil {
		return false, err
	}
	t.reinsertQueue = append(t.reinsertQueue, reinsertItem{entries: evicted, level: n.level})
	return true, nil
}

type reinsertItem struct {
	entries []entry
	level   int
}

// drainReinserts re-inserts queued evictions. New overflows during the
// drain may queue further reinserts (for levels not yet used this round),
// so it loops until the queue is empty.
func (t *Tree) drainReinserts() error {
	for len(t.reinsertQueue) > 0 {
		item := t.reinsertQueue[0]
		t.reinsertQueue = t.reinsertQueue[1:]
		for _, e := range item.entries {
			if err := t.insertEntry(e, item.level); err != nil {
				return err
			}
		}
	}
	return nil
}
