package core

import "fmt"

// This file implements the three split policies of Section 3.1. All of them
// partition the entries of an over-full node into two groups, each holding
// at least m = max(2, ceil(MinFill·n)) entries, and each fitting a page.

// overflows reports whether n violates the capacity constraints: more than
// MaxNodeEntries entries, or an encoding larger than the page.
func (t *Tree) overflows(n *node) bool {
	if len(n.entries) > t.opts.MaxNodeEntries {
		return true
	}
	return !t.layout.fits(n)
}

// splitNode partitions the entries of the over-full node n, keeps one group
// in n, allocates a sibling for the other group, writes both nodes and
// returns the sibling.
func (t *Tree) splitNode(n *node) (*node, error) {
	entries := n.entries
	if len(entries) < 4 {
		return nil, fmt.Errorf("core: internal: splitting a node with %d entries", len(entries))
	}
	minGroup := t.splitMinGroup(len(entries))
	var g1, g2 []entry
	switch t.opts.Split {
	case AvSplit:
		g1, g2 = t.clusterSplit(entries, minGroup, averageLinkage)
	case MinSplit:
		g1, g2 = t.clusterSplit(entries, minGroup, singleLinkage)
	default:
		g1, g2 = t.quadraticSplit(entries, minGroup)
	}
	g1, g2 = t.rebalanceForSize(g1, g2, n.leaf)

	n.entries = g1
	right, err := t.allocNode(n.leaf, n.level)
	if err != nil {
		return nil, err
	}
	right.entries = g2
	if err := t.writeNode(n); err != nil {
		return nil, err
	}
	if err := t.writeNode(right); err != nil {
		return nil, err
	}
	return right, nil
}

// splitMinGroup returns m, the smallest legal group size for a split of n
// entries.
func (t *Tree) splitMinGroup(n int) int {
	m := int(t.opts.MinFill*float64(n) + 0.5)
	if m < 2 {
		m = 2
	}
	if m > n/2 {
		m = n / 2
	}
	return m
}

// quadraticSplit is the R-tree quadratic method adapted to signatures: the
// two entries at maximum distance become the seeds; every other entry joins
// the group that needs the smallest signature-area enlargement to absorb
// it, with ties broken by smaller group area, then by fewer entries. When a
// group must take all remaining entries to reach the minimum size, it does.
func (t *Tree) quadraticSplit(entries []entry, minGroup int) ([]entry, []entry) {
	s1, s2 := t.pickSeeds(entries)
	g1 := []entry{entries[s1]}
	g2 := []entry{entries[s2]}
	sig1 := entries[s1].sig.Clone()
	sig2 := entries[s2].sig.Clone()
	remaining := len(entries) - 2

	for i := range entries {
		if i == s1 || i == s2 {
			continue
		}
		e := entries[i]
		// Under-flow guards: a group that can only reach m by taking
		// everything left gets everything left.
		switch {
		case len(g1)+remaining == minGroup:
			g1 = append(g1, e)
			sig1.Merge(e.sig)
		case len(g2)+remaining == minGroup:
			g2 = append(g2, e)
			sig2.Merge(e.sig)
		default:
			enl1 := sig1.Enlargement(e.sig)
			enl2 := sig2.Enlargement(e.sig)
			pick1 := false
			switch {
			case enl1 != enl2:
				pick1 = enl1 < enl2
			case sig1.Area() != sig2.Area():
				pick1 = sig1.Area() < sig2.Area()
			default:
				pick1 = len(g1) <= len(g2)
			}
			if pick1 {
				g1 = append(g1, e)
				sig1.Merge(e.sig)
			} else {
				g2 = append(g2, e)
				sig2.Merge(e.sig)
			}
		}
		remaining--
	}
	return g1, g2
}

// pickSeeds returns the indices of the pair of entries at maximum distance
// under the tree's metric.
func (t *Tree) pickSeeds(entries []entry) (int, int) {
	s1, s2 := 0, 1
	worst := -1.0
	for i := 0; i < len(entries); i++ {
		for j := i + 1; j < len(entries); j++ {
			d := t.opts.distance(entries[i].sig, entries[j].sig)
			if d > worst {
				worst, s1, s2 = d, i, j
			}
		}
	}
	return s1, s2
}

// linkage updates the distance from cluster k to the merge of clusters i
// and j (Lance–Williams recurrences).
type linkage func(dki, dkj float64, szI, szJ int) float64

// averageLinkage implements group-average clustering (av-split).
func averageLinkage(dki, dkj float64, szI, szJ int) float64 {
	return (float64(szI)*dki + float64(szJ)*dkj) / float64(szI+szJ)
}

// singleLinkage implements closest-pair / minimum-spanning-tree clustering
// (min-split).
func singleLinkage(dki, dkj float64, _, _ int) float64 {
	if dki < dkj {
		return dki
	}
	return dkj
}

// clusterSplit hierarchically merges clusters (each entry starts alone)
// until two remain, using the given linkage. Following the paper, when a
// cluster grows so large that the others could no longer form a group of
// minGroup entries, the remaining clusters are immediately merged and the
// algorithm terminates.
func (t *Tree) clusterSplit(entries []entry, minGroup int, link linkage) ([]entry, []entry) {
	n := len(entries)
	// Pairwise distances between live clusters; dist[i][j] for i<j only.
	dist := make([][]float64, n)
	for i := range dist {
		dist[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := t.opts.distance(entries[i].sig, entries[j].sig)
			dist[i][j] = d
			dist[j][i] = d
		}
	}
	members := make([][]int, n)
	alive := make([]bool, n)
	for i := range members {
		members[i] = []int{i}
		alive[i] = true
	}
	liveCount := n
	maxGroup := n - minGroup

	for liveCount > 2 {
		// Find the closest live pair whose merge would not starve the
		// other group below minGroup entries.
		bi, bj := -1, -1
		best := 0.0
		for i := 0; i < n; i++ {
			if !alive[i] {
				continue
			}
			for j := i + 1; j < n; j++ {
				if !alive[j] {
					continue
				}
				if len(members[i])+len(members[j]) > maxGroup {
					continue
				}
				if bi == -1 || dist[i][j] < best {
					best, bi, bj = dist[i][j], i, j
				}
			}
		}
		if bi == -1 {
			// No legal merge remains: the largest cluster becomes one
			// group and everything else merges into the other, which has
			// at least minGroup entries because the largest is capped at
			// maxGroup.
			big := -1
			for k := 0; k < n; k++ {
				if alive[k] && (big == -1 || len(members[k]) > len(members[big])) {
					big = k
				}
			}
			var rest []int
			for k := 0; k < n; k++ {
				if alive[k] && k != big {
					rest = append(rest, members[k]...)
				}
			}
			return gatherEntries(entries, members[big]), gatherEntries(entries, rest)
		}
		// Merge bj into bi.
		szI, szJ := len(members[bi]), len(members[bj])
		for k := 0; k < n; k++ {
			if !alive[k] || k == bi || k == bj {
				continue
			}
			d := link(dist[k][bi], dist[k][bj], szI, szJ)
			dist[k][bi] = d
			dist[bi][k] = d
		}
		members[bi] = append(members[bi], members[bj]...)
		alive[bj] = false
		liveCount--

		if len(members[bi]) >= maxGroup {
			// The growing cluster would starve the other group: merge
			// everything else and stop.
			var rest []int
			for k := 0; k < n; k++ {
				if alive[k] && k != bi {
					rest = append(rest, members[k]...)
					alive[k] = false
				}
			}
			return gatherEntries(entries, members[bi]), gatherEntries(entries, rest)
		}
	}
	var groups [][]int
	for i := 0; i < n; i++ {
		if alive[i] {
			groups = append(groups, members[i])
		}
	}
	return gatherEntries(entries, groups[0]), gatherEntries(entries, groups[1])
}

func gatherEntries(entries []entry, idx []int) []entry {
	out := make([]entry, 0, len(idx))
	for _, i := range idx {
		out = append(out, entries[i])
	}
	return out
}

// rebalanceForSize guarantees both groups fit a page by moving the largest
// entries out of an oversized group. Entry encodings are bounded by a
// quarter page (enforced by Options.Validate) and the two groups together
// fit in at most 1.25 pages, so the greedy loop always terminates with both
// groups legal.
func (t *Tree) rebalanceForSize(g1, g2 []entry, leaf bool) ([]entry, []entry) {
	size := func(g []entry) int {
		s := nodeHeaderSize
		for i := range g {
			s += t.layout.entrySize(g[i].sig, leaf)
		}
		return s
	}
	move := func(from, to []entry) ([]entry, []entry) {
		// Move the largest entry.
		big, bigSize := 0, -1
		for i := range from {
			if s := t.layout.entrySize(from[i].sig, leaf); s > bigSize {
				big, bigSize = i, s
			}
		}
		to = append(to, from[big])
		from = append(from[:big], from[big+1:]...)
		return from, to
	}
	budget := t.layout.budget()
	for size(g1) > budget && len(g1) > 2 {
		g1, g2 = move(g1, g2)
	}
	for size(g2) > budget && len(g2) > 2 {
		g2, g1 = move(g2, g1)
	}
	if size(g1) <= budget && size(g2) <= budget {
		return g1, g2
	}
	// Pathological size skew: fall back to a greedy first-fit-decreasing
	// repartition, which always succeeds because one entry is at most a
	// quarter of the node budget and the two groups together at most 1.25
	// budgets.
	all := append(append([]entry(nil), g1...), g2...)
	for i := 1; i < len(all); i++ {
		for j := i; j > 0 && t.layout.entrySize(all[j].sig, leaf) > t.layout.entrySize(all[j-1].sig, leaf); j-- {
			all[j], all[j-1] = all[j-1], all[j]
		}
	}
	g1, g2 = nil, nil
	s1, s2 := nodeHeaderSize, nodeHeaderSize
	for _, e := range all {
		es := t.layout.entrySize(e.sig, leaf)
		if s1 <= s2 {
			g1 = append(g1, e)
			s1 += es
		} else {
			g2 = append(g2, e)
			s2 += es
		}
	}
	return g1, g2
}
