package main

import (
	"sort"

	"sgtree/internal/bitset"
	"sgtree/internal/dataset"
)

// flatScan is the brute-force baseline: every stored set as one row of a
// 64-byte-aligned bit slab, one XorCountSlab pass per query, and a top-k
// selection over the resulting Hamming distances. It has no index at all.
type flatScan struct {
	stride int
	slab   []uint64
	ids    []uint32
	q      []uint64
	dist   []int32
}

func newFlatScan(sets []dataset.Transaction, ids []uint32) *flatScan {
	stride := (universe + 63) / 64
	f := &flatScan{
		stride: stride,
		slab:   bitset.AlignedWords(len(sets) * stride),
		ids:    ids,
		q:      bitset.AlignedWords(stride),
		dist:   make([]int32, len(sets)),
	}
	for r, tx := range sets {
		row := f.slab[r*stride : (r+1)*stride]
		for _, it := range tx {
			row[it/64] |= 1 << (it % 64)
		}
	}
	return f
}

// distances runs the slab kernel for one query, leaving |q Δ row| in f.dist.
func (f *flatScan) distances(q dataset.Transaction) {
	for i := range f.q {
		f.q[i] = 0
	}
	for _, it := range q {
		f.q[it/64] |= 1 << (it % 64)
	}
	bitset.XorCountSlab(f.q, f.slab, f.stride, f.dist)
}

type flatHit struct {
	id   uint32
	dist int32
}

// knn returns the k nearest rows, nearest first, ties by lower id.
func (f *flatScan) knn(q dataset.Transaction, k int, top []flatHit) []flatHit {
	f.distances(q)
	top = top[:0]
	for r, d := range f.dist {
		if len(top) == k && d >= top[k-1].dist {
			continue
		}
		h := flatHit{id: f.ids[r], dist: d}
		i := sort.Search(len(top), func(i int) bool { return top[i].dist > d })
		if len(top) < k {
			top = append(top, flatHit{})
		}
		copy(top[i+1:], top[i:len(top)-1])
		top[i] = h
	}
	return top
}
