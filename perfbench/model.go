package main

import (
	"runtime"
	"sync"

	"sgtree/internal/dataset"
	"sgtree/internal/scan"
)

// model is the benchmark's record of a collection under writes: which ids
// are stored, and for every pool query the answer over the stored sets,
// kept up to date as each acknowledged write is applied. A kNN answer is
// kept as a histogram of distances, so deletes need no rescan.
type model struct {
	in       *inputs
	byID     map[uint32]dataset.Transaction // every set ever written, by id
	live     map[uint32]bool
	knnHist  [][]int32 // per kNN query: stored sets at each distance
	rangeIDs []map[uint32]bool
	contIDs  []map[uint32]bool
}

// newModel starts from the generated sets (id i holds set i); fresh holds
// the sets later inserted under the ids that follow.
func newModel(in *inputs) *model {
	m := &model{in: in, byID: map[uint32]dataset.Transaction{}, live: map[uint32]bool{}}
	for i, tx := range in.data.Tx {
		m.byID[uint32(i)] = tx
		m.live[uint32(i)] = true
	}
	for j, tx := range in.fresh {
		m.byID[uint32(in.d+j)] = tx
	}
	pool := len(in.knnQ)
	m.knnHist = make([][]int32, pool)
	m.rangeIDs = make([]map[uint32]bool, pool)
	m.contIDs = make([]map[uint32]bool, pool)
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for qi := w; qi < pool; qi += runtime.NumCPU() {
				m.rangeIDs[qi], m.contIDs[qi] = map[uint32]bool{}, map[uint32]bool{}
				for id, tx := range in.data.Tx {
					m.update(qi, uint32(id), tx, 1)
				}
			}
		}(w)
	}
	wg.Wait()
	return m
}

// update adds (delta 1) or removes (delta -1) one set from query qi's
// answers.
func (m *model) update(qi int, id uint32, tx dataset.Transaction, delta int32) {
	d := tx.Hamming(m.in.knnQ[qi])
	for len(m.knnHist[qi]) <= d {
		m.knnHist[qi] = append(m.knnHist[qi], 0)
	}
	m.knnHist[qi][d] += delta
	if float64(tx.Hamming(m.in.rangeQ[qi])) <= rangeEps {
		setMember(m.rangeIDs[qi], id, delta > 0)
	}
	if tx.ContainsAll(m.in.containQ[qi]) {
		setMember(m.contIDs[qi], id, delta > 0)
	}
}

func setMember(s map[uint32]bool, id uint32, in bool) {
	if in {
		s[id] = true
	} else {
		delete(s, id)
	}
}

func (m *model) insert(id uint32) {
	m.live[id] = true
	for qi := range m.knnHist {
		m.update(qi, id, m.byID[id], 1)
	}
}

func (m *model) remove(id uint32) {
	delete(m.live, id)
	for qi := range m.knnHist {
		m.update(qi, id, m.byID[id], -1)
	}
}

// lookup returns a stored set.
func (m *model) lookup(id uint32) (dataset.Transaction, bool) {
	if !m.live[id] {
		return nil, false
	}
	return m.byID[id], true
}

// knnWant is kNN query qi's k nearest distances over the stored sets.
func (m *model) knnWant(qi int) []float64 {
	var out []float64
	for d, n := range m.knnHist[qi] {
		for j := int32(0); j < n && len(out) < knnK; j++ {
			out = append(out, float64(d))
		}
	}
	return out
}

func (m *model) rangeWant(qi int) []uint32   { return sortedIDs(m.rangeIDs[qi]) }
func (m *model) containWant(qi int) []uint32 { return sortedIDs(m.contIDs[qi]) }

func sortedIDs(s map[uint32]bool) []uint32 {
	out := make([]uint32, 0, len(s))
	for id := range s {
		out = append(out, id)
	}
	sortIDs(out)
	return out
}

// scanner returns the internal/scan oracle over the stored sets and the id
// of each scan position.
func (m *model) scanner() (*scan.Scanner, func(dataset.TID) uint32) {
	d := &dataset.Dataset{Universe: universe}
	var ids []uint32
	for id := range m.live {
		ids = append(ids, id)
	}
	sortIDs(ids)
	for _, id := range ids {
		d.Tx = append(d.Tx, m.byID[id])
	}
	return scan.New(d), func(t dataset.TID) uint32 { return ids[t] }
}
