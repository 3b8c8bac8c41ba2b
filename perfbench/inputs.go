package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"sgtree"
	"sgtree/internal/dataset"
	"sgtree/internal/gen"
	"sgtree/internal/scan"
)

// Query parameters shared by every workload.
const (
	universe     = 1000 // Quest item universe N
	avgSize      = 8    // Quest T
	avgItemset   = 4    // Quest I
	knnK         = 10
	rangeEps     = 4.0
	containItems = 3
	approxRecall = 0.9
)

// inputs is everything a workload feeds the program, generated from the
// seed, together with the internal/scan oracle's answers for the query
// pools. All of it is built before any timed section.
type inputs struct {
	d        int
	data     *dataset.Dataset // set i is stored under id i
	items    []sgtree.Item
	knnQ     []dataset.Transaction
	rangeQ   []dataset.Transaction
	containQ []dataset.Transaction
	fresh    []dataset.Transaction // sets a write workload inserts

	knnWant     [][]float64 // sorted k nearest distances
	rangeWant   [][]uint32  // sorted ids within rangeEps
	containWant [][]uint32  // sorted ids containing the query items
}

// itemsetSeed fixes the Quest pool of potentially large itemsets, which is
// what sets the data's distribution: how the sets cluster and so how hard
// the tree's pruning is. The run seed draws the stored sets, the queries
// and the writes from that one distribution, so runs with different seeds
// measure the same workload on different samples of it.
const itemsetSeed = 2003

// makeInputs draws d Quest T8.I4 sets over a 1000-item universe, pool
// queries per class and fresh sets for inserts, each from its own stream
// of the seed over the same itemset pool.
func makeInputs(d, pool, fresh int, seed int64) (*inputs, error) {
	q, err := gen.NewQuest(gen.QuestConfig{
		NumTransactions: d, AvgSize: avgSize, AvgItemsetSize: avgItemset,
		NumItems: universe, Seed: itemsetSeed,
	})
	if err != nil {
		return nil, err
	}
	in := &inputs{d: d, data: &dataset.Dataset{Universe: universe, Tx: q.Queries(d, seed)}}
	in.items = make([]sgtree.Item, d)
	for i, tx := range in.data.Tx {
		in.items[i] = sgtree.Item{ID: uint32(i), Items: tx}
	}
	qs := q.Queries(2*pool+fresh, seed^0x5eed)
	in.knnQ, in.rangeQ, in.fresh = qs[:pool], qs[pool:2*pool], qs[2*pool:]

	// Containment queries take items from a stored set, so most have
	// answers; the draw is seeded like everything else.
	r := rand.New(rand.NewSource(seed ^ 0xc0117a1))
	for len(in.containQ) < pool {
		tx := in.data.Tx[r.Intn(d)]
		if len(tx) < containItems {
			continue
		}
		pick := r.Perm(len(tx))[:containItems]
		items := make([]int, containItems)
		for j, p := range pick {
			items[j] = tx[p]
		}
		in.containQ = append(in.containQ, dataset.NewTransaction(items...))
	}

	sc := scan.New(in.data)
	ident := func(t dataset.TID) uint32 { return uint32(t) }
	in.knnWant = make([][]float64, pool)
	in.rangeWant = make([][]uint32, pool)
	in.containWant = make([][]uint32, pool)
	// The oracle is a full scan per query; spread it over the CPUs.
	errs := make([]error, pool)
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < pool; i += runtime.NumCPU() {
				in.knnWant[i], errs[i] = oracleKNN(sc, in.knnQ[i])
				if errs[i] == nil {
					in.rangeWant[i], errs[i] = oracleRange(sc, in.rangeQ[i], ident)
				}
				in.containWant[i] = oracleContain(sc, in.containQ[i], ident)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return in, nil
}

func oracleKNN(sc *scan.Scanner, q dataset.Transaction) ([]float64, error) {
	ns, err := sc.KNN(q, knnK)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(ns))
	for i, n := range ns {
		out[i] = n.Dist
	}
	return out, nil
}

func oracleRange(sc *scan.Scanner, q dataset.Transaction, id func(dataset.TID) uint32) ([]uint32, error) {
	ns, err := sc.RangeSearch(q, rangeEps)
	if err != nil {
		return nil, err
	}
	out := make([]uint32, len(ns))
	for i, n := range ns {
		out[i] = id(n.TID)
	}
	sortIDs(out)
	return out, nil
}

func oracleContain(sc *scan.Scanner, q dataset.Transaction, id func(dataset.TID) uint32) []uint32 {
	tids := sc.Containment(q)
	out := make([]uint32, len(tids))
	for i, t := range tids {
		out[i] = id(t)
	}
	sortIDs(out)
	return out
}

func sortIDs(ids []uint32) { sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] }) }

// setLookup returns the stored set under an id, if any.
type setLookup func(id uint32) (dataset.Transaction, bool)

// checkKNN accepts an exact kNN answer when its distances are the oracle's
// multiset and every returned id is a distinct stored set at the reported
// distance (ties may pick any of the tied ids).
func checkKNN(got []sgtree.Match, want []float64, q dataset.Transaction, set setLookup) error {
	if len(got) != len(want) {
		return fmt.Errorf("knn: %d results, oracle has %d", len(got), len(want))
	}
	ds := make([]float64, len(got))
	for i, m := range got {
		ds[i] = m.Distance
	}
	sort.Float64s(ds)
	for i := range ds {
		if ds[i] != want[i] {
			return fmt.Errorf("knn: distance #%d is %v, oracle %v", i, ds[i], want[i])
		}
	}
	return checkDistances(got, q, set)
}

// checkDistances verifies each match names a distinct stored set at
// exactly the reported distance.
func checkDistances(got []sgtree.Match, q dataset.Transaction, set setLookup) error {
	seen := make(map[uint32]bool, len(got))
	for _, m := range got {
		if seen[m.ID] {
			return fmt.Errorf("id %d returned twice", m.ID)
		}
		seen[m.ID] = true
		tx, ok := set(m.ID)
		if !ok {
			return fmt.Errorf("id %d is not stored", m.ID)
		}
		if d := float64(tx.Hamming(q)); d != m.Distance {
			return fmt.Errorf("id %d reported at distance %v, true %v", m.ID, m.Distance, d)
		}
	}
	return nil
}

// checkRange accepts a range answer whose id set is the oracle's and whose
// distances are exact.
func checkRange(got []sgtree.Match, want []uint32, q dataset.Transaction, set setLookup) error {
	ids := make([]uint32, len(got))
	for i, m := range got {
		ids[i] = m.ID
	}
	if err := checkIDs(ids, want); err != nil {
		return fmt.Errorf("range: %w", err)
	}
	return checkDistances(got, q, set)
}

// checkIDs compares an id list with the oracle's sorted id set.
func checkIDs(got, want []uint32) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d ids, oracle has %d", len(got), len(want))
	}
	s := append([]uint32(nil), got...)
	sortIDs(s)
	for i := range s {
		if s[i] != want[i] {
			return fmt.Errorf("id #%d is %d, oracle %d", i, s[i], want[i])
		}
	}
	return nil
}

// checkApprox checks a route-mode approximate kNN answer against the exact
// one: at most k distinct stored sets at their true distances, none closer
// than the exact answer at its position (route results are the exact top
// of a candidate subset). It returns how many results lie within the exact
// k-th distance, the recall hits.
func checkApprox(got []sgtree.Match, want []float64, q dataset.Transaction, set setLookup) (int, error) {
	if len(got) > len(want) {
		return 0, fmt.Errorf("approx: %d results, exact has %d", len(got), len(want))
	}
	if err := checkDistances(got, q, set); err != nil {
		return 0, fmt.Errorf("approx: %w", err)
	}
	ds := make([]float64, len(got))
	for i, m := range got {
		ds[i] = m.Distance
	}
	sort.Float64s(ds)
	hits := 0
	for i, d := range ds {
		if d < want[i] {
			return 0, fmt.Errorf("approx: result #%d at %v beats the exact %v", i, d, want[i])
		}
		if len(want) > 0 && d <= want[len(want)-1] {
			hits++
		}
	}
	return hits, nil
}
