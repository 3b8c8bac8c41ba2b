package core

import (
	"fmt"
	"sync"
	"testing"

	"sgtree/internal/dataset"
	"sgtree/internal/scan"
	"sgtree/internal/signature"
	"sgtree/internal/storage"
)

// nodeIDs lists every node page id of the current tree, root first.
func nodeIDs(t testing.TB, tr *Tree) []storage.PageID {
	t.Helper()
	var ids []storage.PageID
	var rec func(id storage.PageID)
	rec = func(id storage.PageID) {
		n, err := tr.readNode(id)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		if !n.leaf {
			for i := range n.entries {
				rec(n.entries[i].child)
			}
		}
	}
	if root := tr.snap.Load().root; root != storage.InvalidPage {
		rec(root)
	}
	return ids
}

// TestNodeCacheEvictionsCounted checks NodeCacheEvictions: a full walk of
// a tree larger than a tiny node cache must evict, one that fits must
// not, and ResetCounters zeroes the count.
func TestNodeCacheEvictionsCounted(t *testing.T) {
	d := questData(t, 600, 71)
	walk := func(tr *Tree) {
		t.Helper()
		if err := tr.Walk(func(signature.Signature, dataset.TID) bool { return true }); err != nil {
			t.Fatal(err)
		}
	}

	small := testOptions(200)
	small.NodeCacheSize = 8
	tr := buildTree(t, d, small)
	if nodes := len(nodeIDs(t, tr)); nodes <= 2*small.NodeCacheSize {
		t.Fatalf("tree has only %d nodes; the walk would not overflow the cache", nodes)
	}
	tr.ResetCounters()
	walk(tr)
	c := tr.Counters()
	if c.NodeCacheEvictions == 0 {
		t.Fatalf("full walk over %d misses evicted nothing from an %d-node cache", c.NodeCacheMisses, small.NodeCacheSize)
	}
	if c.NodeCacheEvictions > c.NodeCacheMisses {
		t.Fatalf("%d evictions exceed %d misses", c.NodeCacheEvictions, c.NodeCacheMisses)
	}
	if n := tr.ncache.len(); n > small.NodeCacheSize {
		t.Fatalf("cache holds %d nodes, capacity %d", n, small.NodeCacheSize)
	}
	tr.ResetCounters()
	if c := tr.Counters(); c.NodeCacheEvictions != 0 {
		t.Fatalf("ResetCounters left %d evictions", c.NodeCacheEvictions)
	}

	big := testOptions(200)
	big.NodeCacheSize = 4096
	fits := buildTree(t, d, big)
	fits.ResetCounters()
	walk(fits)
	walk(fits)
	if c := fits.Counters(); c.NodeCacheEvictions != 0 || c.NodeCacheHits == 0 {
		t.Fatalf("tree that fits the cache: %d evictions, %d hits", c.NodeCacheEvictions, c.NodeCacheHits)
	}
}

// TestMissPathConcurrentOracle runs the miss path under contention: a tree
// over a single-shard buffer pool just large enough for the pins in flight
// and a one-node-per-shard decoded cache, so nearly every node visit is a
// cache miss that recycles a pool frame. Readers run kNN and range
// queries while a writer inserts and deletes extra sets. The base data is
// never touched, so every answer must agree with internal/scan over it:
// base results at their exact distances, nothing from the base missing,
// and writer sets at their own exact distances. Meant for -race.
func TestMissPathConcurrentOracle(t *testing.T) {
	const (
		universe = 200
		readers  = 3
		k        = 5
		eps      = 4.0
	)
	d := questData(t, 500, 29)
	extra := questData(t, 200, 31)
	m := signature.NewDirectMapper(universe)
	opts := testOptions(universe)
	// Below 8 pages the pool is one shard; each reader pins one page at a
	// time and the writer a few, so this is about the smallest pool that
	// never runs out of unpinned frames.
	opts.BufferPages = readers + 4
	opts.NodeCacheSize = 1
	tr := buildTree(t, d, opts)
	oracle := scan.New(d)
	var extraSigs sync.Map // TID -> signature of a writer set, once inserted
	const extraBase = 100000

	// checkDist verifies one returned neighbor's distance exactly.
	checkDist := func(q signature.Signature, qtx dataset.Transaction, nb Neighbor) error {
		if nb.TID >= extraBase {
			s, ok := extraSigs.Load(nb.TID)
			if !ok {
				return fmt.Errorf("tid %d was never inserted", nb.TID)
			}
			if want := signature.Distance(signature.Hamming, q, s.(signature.Signature)); nb.Dist != want {
				return fmt.Errorf("writer tid %d at distance %g, want %g", nb.TID, nb.Dist, want)
			}
			return nil
		}
		if want := float64(qtx.Hamming(d.Tx[nb.TID])); nb.Dist != want {
			return fmt.Errorf("tid %d at distance %g, oracle %g", nb.TID, nb.Dist, want)
		}
		return nil
	}
	checkKNN := func(qtx dataset.Transaction) error {
		q := signature.FromItems(m, qtx)
		got, _, err := tr.KNN(q, k)
		if err != nil {
			return err
		}
		want, err := oracle.KNN(qtx, k)
		if err != nil {
			return err
		}
		if len(got) != k {
			return fmt.Errorf("kNN returned %d of %d", len(got), k)
		}
		kth := got[len(got)-1].Dist
		if kth > want[len(want)-1].Dist {
			return fmt.Errorf("kNN k-th distance %g beyond the base oracle's %g", kth, want[len(want)-1].Dist)
		}
		inGot := map[dataset.TID]bool{}
		for _, nb := range got {
			if err := checkDist(q, qtx, nb); err != nil {
				return err
			}
			inGot[nb.TID] = true
		}
		// Every base set strictly closer than the k-th answer is in it
		// (Hamming distances are integers).
		if kth < 1 {
			return nil
		}
		closer, err := oracle.RangeSearch(qtx, kth-1)
		if err != nil {
			return err
		}
		for _, nb := range closer {
			if !inGot[nb.TID] {
				return fmt.Errorf("kNN missed base tid %d at distance %g < %g", nb.TID, nb.Dist, kth)
			}
		}
		return nil
	}
	checkRange := func(qtx dataset.Transaction) error {
		q := signature.FromItems(m, qtx)
		got, _, err := tr.RangeSearch(q, eps)
		if err != nil {
			return err
		}
		want, err := oracle.RangeSearch(qtx, eps)
		if err != nil {
			return err
		}
		inGot := map[dataset.TID]bool{}
		for _, nb := range got {
			if err := checkDist(q, qtx, nb); err != nil {
				return err
			}
			if nb.Dist > eps {
				return fmt.Errorf("range answer tid %d at %g > %g", nb.TID, nb.Dist, eps)
			}
			inGot[nb.TID] = true
		}
		for _, nb := range want {
			if !inGot[nb.TID] {
				return fmt.Errorf("range missed base tid %d at distance %g", nb.TID, nb.Dist)
			}
		}
		return nil
	}

	var wg sync.WaitGroup
	errs := make(chan error, readers+1)
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i, tx := range extra.Tx {
			tid := dataset.TID(extraBase + i)
			sig := signature.FromItems(m, tx)
			extraSigs.Store(tid, sig)
			if err := tr.Insert(sig, tid); err != nil {
				errs <- err
				return
			}
			if i%3 == 0 {
				if _, err := tr.Delete(sig, tid); err != nil {
					errs <- err
					return
				}
			}
		}
	}()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					if i >= 20 {
						return
					}
				default:
				}
				qtx := d.Tx[(r*131+i*17)%d.Len()]
				check := checkKNN
				if i%2 == 1 {
					check = checkRange
				}
				if err := check(qtx); err != nil {
					errs <- fmt.Errorf("reader %d query %d: %w", r, i, err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if st := tr.Pool().Stats(); st.Evictions == 0 {
		t.Fatalf("pool never evicted: %+v", st)
	}
	if c := tr.Counters(); c.NodeCacheEvictions == 0 {
		t.Fatal("node cache never evicted")
	}
}

// BenchmarkReadNodeMiss measures one query-path node read that misses
// both caches: buffer-pool fetch into a recycled frame, then codec
// decode of every entry with the area cache. The tree is at the spill
// benchmark's shape (Quest-like sparse sets over 1000 items, 4 KiB
// compressed pages), and the read order cycles over every node so each
// read misses.
func BenchmarkReadNodeMiss(b *testing.B) {
	opts := Options{
		SignatureLength: 1000,
		PageSize:        4096,
		BufferPages:     16,
		NodeCacheSize:   8,
		Compress:        true,
		Split:           MinSplit,
	}
	tr, err := New(opts)
	if err != nil {
		b.Fatal(err)
	}
	m := signature.NewDirectMapper(1000)
	items := make([]BulkItem, 20000)
	for i := range items {
		tx := make([]int, 0, 10)
		for j := 0; j < 8+i%5; j++ {
			tx = append(tx, (i*37+j*j*101+j*13)%1000)
		}
		items[i] = BulkItem{Sig: signature.FromItems(m, tx), TID: dataset.TID(i)}
	}
	if err := tr.BulkLoad(items); err != nil {
		b.Fatal(err)
	}
	ids := nodeIDs(b, tr)
	entries := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := tr.readNodeCached(ids[i%len(ids)])
		if err != nil {
			b.Fatal(err)
		}
		entries += len(n.entries)
	}
	b.ReportMetric(float64(entries)/float64(b.N), "entries/read")
}
