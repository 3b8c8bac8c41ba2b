package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sgtree/internal/dataset"
	"sgtree/internal/gen"
	"sgtree/internal/scan"
	"sgtree/internal/signature"
	"sgtree/internal/storage"
)

// Property tests for the node scans (slabscan.go): on real trees,
// slabBounds/slabDistances must be bit-identical to the per-entry
// references (entryMinDist, signature.Distance), so the prune/accept
// verdicts the traversals draw from them are exact; and every whole query
// must match a brute-force scan, also after the inserts, deletes, forced
// reinserts and splits that rewrite nodes. Run under SGTREE_NO_ASM=1 the
// same tests cover the generic Go slab kernels.

// slabTestConfig is one tree configuration under test; fixedCard makes the
// generated transactions all the same size so FixedCardinality trees accept
// them.
type slabTestConfig struct {
	name      string
	universe  int
	metric    signature.Metric
	cardStats bool
	fixedCard int
	compress  bool
	pageSize  int // 0 keeps testOptions' page size
	nodeCache int // Options.NodeCacheSize; -1 disables the decoded-node cache
}

// slabTestConfigs covers every slabBounds/slabDistances branch: the three
// AndCountSlab finishers (card-range, fixed-card, generic metric) and the
// direct Hamming kernels, at universes on both sides of the stride padding
// boundary (200 bits -> 4 words, stride 4, no padding; 300 bits -> 5
// words, stride 8, 3 padded words per row and a padded query), plus rows
// wider than 128 words (8500 bits -> stride 136, multi-kilobyte pages) and
// a normalized metric with the decoded-node cache disabled, whose leaves
// get the area cache the finishers need from the query-path read alone.
var slabTestConfigs = []slabTestConfig{
	{name: "hamming", universe: 200, metric: signature.Hamming, compress: true},
	{name: "hamming-padded", universe: 300, metric: signature.Hamming},
	{name: "hamming-cardstats", universe: 300, metric: signature.Hamming, cardStats: true, compress: true},
	{name: "hamming-fixedcard", universe: 200, metric: signature.Hamming, fixedCard: 6},
	{name: "jaccard", universe: 300, metric: signature.Jaccard, compress: true},
	{name: "dice", universe: 200, metric: signature.Dice},
	{name: "cosine", universe: 300, metric: signature.Cosine, compress: true},
	{name: "hamming-wide", universe: 8500, metric: signature.Hamming, compress: true, pageSize: 8192},
	{name: "jaccard-nocache", universe: 300, metric: signature.Jaccard, nodeCache: -1},
}

func (c slabTestConfig) options() Options {
	opts := testOptions(c.universe)
	opts.Metric = c.metric
	opts.CardStats = c.cardStats
	opts.FixedCardinality = c.fixedCard
	opts.Compress = c.compress
	if c.pageSize > 0 {
		opts.PageSize = c.pageSize
	}
	opts.NodeCacheSize = c.nodeCache
	return opts
}

// data builds the config's dataset: clustered Quest data normally, uniform
// fixed-size transactions when the tree declares a fixed cardinality.
func (c slabTestConfig) data(t *testing.T, n int, seed int64) *dataset.Dataset {
	t.Helper()
	if c.fixedCard > 0 {
		rng := rand.New(rand.NewSource(seed))
		d := dataset.New(c.universe)
		for i := 0; i < n; i++ {
			items := rng.Perm(c.universe)[:c.fixedCard]
			d.Add(items...)
		}
		return d
	}
	d, err := gen.GenerateQuest(gen.QuestConfig{
		NumTransactions: n, AvgSize: 8, AvgItemsetSize: 4,
		NumItems: c.universe, NumItemsets: 50, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// probes picks a handful of probe transactions: dataset members, a random
// outsider, the empty set and the whole universe (the latter two stress
// the zero/degenerate branches of the metric finishers).
func (c slabTestConfig) probes(d *dataset.Dataset, seed int64) []dataset.Transaction {
	rng := rand.New(rand.NewSource(seed))
	return []dataset.Transaction{
		d.Tx[0],
		d.Tx[d.Len()/2],
		dataset.NewTransaction(rng.Perm(d.Universe)[:5]...),
		dataset.NewTransaction(),
		dataset.NewTransaction(rng.Perm(d.Universe)...),
	}
}

// queries maps the probe transactions to signatures.
func (c slabTestConfig) queries(t *testing.T, d *dataset.Dataset, seed int64) []signature.Signature {
	t.Helper()
	m := signature.NewDirectMapper(d.Universe)
	var qs []signature.Signature
	for _, tx := range c.probes(d, seed) {
		qs = append(qs, signature.FromItems(m, tx))
	}
	return qs
}

// walkNodes applies fn to every node of the subtree rooted at id, read the
// way queries read them (readNodeCached: a fresh decode with its area
// cache, or the cached copy of one).
func walkNodes(t *testing.T, tr *Tree, id storage.PageID, fn func(*node)) {
	t.Helper()
	n, err := tr.readNodeCached(id)
	if err != nil {
		t.Fatal(err)
	}
	fn(n)
	if n.leaf {
		return
	}
	for i := range n.entries {
		walkNodes(t, tr, n.entries[i].child, fn)
	}
}

// slabTestThresholds exercises the prune/accept verdicts at and around the
// integral Hamming boundaries and at fractional values for the normalized
// metrics.
var slabTestThresholds = []float64{0, 0.25, 0.5, 0.9, 1, 2, 3.5, 8, 64, math.Inf(1)}

// TestSlabScanMatchesPerEntry is the node-level property: for every node of
// trees built under each configuration, the batched slab scan produces the
// same bounds and distances — bit-identical, not merely close — as the
// per-entry signature-package calls, so every threshold verdict drawn from
// the slab values is exact.
func TestSlabScanMatchesPerEntry(t *testing.T) {
	for _, cfg := range slabTestConfigs {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			d := cfg.data(t, 300, 1)
			tr := buildTree(t, d, cfg.options())
			defer tr.Close()
			queries := cfg.queries(t, d, 2)

			e := tr.newExec(nil)
			defer e.release()

			nodes, leaves := 0, 0
			walkNodes(t, tr, tr.root, func(n *node) {
				if n.slabStride%4 != 0 || len(n.slab) < len(n.entries)*n.slabStride {
					t.Fatalf("node %d: bad slab geometry stride=%d rows=%d len=%d",
						n.id, n.slabStride, len(n.entries), len(n.slab))
				}
				if len(n.areas) != len(n.entries) {
					t.Fatalf("node %d: query-path read has %d cached areas for %d entries",
						n.id, len(n.areas), len(n.entries))
				}
				nodes++
				if n.leaf {
					leaves++
					checkSlabDistances(t, tr, e, n, queries)
					return
				}
				checkSlabBounds(t, tr, e, n, queries)
			})
			if nodes < 3 || leaves < 2 {
				t.Fatalf("tree too small for a meaningful check: %d nodes, %d leaves", nodes, leaves)
			}
		})
	}
}

// checkSlabBounds compares slabBounds against entryMinDist on one
// directory node, value and prune verdict.
func checkSlabBounds(t *testing.T, tr *Tree, e *executor, n *node, queries []signature.Signature) {
	t.Helper()
	for qi, q := range queries {
		e.slabBounds(n, q)
		for i := range n.entries {
			got, want := e.bounds[i], tr.entryMinDist(q, &n.entries[i])
			if got != want {
				t.Fatalf("node %d query %d entry %d: slab bound %v, per-entry %v",
					n.id, qi, i, got, want)
			}
			checkVerdicts(t, n, qi, i, got, want)
		}
	}
}

// checkSlabDistances compares slabDistances against signature.Distance on
// one leaf node, value and accept verdict, and the area cache the
// normalized-metric finishers read against the entries' areas.
func checkSlabDistances(t *testing.T, tr *Tree, e *executor, n *node, queries []signature.Signature) {
	t.Helper()
	for i := range n.entries {
		if n.areas[i] != n.entries[i].sig.Area() {
			t.Fatalf("node %d entry %d: cached area %d, actual %d", n.id, i, n.areas[i], n.entries[i].sig.Area())
		}
	}
	for qi, q := range queries {
		e.slabDistances(n, q)
		for i := range n.entries {
			got, want := e.bounds[i], signature.Distance(tr.opts.Metric, q, n.entries[i].sig)
			if got != want {
				t.Fatalf("node %d query %d entry %d: slab distance %v, per-entry %v",
					n.id, qi, i, got, want)
			}
			checkVerdicts(t, n, qi, i, got, want)
		}
	}
}

// checkVerdicts asserts that a slab value fails exactly the thresholds its
// per-entry reference fails, under both comparison semantics.
func checkVerdicts(t *testing.T, n *node, qi, i int, got, want float64) {
	t.Helper()
	for _, thr := range slabTestThresholds {
		for _, strict := range []bool{true, false} {
			if distFails(got, thr, strict) != distFails(want, thr, strict) {
				t.Fatalf("node %d query %d entry %d thr=%v strict=%v: slab verdict differs from per-entry",
					n.id, qi, i, thr, strict)
			}
		}
	}
}

// bruteForce returns every live transaction's exact distance from q, sorted
// by (distance, tid). Hamming goes through internal/scan, the repository's
// brute-force oracle; it knows no other metric, so the normalized metrics
// evaluate signature.Distance over the same live set.
func (c slabTestConfig) bruteForce(d *dataset.Dataset, live []bool, q dataset.Transaction) []Neighbor {
	var out []Neighbor
	if c.metric == signature.Hamming {
		sub := dataset.New(d.Universe)
		var ids []dataset.TID
		for i, tx := range d.Tx {
			if live[i] {
				sub.AddTransaction(tx)
				ids = append(ids, dataset.TID(i))
			}
		}
		all, _ := scan.New(sub).RangeSearch(q, math.Inf(1))
		for _, nb := range all {
			out = append(out, Neighbor{TID: ids[nb.TID], Dist: nb.Dist})
		}
		return out
	}
	m := signature.NewDirectMapper(d.Universe)
	qs := signature.FromItems(m, q)
	for i, tx := range d.Tx {
		if live[i] {
			out = append(out, Neighbor{TID: dataset.TID(i), Dist: signature.Distance(c.metric, qs, signature.FromItems(m, tx))})
		}
	}
	sortNeighbors(out)
	return out
}

// checkAgainstOracle runs q through every query engine and compares each
// answer with the brute-force list oracle. kNN answers and the browsing
// prefix must carry the oracle's leading distances, each a distinct live
// tid at its true distance (ties at the k-th distance may pick any tid);
// range and all-ties NN answers must be exactly the oracle's.
func checkAgainstOracle(t *testing.T, tr *Tree, q signature.Signature, oracle []Neighbor, k int, eps float64, label string) {
	t.Helper()
	dist := map[dataset.TID]float64{}
	for _, nb := range oracle {
		dist[nb.TID] = nb.Dist
	}
	leading := func(engine string, got []Neighbor, n int) {
		t.Helper()
		if n > len(oracle) {
			n = len(oracle)
		}
		if len(got) != n {
			t.Fatalf("%s %s: %d results, want %d", label, engine, len(got), n)
		}
		seen := map[dataset.TID]bool{}
		for i, nb := range got {
			if d, ok := dist[nb.TID]; !ok || d != nb.Dist || seen[nb.TID] || nb.Dist != oracle[i].Dist {
				t.Fatalf("%s %s: result %d = %+v, oracle distance %v", label, engine, i, nb, oracle[i].Dist)
			}
			seen[nb.TID] = true
		}
	}
	exact := func(engine string, got []Neighbor, keep func(Neighbor) bool) {
		t.Helper()
		var want []Neighbor
		for _, nb := range oracle {
			if keep(nb) {
				want = append(want, nb)
			}
		}
		got = append([]Neighbor(nil), got...)
		sortNeighbors(got)
		if !neighborsEqual(got, want) {
			t.Fatalf("%s %s: got %v, want %v", label, engine, got, want)
		}
	}

	knn, _, err := tr.KNN(q, k)
	if err != nil {
		t.Fatal(err)
	}
	leading("KNN", knn, k)
	bf, _, err := tr.KNNBestFirst(q, k)
	if err != nil {
		t.Fatal(err)
	}
	leading("KNNBestFirst", bf, k)

	it, err := tr.NewNNIterator(q)
	if err != nil {
		t.Fatal(err)
	}
	var browsed []Neighbor
	for len(browsed) < k+5 {
		nb, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		browsed = append(browsed, nb)
	}
	it.Close()
	leading("NNIterator", browsed, k+5)

	rng, _, err := tr.RangeSearch(q, eps)
	if err != nil {
		t.Fatal(err)
	}
	exact("RangeSearch", rng, func(nb Neighbor) bool { return nb.Dist <= eps })
	all, _, err := tr.AllNearestNeighbors(q)
	if err != nil {
		t.Fatal(err)
	}
	exact("AllNearestNeighbors", all, func(nb Neighbor) bool { return nb.Dist == oracle[0].Dist })
}

func neighborsEqual(a, b []Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSlabScanQueryEquivalence is the end-to-end property: every query
// engine answers exactly like a brute-force scan, on a tree built with
// forced reinsertion (so the build splits and reinserts), again after
// deleting a third of the data (which tightens covers, removes entries and
// dissolves nodes) and again after inserting it back. Those updates rewrite
// nodes whose decoded slab rows no longer match their entries; queries must
// only ever scan fresh decodes.
func TestSlabScanQueryEquivalence(t *testing.T) {
	for _, cfg := range slabTestConfigs {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			d := cfg.data(t, 400, 3)
			opts := cfg.options()
			opts.ForcedReinsert = true
			tr := buildTree(t, d, opts)
			defer tr.Close()
			eps := 6.0
			if cfg.metric != signature.Hamming {
				eps = 0.6
			}
			m := signature.NewDirectMapper(d.Universe)
			live := make([]bool, d.Len())
			for i := range live {
				live[i] = true
			}
			check := func(phase string) {
				for qi, q := range cfg.probes(d, 4) {
					oracle := cfg.bruteForce(d, live, q)
					checkAgainstOracle(t, tr, signature.FromItems(m, q), oracle, 10, eps, fmt.Sprintf("%s query %d", phase, qi))
				}
			}

			check("initial")
			for i := 0; i < d.Len(); i += 3 {
				if ok, err := tr.Delete(signature.FromItems(m, d.Tx[i]), dataset.TID(i)); err != nil || !ok {
					t.Fatalf("delete %d: found=%v err=%v", i, ok, err)
				}
				live[i] = false
			}
			check("after-deletes")
			for i := 0; i < d.Len(); i += 3 {
				if err := tr.Insert(signature.FromItems(m, d.Tx[i]), dataset.TID(i)); err != nil {
					t.Fatalf("reinsert %d: %v", i, err)
				}
				live[i] = true
			}
			check("after-reinserts")
		})
	}
}
