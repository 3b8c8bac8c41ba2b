package main

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"sgtree"
	"sgtree/internal/core"
	"sgtree/internal/dataset"
	"sgtree/internal/signature"
	"sgtree/internal/storage"
)

type opClass int

const (
	opKNN opClass = iota
	opRange
	opContains
	opApprox
	opWrite
	numClasses
)

func (c opClass) String() string {
	return [...]string{"knn", "range", "contains", "approx", "write"}[c]
}

// phase is one measured stretch of a workload.
type phase struct {
	start time.Time
	dur   time.Duration
	ops   [numClasses]opStats

	// Per-query work reported by the program for exact kNN.
	knnN                            int
	knnNodes, knnCompared, knnPrune float64
	// Route-mode approx kNN: work and recall hits against the exact answer.
	approxN, approxHits, approxWant int
	approxCompared                  float64
}

func newPhase(dur time.Duration) *phase { return &phase{start: time.Now(), dur: dur} }

func (p *phase) done(now time.Time) bool { return now.Sub(p.start) >= p.dur }

func (p *phase) record(c opClass, t0, t1 time.Time) {
	slice := int(float64(t0.Sub(p.start)) / float64(p.dur) * numSlices)
	p.ops[c].add(min(max(slice, 0), numSlices-1), t1.Sub(t0))
}

// merge adds another phase's operations to p.
func (p *phase) merge(x *phase) {
	for c := range p.ops {
		p.ops[c].merge(&x.ops[c])
	}
}

func (p *phase) total() int {
	n := 0
	for i := range p.ops {
		n += p.ops[i].count()
	}
	return n
}

// readBench drives the in-process read workloads through the sgtree
// facade with one closed-loop client.
type readBench struct {
	cfg     runConfig
	rep     *report
	in      *inputs
	ix      *sgtree.Index
	classes []opClass
	ctx     context.Context

	// Prebuilt query signatures for the core.Tree layer calls.
	mapper                    signature.Mapper
	knnSig, rangeSig, contSig []signature.Signature

	// Traced run only.
	tr                       *tracer
	twin                     *core.Tree // same tree on a timing pager
	pager                    *timingPager
	flat                     *flatScan
	codec                    signature.Codec
	enc                      []byte
	encOff                   []int
	decodeSig                signature.Signature
	leafVisits, treeKNNCalls int
	pagerReads, pagerReadNs  int64 // on the twin, during sampled calls
}

func readConfig(approx bool) sgtree.Config {
	cfg := sgtree.Config{Universe: universe, Compress: true, Split: sgtree.MinSplit}
	if approx {
		cfg.Sketch = &sgtree.SketchConfig{}
	}
	return cfg
}

func (b *readBench) lookup(id uint32) (dataset.Transaction, bool) {
	if int(id) >= len(b.in.data.Tx) {
		return nil, false
	}
	return b.in.data.Tx[id], true
}

func runRead(cfg runConfig, rep *report) error {
	b := &readBench{cfg: cfg, rep: rep, ctx: context.Background(),
		classes: []opClass{opKNN, opRange, opContains}, mapper: signature.NewDirectMapper(universe)}
	if cfg.spec.approx {
		b.classes = append(b.classes, opApprox)
	}
	defer func() {
		if b.ix != nil {
			b.ix.Close()
		}
	}()
	if cfg.trace {
		return b.runTraced()
	}
	return b.runUntraced()
}

// sampleSeed is the input seed of data sample s of a run.
func sampleSeed(seed int64, s int) int64 { return seed + int64(s)*7919 }

// load generates a data sample and its query pools, and drops the index
// built over the previous one.
func (b *readBench) load(seed int64, fresh int) error {
	if b.ix != nil {
		if err := b.ix.Close(); err != nil {
			return err
		}
		b.ix = nil
	}
	in, err := makeInputs(b.cfg.spec.d, b.cfg.spec.pool, fresh, seed)
	if err != nil {
		return err
	}
	b.in = in
	b.knnSig, b.rangeSig, b.contSig = nil, nil, nil
	for i := range in.knnQ {
		b.knnSig = append(b.knnSig, signature.FromItems(b.mapper, in.knnQ[i]))
		b.rangeSig = append(b.rangeSig, signature.FromItems(b.mapper, in.rangeQ[i]))
		b.contSig = append(b.contSig, signature.FromItems(b.mapper, in.containQ[i]))
	}
	return nil
}

// build sets up a fresh index over the current sample, replacing the
// previous one, and returns the setup time and the part of it the lazy
// sketch rebuild took.
func (b *readBench) build() (setup, rebuild time.Duration, err error) {
	if b.ix != nil {
		if err := b.ix.Close(); err != nil {
			return 0, 0, err
		}
		b.ix = nil
		runtime.GC()
	}
	t0 := time.Now()
	ix, err := sgtree.New(readConfig(b.cfg.spec.approx))
	if err != nil {
		return 0, 0, err
	}
	b.ix = ix
	if err := ix.BulkLoad(b.in.items); err != nil {
		return 0, 0, err
	}
	if b.cfg.spec.approx {
		// The sketch tier builds lazily on the first approx query; the
		// index is not ready to serve until it has.
		t1 := time.Now()
		if _, _, err := ix.ApproxKNNTuned(b.ctx, b.in.knnQ[0], knnK, approxRecall, sgtree.RouteApprox); err != nil {
			return 0, 0, err
		}
		rebuild = time.Since(t1)
	}
	return time.Since(t0), rebuild, nil
}

// warm runs the mix over the first pool queries, so the node cache and
// buffer pool hold what the mix touches before anything is timed.
func (b *readBench) warm() {
	ph := newPhase(time.Hour)
	for i := 0; i < min(len(b.in.knnQ), warmRounds)*len(b.classes); i++ {
		b.do(ph, i)
	}
}

// heapPerSet records the live heap the index added over base.
func (b *readBench) heapPerSet(base float64) {
	b.rep.metrics["heap_bytes_per_set"] = (heapNow() - base) / float64(b.in.d)
	b.rep.bases["heap_bytes_per_set"] = fmt.Sprintf("live heap growth over %d sets, after setup, warm-up and GC", b.in.d)
}

// runUntraced measures setupRuns data samples of the seed in turn, each
// for an equal share of the seconds, and reports the merged phases. How
// well a bulk-loaded tree prunes varies from sample to sample; merging
// several samples per run keeps that variation, and a stretch of
// interference from elsewhere on the host, from deciding a run's figures.
func (b *readBench) runUntraced() error {
	measured := newPhase(0)
	var setups []float64
	for s := 0; s < setupRuns; s++ {
		if err := b.load(sampleSeed(b.cfg.seed, s), 0); err != nil {
			return err
		}
		base := heapNow()
		setup, _, err := b.build()
		if err != nil {
			return err
		}
		setups = append(setups, setup.Seconds())
		b.warm()
		if s == 0 {
			b.heapPerSet(base)
			if err := b.treeShape(); err != nil {
				return err
			}
		}
		measured.merge(b.loop(b.cfg.phase(1.0 / setupRuns)))
	}
	b.rep.metrics["setup_s"] = median(setups)
	b.rep.samples["setup_s"] = len(setups)
	b.rep.info["data_samples"] = setupRuns
	b.reportEnd(measured)
	return nil
}

// runTraced measures the seed's first data sample: setup setupRuns times,
// then an untraced phase for the counters, a traced phase for the spans,
// the flat baseline and, where the workload serves, the served section.
func (b *readBench) runTraced() error {
	fresh := 0
	if b.cfg.spec.serve {
		fresh = b.cfg.spec.d
	}
	if err := b.load(b.cfg.seed, fresh); err != nil {
		return err
	}
	base := heapNow()
	var rebuilds []float64
	for i := 0; i < setupRuns; i++ {
		_, rebuild, err := b.build()
		if err != nil {
			return err
		}
		rebuilds = append(rebuilds, float64(rebuild)/1e6)
	}
	m := b.rep.metrics
	if b.cfg.spec.approx {
		m["sketch.rebuild_ms"] = median(rebuilds)
		b.rep.samples["sketch.rebuild_ms"] = len(rebuilds)
	}
	b.warm()
	b.heapPerSet(base)
	if err := b.treeShape(); err != nil {
		return err
	}
	if b.cfg.spec.approx {
		m["sketch.footprint_bytes_per_set"] = float64(b.ix.SketchFootprint()) / float64(b.in.d)
	}
	if err := b.prepareTrace(); err != nil {
		return err
	}
	// The seconds go to an untraced phase, a traced phase and, where the
	// workload serves, three served phases; the flat baseline adds a tenth.
	read := 0.5
	if b.cfg.spec.serve {
		read = 0.35
	}
	b.measureCounters(b.cfg.phase(read))
	b.tr = newTracer()
	traced := b.loop(b.cfg.phase(read))
	b.reportTrace(traced)
	b.flatBaseline(b.cfg.phase(0.1))
	if err := b.tr.write(fmt.Sprintf("%s/%s.spans.jsonl", b.cfg.outDir(), b.cfg.runName())); err != nil {
		return err
	}
	if !b.cfg.spec.serve {
		return nil
	}
	return measureServed(b.cfg, b.rep, b.in, b.cfg.phase((1-2*read)/3))
}

// treeShape records the tree size against the decoded-node cache, which is
// what makes a workload resident or spilling.
func (b *readBench) treeShape() error {
	ts, err := b.ix.TreeStats()
	if err != nil {
		return err
	}
	capNodes := b.ix.Tree().Options().NodeCacheSize
	b.rep.metrics["core.tree_nodes"] = float64(ts.Nodes)
	b.rep.metrics["core.tree_over_cache_nodes"] = ratio(float64(ts.Nodes), float64(capNodes))
	b.rep.bases["core.tree_over_cache_nodes"] = fmt.Sprintf("%d tree nodes / %d cache nodes", ts.Nodes, capNodes)
	b.rep.info["tree_nodes"] = ts.Nodes
	b.rep.info["tree_height"] = ts.Height
	b.rep.info["node_cache_nodes"] = capNodes
	return nil
}

// loop runs the closed-loop mix for dur: the classes in fixed rotation,
// each cycling through its query pool.
func (b *readBench) loop(dur time.Duration) *phase {
	runtime.GC()
	ph := newPhase(dur)
	for i := 0; !ph.done(time.Now()); i++ {
		b.do(ph, i)
	}
	return ph
}

// do runs operation i of the mix, times it, and checks its answer.
func (b *readBench) do(ph *phase, i int) {
	c := b.classes[i%len(b.classes)]
	qi := (i / len(b.classes)) % len(b.in.knnQ)
	b.rep.attempted++
	var err error
	var opSpan int64
	switch c {
	case opKNN:
		q := b.in.knnQ[qi]
		t0 := time.Now()
		res, st, qerr := b.ix.KNNContext(b.ctx, q, knnK)
		t1 := time.Now()
		ph.record(c, t0, t1)
		opSpan = b.span("sgtree.Index.KNN", i, 0, t0, t1)
		if err = qerr; err == nil {
			ph.knnN++
			ph.knnNodes += float64(st.NodesAccessed)
			ph.knnCompared += float64(st.DataCompared)
			ph.knnPrune += float64(st.EntriesPruned)
			err = checkKNN(res, b.in.knnWant[qi], q, b.lookup)
		}
	case opRange:
		q := b.in.rangeQ[qi]
		t0 := time.Now()
		res, _, qerr := b.ix.RangeSearchContext(b.ctx, q, rangeEps)
		t1 := time.Now()
		ph.record(c, t0, t1)
		opSpan = b.span("sgtree.Index.RangeSearch", i, 0, t0, t1)
		if err = qerr; err == nil {
			err = checkRange(res, b.in.rangeWant[qi], q, b.lookup)
		}
	case opContains:
		t0 := time.Now()
		ids, _, qerr := b.ix.ContainingContext(b.ctx, b.in.containQ[qi])
		t1 := time.Now()
		ph.record(c, t0, t1)
		opSpan = b.span("sgtree.Index.Containing", i, 0, t0, t1)
		if err = qerr; err == nil {
			if err = checkIDs(ids, b.in.containWant[qi]); err != nil {
				err = fmt.Errorf("contains: %w", err)
			}
		}
	case opApprox:
		q := b.in.knnQ[qi]
		t0 := time.Now()
		res, st, qerr := b.ix.ApproxKNNTuned(b.ctx, q, knnK, approxRecall, sgtree.RouteApprox)
		t1 := time.Now()
		ph.record(c, t0, t1)
		if err = qerr; err == nil {
			var hits int
			hits, err = checkApprox(res, b.in.knnWant[qi], q, b.lookup)
			ph.approxN++
			ph.approxHits += hits
			ph.approxWant += len(b.in.knnWant[qi])
			ph.approxCompared += float64(st.DataCompared)
		}
	}
	if err != nil {
		b.rep.wrongAnswer(fmt.Errorf("op %d (%v, query %d): %w", i, c, qi, err))
		return
	}
	if b.tr != nil && opSpan != 0 && (i/len(b.classes))%traceEvery == 0 {
		b.layers(c, i, qi, opSpan)
	}
}

// warmRounds caps the warm-up at this many rotations of the mix; on a
// spilling tree more would only cost time.
const warmRounds = 50

// traceEvery samples one query in this many per class for the layer calls.
const traceEvery = 4

func (b *readBench) span(name string, i int, parent int64, t0, t1 time.Time) int64 {
	if b.tr == nil {
		return 0
	}
	return b.tr.add(name, int64(i), parent, t0, t1)
}

// layers re-runs a sampled query one layer down at a time: the core tree
// on the prebuilt signature, the signature encoding the facade does first,
// the same tree over a timing pager, and the slab kernel and codec on the
// workload's own sets. Every answer is checked like the facade's.
func (b *readBench) layers(c opClass, i, qi int, parent int64) {
	tree := b.ix.Tree()
	check := func(err error) {
		b.rep.attempted++
		if err != nil {
			b.rep.wrongAnswer(fmt.Errorf("layer call for op %d: %w", i, err))
		}
	}
	switch c {
	case opRange:
		t0 := time.Now()
		ns, _, err := tree.RangeSearchContext(b.ctx, b.rangeSig[qi], rangeEps)
		b.span("core.Tree.RangeSearch", i, parent, t0, time.Now())
		if err == nil {
			err = checkRange(matches(ns), b.in.rangeWant[qi], b.in.rangeQ[qi], b.lookup)
		}
		check(err)
		return
	case opContains:
		t0 := time.Now()
		tids, _, err := tree.ContainmentContext(b.ctx, b.contSig[qi])
		b.span("core.Tree.Containment", i, parent, t0, time.Now())
		if err == nil {
			err = checkIDs(tidIDs(tids), b.in.containWant[qi])
		}
		check(err)
		return
	}
	q := b.in.knnQ[qi]
	// The operation itself loaded this query's nodes into the cache, but a
	// spilling tree evicts some of them again within one query, so whichever
	// of the facade and tree calls runs second finds more in the cache. The
	// two take turns going first, and each is compared as a median.
	index := func() {
		t0 := time.Now()
		res, _, err := b.ix.KNNContext(b.ctx, q, knnK)
		b.span("sgtree.Index.KNN.repeat", i, parent, t0, time.Now())
		if err == nil {
			err = checkKNN(res, b.in.knnWant[qi], q, b.lookup)
		}
		check(err)
	}
	treeCall := func() {
		t0 := time.Now()
		ns, _, err := tree.KNNContext(b.ctx, b.knnSig[qi], knnK)
		b.span("core.Tree.KNN", i, parent, t0, time.Now())
		b.treeKNNCalls++
		if err == nil {
			err = checkKNN(matches(ns), b.in.knnWant[qi], q, b.lookup)
		}
		check(err)
	}
	if b.treeKNNCalls%2 == 0 {
		index()
		treeCall()
	} else {
		treeCall()
		index()
	}

	t0 := time.Now()
	_ = signature.FromItems(b.mapper, q)
	b.span("signature.FromItems", i, parent, t0, time.Now())

	// The twin runs the same traversal; its observer counts leaf visits, so
	// the observer's cost stays out of the core.Tree.KNN span.
	leaves := 0
	ctx := core.WithObserver(b.ctx, &core.FuncObserver{NodeVisit: func(_ storage.PageID, leaf bool) {
		if leaf {
			leaves++
		}
	}})
	reads, readNs := b.pager.reads.Load(), b.pager.readNs.Load()
	t0 = time.Now()
	ns, _, err := b.twin.KNNContext(ctx, b.knnSig[qi], knnK)
	b.span("storage.TimingPager.KNN", i, parent, t0, time.Now())
	b.leafVisits += leaves
	b.pagerReads += b.pager.reads.Load() - reads
	b.pagerReadNs += b.pager.readNs.Load() - readNs
	if err == nil {
		err = checkKNN(matches(ns), b.in.knnWant[qi], q, b.lookup)
	}
	check(err)

	t0 = time.Now()
	b.flat.distances(q)
	b.span("bitset.XorCountSlab", i, parent, t0, time.Now())

	n := decodeBlock
	if n > b.in.d {
		n = b.in.d
	}
	from := (qi * n) % (b.in.d - n + 1)
	t0 = time.Now()
	for j := from; j < from+n; j++ {
		if _, err := b.codec.DecodeInto(b.enc[b.encOff[j]:], b.decodeSig); err != nil {
			check(err)
			break
		}
	}
	b.span("signature.DecodeInto", i, parent, t0, time.Now())
}

// decodeBlock is how many stored encodings one codec span decodes.
const decodeBlock = 256

func matches(ns []core.Neighbor) []sgtree.Match {
	out := make([]sgtree.Match, len(ns))
	for i, n := range ns {
		out[i] = sgtree.Match{ID: uint32(n.TID), Distance: n.Dist}
	}
	return out
}

func tidIDs(tids []dataset.TID) []uint32 {
	out := make([]uint32, len(tids))
	for i, t := range tids {
		out[i] = uint32(t)
	}
	return out
}

// timingPager counts and times the page reads a tree makes below its
// buffer pool.
type timingPager struct {
	storage.Pager
	reads, readNs atomic.Int64
}

func (p *timingPager) ReadPage(id storage.PageID, buf []byte) error {
	t0 := time.Now()
	err := p.Pager.ReadPage(id, buf)
	p.readNs.Add(int64(time.Since(t0)))
	p.reads.Add(1)
	return err
}

// prepareTrace builds what only the traced run uses: a twin of the facade
// tree on a timing pager, the flat slab, and the stored sets' encodings.
// None of it is timed as setup.
func (b *readBench) prepareTrace() error {
	opts := b.ix.Tree().Options()
	b.pager = &timingPager{Pager: storage.NewMemPager(opts.PageSize)}
	twin, err := core.NewWithPager(b.pager, opts)
	if err != nil {
		return err
	}
	bulk := make([]core.BulkItem, b.in.d)
	for i, tx := range b.in.data.Tx {
		bulk[i] = core.BulkItem{Sig: signature.FromItems(b.mapper, tx), TID: dataset.TID(i)}
	}
	if err := twin.BulkLoad(bulk); err != nil {
		return err
	}
	b.twin = twin
	for _, q := range b.knnSig { // warm the twin like the facade tree
		if _, _, err := twin.KNNContext(b.ctx, q, knnK); err != nil {
			return err
		}
	}
	ids := make([]uint32, b.in.d)
	for i := range ids {
		ids[i] = uint32(i)
	}
	b.flat = newFlatScan(b.in.data.Tx, ids)
	b.codec = signature.Codec{Length: opts.SignatureLength, ForceDense: !opts.Compress}
	for _, it := range bulk {
		b.encOff = append(b.encOff, len(b.enc))
		b.enc = b.codec.Append(b.enc, it.Sig)
	}
	b.decodeSig = signature.New(opts.SignatureLength)
	return nil
}

// measureCounters runs an untraced phase and reads the program's own
// counters around it.
func (b *readBench) measureCounters(dur time.Duration) {
	tree := b.ix.Tree()
	c0, p0 := tree.Counters(), tree.Pool().Stats()
	r0 := readRuntime()
	ph := b.loop(dur)
	r1 := readRuntime()
	c1, p1 := tree.Counters(), tree.Pool().Stats()

	queries := float64(c1.Queries - c0.Queries)
	hits, misses := float64(c1.NodeCacheHits-c0.NodeCacheHits), float64(c1.NodeCacheMisses-c0.NodeCacheMisses)
	m := b.rep.metrics
	m["core.node_cache_hit_rate"] = ratio(hits, hits+misses)
	m["core.node_cache_misses_per_query"] = ratio(misses, queries)
	b.rep.bases["core.node_cache_hit_rate"] = fmt.Sprintf("%.0f hits / %.0f lookups", hits, hits+misses)
	b.rep.bases["core.node_cache_misses_per_query"] = fmt.Sprintf("%.0f misses / %.0f tree queries", misses, queries)
	ph1, pm := float64(p1.Hits-p0.Hits), float64(p1.Misses-p0.Misses)
	m["storage.pool_hit_rate"] = ratio(ph1, ph1+pm)
	m["storage.pool_misses_per_query"] = ratio(pm, queries)
	b.rep.bases["storage.pool_hit_rate"] = fmt.Sprintf("%.0f hits / %.0f gets", ph1, ph1+pm)
	b.rep.bases["storage.pool_misses_per_query"] = fmt.Sprintf("%.0f misses / %.0f tree queries", pm, queries)
	reportRuntime(b.rep, r0, r1, ph.total())
	b.reportWork(ph)
	m["knn_p99_ms"] = ph.ops[opKNN].pct(0.99)
	m["range_p99_ms"] = ph.ops[opRange].pct(0.99)
	m["contains_p99_ms"] = ph.ops[opContains].pct(0.99)
	m["bench.untraced_knn_qps"] = ph.ops[opKNN].qps()
	b.rep.samples["bench.untraced_knn_qps"] = ph.ops[opKNN].count()
	if b.cfg.spec.approx {
		m["approx_knn_qps"] = ph.ops[opApprox].qps()
		b.rep.samples["approx_knn_qps"] = ph.ops[opApprox].count()
		m["approx_recall"] = ratio(float64(ph.approxHits), float64(ph.approxWant))
		b.rep.bases["approx_recall"] = fmt.Sprintf("%d hits / %d exact results", ph.approxHits, ph.approxWant)
		m["sketch.route_compared_per_query"] = ratio(ph.approxCompared, float64(ph.approxN))
		b.rep.samples["sketch.route_compared_per_query"] = ph.approxN
	}
}

// reportWork fills the per-query work the program reports for exact kNN.
func (b *readBench) reportWork(ph *phase) {
	n := float64(ph.knnN)
	m := b.rep.metrics
	m["core.nodes_per_query"] = ratio(ph.knnNodes, n)
	m["core.pruned_per_query"] = ratio(ph.knnPrune, n)
	m["core.compared_frac"] = ratio(ph.knnCompared/n, float64(b.in.d))
	b.rep.bases["core.compared_frac"] = fmt.Sprintf("%.1f sets compared per kNN / D=%d", ratio(ph.knnCompared, n), b.in.d)
	b.rep.samples["core.nodes_per_query"] = ph.knnN
}

// reportEnd fills the end-to-end metrics from an untraced phase.
func (b *readBench) reportEnd(ph *phase) {
	m := b.rep.metrics
	for _, c := range []opClass{opKNN, opRange, opContains} {
		o := &ph.ops[c]
		m[c.String()+"_qps"] = o.qps()
		b.rep.info[c.String()+"_slice_qps"] = o.sliceRates()
		b.rep.samples[c.String()] = o.count()
	}
	m["knn_p50_ms"] = ph.ops[opKNN].pct(0.5)
	m["knn_p95_ms"] = ph.ops[opKNN].pct(0.95)
}

// reportTrace fills the per-layer metrics from the spans of the traced
// phase.
func (b *readBench) reportTrace(traced *phase) {
	m, tr := b.rep.metrics, b.tr
	m["bench.traced_knn_qps"] = traced.ops[opKNN].qps()
	b.rep.samples["bench.traced_knn_qps"] = traced.ops[opKNN].count()
	m["bench.tracing_overhead_frac"] = 1 - ratio(m["bench.traced_knn_qps"], m["bench.untraced_knn_qps"])
	b.rep.bases["bench.tracing_overhead_frac"] = "1 - bench.traced_knn_qps / bench.untraced_knn_qps"

	m["core.knn_us_p50"] = tr.medianUs("core.Tree.KNN")
	m["core.range_us_p50"] = tr.medianUs("core.Tree.RangeSearch")
	m["sgtree.self_us_p50"] = tr.medianUs("sgtree.Index.KNN.repeat") - m["core.knn_us_p50"]
	b.rep.bases["sgtree.self_us_p50"] = "median sgtree.Index.KNN.repeat span - median core.Tree.KNN span"
	m["signature.encode_us_p50"] = tr.medianUs("signature.FromItems")
	calls := float64(len(tr.durations("storage.TimingPager.KNN")))
	m["core.leaf_visits_per_query"] = ratio(float64(b.leafVisits), calls)
	m["storage.pager_reads_per_query"] = ratio(float64(b.pagerReads), calls)
	m["storage.pager_read_us_per_query"] = ratio(float64(b.pagerReadNs)/1e3, calls)
	m["bitset.xorcount_slab_ns_per_row"] = tr.medianUs("bitset.XorCountSlab") * 1e3 / float64(b.in.d)
	n := decodeBlock
	if n > b.in.d {
		n = b.in.d
	}
	m["signature.decode_ns_per_sig"] = tr.medianUs("signature.DecodeInto") * 1e3 / float64(n)
	for _, name := range []string{"core.Tree.KNN", "core.Tree.RangeSearch", "sgtree.Index.KNN", "sgtree.Index.KNN.repeat", "signature.FromItems",
		"storage.TimingPager.KNN", "bitset.XorCountSlab", "signature.DecodeInto"} {
		b.rep.samples["span:"+name] = len(tr.durations(name))
	}
}

// flatBaseline checks the flat slab scan against the oracle on every pool
// query, then times it for dur and relates the tree's untraced kNN
// throughput to it.
func (b *readBench) flatBaseline(dur time.Duration) {
	var top []flatHit
	for qi, q := range b.in.knnQ {
		top = b.flat.knn(q, knnK, top)
		got := make([]sgtree.Match, len(top))
		for i, h := range top {
			got[i] = sgtree.Match{ID: h.id, Distance: float64(h.dist)}
		}
		if err := checkKNN(got, b.in.knnWant[qi], q, b.lookup); err != nil {
			b.rep.wrongAnswer(fmt.Errorf("flat scan, query %d: %w", qi, err))
		}
	}
	runtime.GC()
	fp := newPhase(dur)
	for i := 0; !fp.done(time.Now()); i++ {
		t0 := time.Now()
		top = b.flat.knn(b.in.knnQ[i%len(b.in.knnQ)], knnK, top)
		fp.record(opKNN, t0, time.Now())
	}
	flat := fp.ops[opKNN].qps()
	m := b.rep.metrics
	m["bitset.flat_knn_qps"] = flat
	b.rep.samples["bitset.flat_knn_qps"] = fp.ops[opKNN].count()
	m["core.tree_over_flat_knn"] = ratio(m["bench.untraced_knn_qps"], flat)
	b.rep.bases["core.tree_over_flat_knn"] = fmt.Sprintf("bench.untraced_knn_qps %.1f / bitset.flat_knn_qps %.1f", m["bench.untraced_knn_qps"], flat)
}
