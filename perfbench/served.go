package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"sgtree"
	"sgtree/internal/dataset"
	"sgtree/internal/server"
	"sgtree/internal/storage"
)

const (
	collection = "bench"
	shards     = 2
	// openRate is the open-loop arrival rate in requests per second. It is
	// fixed, not derived from the measured capacity, so that a slower
	// program faces the same offered load and its queueing shows in the
	// latencies.
	openRate = 300.0
	// mixLen is the length of the fixed operation rotation: 14 kNN, 2
	// range, 2 containment, 1 insert and 1 delete per 20 operations.
	mixLen = 20
)

func servedOp(i int) (c opClass, insert bool) {
	switch s := i % mixLen; {
	case s == 9:
		return opWrite, true
	case s == 19:
		return opWrite, false
	case s%10 == 3:
		return opRange, false
	case s%10 == 7:
		return opContains, false
	}
	return opKNN, false
}

// request is one operation of the served mix.
type request struct {
	i      int
	class  opClass
	qi     int // query pool index (reads)
	id     uint32
	insert bool
	body   []byte
	path   string
	due    time.Time // open loop only
}

// outcome is a request's answer and timing.
type outcome struct {
	start, end time.Time
	matches    []sgtree.Match
	ids        []uint32
	found      bool
	err        error
}

type servedBench struct {
	cfg      runConfig
	rep      *report
	in       *inputs
	dir      string // server data directory
	url      string
	client   *http.Client
	srv      *server.Server
	hs       *http.Server
	serveErr chan error

	model                        *model
	delPerm                      []int
	nextIns                      int
	nextDel                      int
	nextQ                        [numClasses]int
	knnBody, rangeBody, contBody [][]byte

	// Traced phase only.
	tr        *tracer
	twin      *sgtree.Sharded // the collection's in-process twin
	syncMs    []float64       // twin Sync after each traced write
	slowestUs []float64       // per sampled query, the slowest shard's Index call
	skew      []float64       // per sampled query, slowest / mean shard call
}

func servedSpec() server.CollectionSpec {
	return server.CollectionSpec{Name: collection, Universe: universe, Shards: shards,
		Partition: string(sgtree.HashPartitioning), Durable: true, Compress: true}
}

// twinConfig is the sgtree.Config the server derives from servedSpec.
func twinConfig() sgtree.Config {
	return sgtree.Config{Universe: universe, Compress: true, Durable: true}
}

// measureServed serves the workload's sets from internal/server on
// loopback HTTP, as one durable 2-shard hash collection, and measures the
// layers the in-process read mix does not reach: the server, Sharded
// scatter-gather and the WAL. The mix is mostly kNN, with writes the server
// syncs one by one. It runs three phases of dur each: a closed loop (write
// throughput and /stats counters), an open loop at openRate (write
// latency and generator lateness), and a traced closed loop that repeats
// sampled kNN on an in-process twin of the collection.
func measureServed(cfg runConfig, rep *report, in *inputs, dur time.Duration) error {
	s := &servedBench{cfg: cfg, rep: rep, in: in, model: newModel(in)}
	s.delPerm = rand.New(rand.NewSource(cfg.seed ^ 0xde1e7e)).Perm(in.d)
	for i := range in.knnQ {
		s.knnBody = append(s.knnBody, mustJSON(map[string]any{"items": in.knnQ[i], "k": knnK}))
		s.rangeBody = append(s.rangeBody, mustJSON(map[string]any{"items": in.rangeQ[i], "eps": rangeEps}))
		s.contBody = append(s.contBody, mustJSON(map[string]any{"items": in.containQ[i]}))
	}
	bulk := make([]map[string]any, in.d)
	for i, tx := range in.data.Tx {
		bulk[i] = map[string]any{"id": i, "items": tx}
	}
	n := runtime.NumCPU()
	s.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n, DisableCompression: true}}
	s.dir = filepath.Join(cfg.outDir(), "data", cfg.runName())
	for _, dir := range []string{s.dir, s.dir + "-twin"} {
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	if err := s.start(); err != nil {
		return err
	}
	defer func() {
		s.shutdown()
		// The collection files are measured by now; dropping them keeps
		// repeated runs from filling the disk.
		os.RemoveAll(s.dir)
		os.RemoveAll(s.dir + "-twin")
	}()
	t0 := time.Now()
	if err := s.post("/collections", mustJSON(servedSpec()), nil); err != nil {
		return err
	}
	if err := s.post("/collections/"+collection+"/bulkload", mustJSON(map[string]any{"items": bulk}), nil); err != nil {
		return err
	}
	rep.info["served_setup_s"] = time.Since(t0).Seconds()
	for qi := range in.knnQ { // warm-up, checked
		for _, c := range []opClass{opKNN, opRange, opContains} {
			s.closedOp(nil, request{class: c, qi: qi, path: readPath(c), body: s.readBody(c, qi)})
		}
	}
	if err := s.buildTwin(); err != nil {
		return err
	}

	st0, err := s.stats()
	if err != nil {
		return err
	}
	wal0, _ := dirBytes(s.dir)
	closed := s.closedLoop(dur)
	st1, err := s.stats()
	if err != nil {
		return err
	}
	open, lag := s.openLoop(dur)
	wal1, disk := dirBytes(s.dir)
	userBytes := 0
	for i := 0; i < s.nextIns; i++ {
		userBytes += 4 + 4*len(in.fresh[i])
	}
	for i := 0; i < s.nextDel; i++ {
		userBytes += 4 + 4*len(in.data.Tx[s.delPerm[i]])
	}
	writes := closed.ops[opWrite].count() + open.ops[opWrite].count()
	m := rep.metrics
	m["write_ops_s"] = closed.ops[opWrite].qps()
	rep.samples["write_ops_s"] = closed.ops[opWrite].count()
	m["write_p99_ms"] = open.ops[opWrite].pct(0.99)
	rep.samples["write_p99_ms"] = open.ops[opWrite].count()
	m["bench.generator_lag_ms_p99"] = percentile(lag, 0.99)
	rep.samples["bench.generator_lag_ms_p99"] = len(lag)
	rep.info["open_loop_rate_per_s"] = openRate
	rep.info["open_loop_connections"] = n
	m["disk_bytes_per_set"] = ratio(float64(disk), float64(len(s.model.live)))
	rep.bases["disk_bytes_per_set"] = fmt.Sprintf("%d file and WAL bytes / %d stored sets", disk, len(s.model.live))
	m["storage.wal_bytes_per_user_byte"] = ratio(float64(wal1-wal0), float64(userBytes))
	rep.bases["storage.wal_bytes_per_user_byte"] = fmt.Sprintf("%d WAL bytes / %d user bytes (4 per id, 4 per item) over %d writes", wal1-wal0, userBytes, writes)
	commits := totalCommits(st1) - totalCommits(st0)
	m["storage.wal_commits_per_write"] = ratio(float64(commits), float64(closed.ops[opWrite].count()))
	rep.bases["storage.wal_commits_per_write"] = fmt.Sprintf("%d commits / %d closed-loop writes", commits, closed.ops[opWrite].count())
	handler := st1.Endpoints["knn"].LatencyMsP50
	m["server.handler_ms_p50"] = handler
	m["server.transport_ms_p50"] = closed.ops[opKNN].pct(0.5) - handler
	rep.bases["server.transport_ms_p50"] = "closed-loop client kNN p50 - /stats knn handler p50 (last 1024 requests)"

	if err := s.twin.Sync(); err != nil {
		return err
	}
	s.tr = newTracer()
	s.closedLoop(dur)
	m["sharded.fanout_us_p50"] = s.tr.medianUs("sgtree.Sharded.KNN") - median(s.slowestUs)
	rep.bases["sharded.fanout_us_p50"] = "median sgtree.Sharded.KNN span - median of the slowest shard's sgtree.Index.KNN span per query"
	m["sharded.shard_skew"] = median(s.skew)
	rep.bases["sharded.shard_skew"] = "median over sampled queries of slowest / mean shard sgtree.Index.KNN span"
	m["storage.sync_ms_p50"] = percentile(s.syncMs, 0.5)
	m["storage.sync_ms_p99"] = percentile(s.syncMs, 0.99)
	rep.samples["storage.sync_ms"] = len(s.syncMs)
	for _, name := range []string{"http.knn", "sgtree.Sharded.KNN", "sgtree.Index.KNN"} {
		rep.samples["served span:"+name] = len(s.tr.durations(name))
	}
	s.finalCheck()
	return s.tr.write(fmt.Sprintf("%s/%s.served-spans.jsonl", cfg.outDir(), cfg.runName()))
}

func mustJSON(v any) []byte {
	raw, err := json.Marshal(v)
	if err != nil {
		panic(err) // only benchmark-built values are marshalled
	}
	return raw
}

// start launches a fresh server on a loopback port.
func (s *servedBench) start() error {
	srv, err := server.New(server.Config{DataDir: s.dir})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return err
	}
	s.srv, s.url = srv, "http://"+ln.Addr().String()
	s.hs = &http.Server{Handler: srv.Handler()}
	s.serveErr = make(chan error, 1)
	go func() { s.serveErr <- s.hs.Serve(ln) }()
	return nil
}

// shutdown stops the server, waits for it, and closes the twin.
func (s *servedBench) shutdown() error {
	if s.hs == nil {
		return nil
	}
	s.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.serveErr; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := s.srv.Close(); err == nil {
		err = cerr
	}
	if s.twin != nil {
		if cerr := s.twin.Close(); err == nil {
			err = cerr
		}
		s.twin = nil
	}
	s.hs = nil
	return err
}

func (s *servedBench) post(path string, body []byte, out any) error {
	resp, err := s.client.Post(s.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s: HTTP %d: %s", path, resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

func readPath(c opClass) string {
	switch c {
	case opRange:
		return "/collections/" + collection + "/range"
	case opContains:
		return "/collections/" + collection + "/contains"
	}
	return "/collections/" + collection + "/knn"
}

func (s *servedBench) readBody(c opClass, qi int) []byte {
	switch c {
	case opRange:
		return s.rangeBody[qi]
	case opContains:
		return s.contBody[qi]
	}
	return s.knnBody[qi]
}

func (s *servedBench) query(c opClass, qi int) dataset.Transaction {
	switch c {
	case opRange:
		return s.in.rangeQ[qi]
	case opContains:
		return s.in.containQ[qi]
	}
	return s.in.knnQ[qi]
}

// next builds operation i of the mix. Inserts take fresh ids above the
// generated ones; deletes walk a seeded permutation of the generated ids,
// so no id is written twice and the order of concurrent writes does not
// change the final state.
func (s *servedBench) next(i int) request {
	c, ins := servedOp(i)
	r := request{i: i, class: c}
	if c != opWrite {
		r.qi = s.nextQ[c] % len(s.in.knnQ)
		s.nextQ[c]++
		r.path, r.body = readPath(c), s.readBody(c, r.qi)
		return r
	}
	r.insert = ins
	if ins {
		r.id = uint32(s.in.d + s.nextIns%len(s.in.fresh))
		s.nextIns++
		r.path = "/collections/" + collection + "/insert"
	} else {
		r.id = uint32(s.delPerm[s.nextDel%len(s.delPerm)])
		s.nextDel++
		r.path = "/collections/" + collection + "/delete"
	}
	r.body = mustJSON(map[string]any{"id": r.id, "items": s.model.byID[r.id]})
	return r
}

// send performs one request over HTTP and times it.
func (s *servedBench) send(r request) outcome {
	var o outcome
	o.start = time.Now()
	switch r.class {
	case opWrite:
		var resp struct {
			Found *bool `json:"found"`
		}
		o.err = s.post(r.path, r.body, &resp)
		o.found = resp.Found != nil && *resp.Found
	case opContains:
		var resp struct {
			IDs []uint32 `json:"ids"`
		}
		o.err = s.post(r.path, r.body, &resp)
		o.ids = resp.IDs
	default:
		var resp struct {
			Matches []struct {
				ID       uint32  `json:"id"`
				Distance float64 `json:"distance"`
			} `json:"matches"`
		}
		o.err = s.post(r.path, r.body, &resp)
		for _, m := range resp.Matches {
			o.matches = append(o.matches, sgtree.Match{ID: m.ID, Distance: m.Distance})
		}
	}
	o.end = time.Now()
	return o
}

// checkExact checks a read against the model; the model must hold exactly
// the writes acknowledged before the read was sent.
func (s *servedBench) checkExact(r request, o outcome) error {
	q := s.query(r.class, r.qi)
	switch r.class {
	case opKNN:
		return checkKNN(o.matches, s.model.knnWant(r.qi), q, s.model.lookup)
	case opRange:
		return checkRange(o.matches, s.model.rangeWant(r.qi), q, s.model.lookup)
	default:
		if err := checkIDs(o.ids, s.model.containWant(r.qi)); err != nil {
			return fmt.Errorf("contains: %w", err)
		}
		return nil
	}
}

// apply records an acknowledged write in the model and, in the traced
// run, repeats it on the twin.
func (s *servedBench) apply(r request, o outcome, syncTimed bool) error {
	if !r.insert && !o.found {
		return fmt.Errorf("delete of stored id %d reported not found", r.id)
	}
	tx := s.model.byID[r.id]
	if r.insert {
		s.model.insert(r.id)
	} else {
		s.model.remove(r.id)
	}
	if s.twin == nil {
		return nil
	}
	var err error
	if r.insert {
		err = s.twin.Insert(r.id, tx)
	} else {
		var found bool
		if found, err = s.twin.Delete(r.id, tx); err == nil && !found {
			err = fmt.Errorf("twin delete of id %d not found", r.id)
		}
	}
	if err != nil || !syncTimed {
		return err
	}
	t0 := time.Now()
	err = s.twin.Sync()
	s.syncMs = append(s.syncMs, float64(time.Since(t0))/1e6)
	return err
}

// closedOp sends one request, waits for it, and checks it. ph may be nil
// (warm-up).
func (s *servedBench) closedOp(ph *phase, r request) outcome {
	o := s.send(r)
	if ph != nil {
		ph.record(r.class, o.start, o.end)
	}
	s.rep.attempted++
	var err error
	switch {
	case o.err != nil:
		s.rep.failed++
		return o
	case r.class == opWrite:
		err = s.apply(r, o, s.tr != nil)
	default:
		err = s.checkExact(r, o)
	}
	if err != nil {
		s.rep.wrongAnswer(fmt.Errorf("op %d (%s): %w", r.i, r.path, err))
	}
	return o
}

// closedLoop is the capacity phase: one client, next request after the
// previous answer, every read checked exactly against the model.
func (s *servedBench) closedLoop(dur time.Duration) *phase {
	runtime.GC()
	ph := newPhase(dur)
	for i := 0; !ph.done(time.Now()); i++ {
		r := s.next(i)
		o := s.closedOp(ph, r)
		if s.tr != nil {
			id := s.tr.add("http."+readOrWrite(r), int64(i), 0, o.start, o.end)
			if r.class == opKNN && o.err == nil && (s.nextQ[opKNN]-1)%traceEvery == 0 {
				s.layers(i, r.qi, id)
			}
		}
	}
	return ph
}

func readOrWrite(r request) string {
	switch {
	case r.class == opWrite && r.insert:
		return "insert"
	case r.class == opWrite:
		return "delete"
	}
	return strings.TrimPrefix(r.path, "/collections/"+collection+"/")
}

// openLoop is the latency phase: Poisson arrivals at openRate, sent by at
// most nproc connections. Each latency runs from when the request was due,
// so a stall also delays the requests queued behind it. Reads are checked
// for soundness (every returned set is stored at the reported distance);
// the writes are applied to the model once the phase has drained.
func (s *servedBench) openLoop(dur time.Duration) (*phase, []float64) {
	runtime.GC()
	rng := rand.New(rand.NewSource(s.cfg.seed ^ 0x09e7))
	n := int(openRate * dur.Seconds())
	reqs := make([]request, n)
	offs := make([]time.Duration, n)
	var at float64
	for j := range reqs {
		at += rng.ExpFloat64() / openRate
		offs[j] = time.Duration(at * float64(time.Second))
		reqs[j] = s.next(j)
		reqs[j].i = j
	}
	outs := make([]outcome, n)
	lag := make([]float64, n)
	// Buffered for every request, so the generator never waits on a
	// worker and its lateness measures only its own scheduling.
	ch := make(chan request, n)
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range ch {
				outs[r.i] = s.send(r)
			}
		}()
	}
	ph := newPhase(dur)
	for j := range reqs {
		due := ph.start.Add(offs[j])
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		reqs[j].due = due
		lag[j] = float64(time.Since(due)) / 1e6
		ch <- reqs[j]
	}
	close(ch)
	wg.Wait()

	for j, r := range reqs {
		o := outs[j]
		ph.record(r.class, r.due, o.end)
		s.rep.attempted++
		if o.err != nil {
			s.rep.failed++
			continue
		}
		var err error
		switch r.class {
		case opWrite:
			err = s.apply(r, o, false)
		case opContains:
			for _, id := range o.ids {
				if tx, ok := s.model.byID[id]; !ok || !tx.ContainsAll(s.in.containQ[r.qi]) {
					err = fmt.Errorf("contains: id %d does not hold the query items", id)
					break
				}
			}
		default:
			err = checkDistances(o.matches, s.query(r.class, r.qi), func(id uint32) (dataset.Transaction, bool) {
				tx, ok := s.model.byID[id]
				return tx, ok
			})
			if err == nil && r.class == opKNN && len(o.matches) != knnK {
				err = fmt.Errorf("knn: %d results", len(o.matches))
			}
		}
		if err != nil {
			s.rep.wrongAnswer(fmt.Errorf("open-loop op %d (%s): %w", j, r.path, err))
		}
	}
	return ph, lag
}

// finalCheck runs a slice of each query pool once all writes have
// drained and checks the answers, and the model's own, against the
// internal/scan oracle over the stored sets.
func (s *servedBench) finalCheck() {
	sc, id := s.model.scanner()
	for qi := 0; qi < len(s.in.knnQ) && qi < 25; qi++ {
		knn, err := oracleKNN(sc, s.in.knnQ[qi])
		if err == nil {
			err = sameDistances(asMatches(knn), asMatches(s.model.knnWant(qi)))
		}
		if err == nil {
			var rng []uint32
			if rng, err = oracleRange(sc, s.in.rangeQ[qi], id); err == nil {
				err = checkIDs(rng, s.model.rangeWant(qi))
			}
		}
		if err == nil {
			err = checkIDs(oracleContain(sc, s.in.containQ[qi], id), s.model.containWant(qi))
		}
		s.rep.attempted++
		if err != nil {
			s.rep.wrongAnswer(fmt.Errorf("model disagrees with internal/scan on query %d: %w", qi, err))
		}
		for _, c := range []opClass{opKNN, opRange, opContains} {
			s.closedOp(nil, request{i: -1, class: c, qi: qi, path: readPath(c), body: s.readBody(c, qi)})
		}
	}
}

func asMatches(ds []float64) []sgtree.Match {
	out := make([]sgtree.Match, len(ds))
	for i, d := range ds {
		out[i].Distance = d
	}
	return out
}

// dirBytes sums the WAL files and all files under dir.
func dirBytes(dir string) (wal, all int64) {
	filepath.Walk(dir, func(path string, fi os.FileInfo, err error) error {
		if err == nil && !fi.IsDir() {
			all += fi.Size()
			if strings.HasSuffix(path, storage.WALSuffix) {
				wal += fi.Size()
			}
		}
		return nil
	})
	return wal, all
}

// stats reads the server's /stats document.
func (s *servedBench) stats() (server.StatsReport, error) {
	var st server.StatsReport
	resp, err := s.client.Get(s.url + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, err
}

func totalCommits(st server.StatsReport) int64 {
	var n int64
	for _, sh := range st.Collections[collection].Shard {
		n += sh.WALCommits
	}
	return n
}

// buildTwin loads a durable copy of the served collection, same
// configuration, on its own directory, so the layers below HTTP can be
// called on the same data. Every acknowledged write is repeated on it.
func (s *servedBench) buildTwin() error {
	twin, err := sgtree.NewShardedOnDir(twinConfig(), shards, sgtree.HashPartitioning, s.dir+"-twin")
	if err != nil {
		return err
	}
	s.twin = twin
	twin.SetWALRetention(true)
	if err := twin.BulkLoad(s.in.items); err != nil {
		return err
	}
	if err := twin.Sync(); err != nil {
		return err
	}
	for _, q := range s.in.knnQ { // warm the twin like the served trees
		if _, _, err := twin.KNNContext(context.Background(), q, knnK); err != nil {
			return err
		}
	}
	return nil
}

// layers re-runs a sampled kNN on the twin: the Sharded scatter-gather,
// then each shard's Index on its own.
func (s *servedBench) layers(i, qi int, parent int64) {
	q := s.in.knnQ[qi]
	ctx := context.Background()
	s.rep.attempted++
	t0 := time.Now()
	res, _, err := s.twin.KNNContext(ctx, q, knnK)
	s.tr.add("sgtree.Sharded.KNN", int64(i), parent, t0, time.Now())
	if err == nil {
		err = checkKNN(res, s.model.knnWant(qi), q, s.model.lookup)
	}
	var slowest, sum float64
	for sh := 0; sh < s.twin.NumShards() && err == nil; sh++ {
		t0 = time.Now()
		_, _, err = s.twin.Shard(sh).KNNContext(ctx, q, knnK)
		t1 := time.Now()
		s.tr.add("sgtree.Index.KNN", int64(i), parent, t0, t1)
		us := float64(t1.Sub(t0)) / 1e3
		sum += us
		slowest = max(slowest, us)
	}
	if err != nil {
		s.rep.wrongAnswer(fmt.Errorf("layer call for op %d: %w", i, err))
		return
	}
	s.slowestUs = append(s.slowestUs, slowest)
	s.skew = append(s.skew, ratio(slowest, sum/float64(s.twin.NumShards())))
}

// sameDistances checks two answers to one query have equal distance
// multisets.
func sameDistances(a, b []sgtree.Match) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d vs %d results", len(a), len(b))
	}
	da, db := make([]float64, len(a)), make([]float64, len(b))
	for i := range a {
		da[i], db[i] = a[i].Distance, b[i].Distance
	}
	sort.Float64s(da)
	sort.Float64s(db)
	for i := range da {
		if da[i] != db[i] {
			return fmt.Errorf("distance #%d: %v vs %v", i, da[i], db[i])
		}
	}
	return nil
}
