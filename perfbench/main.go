// Command perfbench is the repository benchmark. It builds an index from
// seeded Quest T8.I4 data, drives one workload through the public API for
// a fixed time, checks every answer against the internal/scan oracle, and
// prints its metrics. With --trace 0 it prints the end-to-end metrics; with
// --trace 1 it runs a shorter untraced phase, then a traced phase that
// calls each layer in turn on sampled queries, and prints the per-layer
// metrics. See README.md for the workloads and what each metric means.
//
// Run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload spill-read --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"sgtree/internal/bitset"
)

// workloadSpec is one workload's fixed shape.
type workloadSpec struct {
	d      int  // stored sets
	pool   int  // queries per class and data sample
	approx bool // sketch tier on, approx kNN in the mix
	serve  bool // the traced run also serves the sets over loopback HTTP
}

var workloads = map[string]workloadSpec{
	// D=20K builds ~440 nodes: inside the default 1024-node cache.
	wResident: {d: 20000, pool: 400, approx: true, serve: true},
	// D=100K builds ~2200 nodes: about twice the cache.
	wSpill: {d: 100000, pool: 200},
}

// setupRuns is how many times a run sets an index up; setup_s is the
// median. An untraced run measures that many data samples of its seed.
const setupRuns = 5

type runConfig struct {
	workload string
	spec     workloadSpec
	seed     int64
	seconds  float64
	trace    bool
	root     string // outputs go under root/.bench_build/perfbench
	rev      string
}

func (c runConfig) phase(frac float64) time.Duration {
	return time.Duration(c.seconds * frac * float64(time.Second))
}

func (c runConfig) outDir() string { return filepath.Join(c.root, ".bench_build", "perfbench") }

func (c runConfig) runName() string {
	t := 0
	if c.trace {
		t = 1
	}
	return fmt.Sprintf("%s-seed%d-trace%d", c.workload, c.seed, t)
}

// report is what one run measured.
type report struct {
	attempted, failed int
	wrong             []string
	metrics           map[string]float64
	samples           map[string]int    // operations behind each timing
	bases             map[string]string // the terms of each ratio
	info              map[string]any    // host and inputs
}

func newReport() *report {
	return &report{metrics: map[string]float64{}, samples: map[string]int{}, bases: map[string]string{}, info: map[string]any{}}
}

// wrongAnswer records a failed correctness check. The first few are kept
// verbatim for the report.
func (r *report) wrongAnswer(err error) {
	r.failed++
	if len(r.wrong) < 20 {
		r.wrong = append(r.wrong, err.Error())
	}
	if len(r.wrong) == 20 {
		r.wrong = append(r.wrong, "...")
	}
}

func main() {
	var cfg runConfig
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: resident-read or spill-read")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds per run")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced per-layer run")
	flag.StringVar(&cfg.root, "root", ".", "checkout root; outputs go to its .bench_build/perfbench")
	flag.StringVar(&cfg.rev, "rev", "unknown", "git revision being measured")
	flag.Parse()
	cfg.trace = traceFlag == 1
	spec, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload resident-read|spill-read, --seconds > 0, --trace 0|1")
		os.Exit(2)
	}
	cfg.spec = spec
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := finish(cfg, rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, w := range rep.wrong {
		fmt.Fprintln(os.Stderr, "perfbench: wrong answer:", w)
	}
	fmt.Println(line)
}

func run(cfg runConfig) (*report, error) {
	rep := newReport()
	rep.info["workload"] = cfg.workload
	rep.info["seed"] = cfg.seed
	rep.info["d"] = cfg.spec.d
	rep.info["queries_per_class"] = cfg.spec.pool
	rep.info["seconds"] = cfg.seconds
	rep.info["trace"] = cfg.trace
	rep.info["gomaxprocs"] = runtime.GOMAXPROCS(0)
	rep.info["nproc"] = runtime.NumCPU()
	rep.info["go_version"] = runtime.Version()
	rep.info["git_revision"] = cfg.rev
	rep.info["fast_slab_kernels"] = bitset.FastSlabKernels()
	rep.info["sgtree_no_asm"] = os.Getenv("SGTREE_NO_ASM")
	rep.info["data"] = fmt.Sprintf("Quest T%d.I%d, universe %d", avgSize, avgItemset, universe)
	return rep, runRead(cfg, rep)
}

// finish checks that every metric the run owes is present, writes the
// full report and spans' companion file, and returns the result line.
func finish(cfg runConfig, rep *report) (string, error) {
	rep.metrics["error_frac"] = ratio(float64(rep.failed), float64(rep.attempted))
	out := map[string]any{}
	var na []string
	for _, m := range metricDefs {
		if m.e2e == cfg.trace {
			continue
		}
		v, ok := rep.metrics[m.name]
		switch {
		case !m.appliesTo(cfg.workload):
			v, ok = 0, true
			na = append(na, m.name)
		case !ok:
			return "", fmt.Errorf("metric %s was not measured", m.name)
		case m.e2e && v == 0:
			return "", fmt.Errorf("end-to-end metric %s measured 0", m.name)
		}
		out[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	sort.Strings(na)
	full := map[string]any{
		"info": rep.info, "samples": rep.samples, "ratio_bases": rep.bases,
		"not_on_path": na, "wrong": rep.wrong, "all_metrics": rep.metrics,
	}
	raw, err := json.Marshal(map[string]any{"report": full})
	if err != nil {
		return "", err
	}
	fmt.Println(string(raw))
	if err := os.MkdirAll(cfg.outDir(), 0o755); err != nil {
		return "", err
	}
	if err := os.WriteFile(filepath.Join(cfg.outDir(), cfg.runName()+".json"), raw, 0o644); err != nil {
		return "", err
	}
	res, err := json.Marshal(map[string]any{
		"correct":   len(rep.wrong) == 0,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   out,
	})
	return string(res), err
}

// heapNow returns the live heap after a full collection.
func heapNow() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// runtimeSnap is a point-in-time reading of the Go runtime counters a
// phase reports as differences.
type runtimeSnap struct {
	alloc       uint64
	gcCPU, cpus float64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readRuntime() runtimeSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(runtimeSamples)
	return runtimeSnap{alloc: ms.TotalAlloc, gcCPU: runtimeSamples[0].Value.Float64(), cpus: runtimeSamples[1].Value.Float64()}
}

// reportRuntime fills the runtime layer from two readings around a phase
// of ops operations.
func reportRuntime(rep *report, a, b runtimeSnap, ops int) {
	rep.metrics["runtime.alloc_bytes_per_query"] = ratio(float64(b.alloc-a.alloc), float64(ops))
	rep.metrics["runtime.gc_cpu_frac"] = ratio(b.gcCPU-a.gcCPU, b.cpus-a.cpus)
	rep.samples["runtime.alloc_bytes_per_query"] = ops
	rep.bases["runtime.gc_cpu_frac"] = fmt.Sprintf("%.3f GC cpu-s / %.3f total cpu-s", b.gcCPU-a.gcCPU, b.cpus-a.cpus)
}
