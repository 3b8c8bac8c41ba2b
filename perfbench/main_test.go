package main

import (
	"encoding/json"
	"os"
	"testing"

	"sgtree"
)

// TestTinyRuns runs every workload at a tiny scale, untraced and traced,
// and checks the result line: correct, nothing failed, and every metric
// the mode owes present with its unit.
func TestTinyRuns(t *testing.T) {
	for name, spec := range workloads {
		for _, trace := range []bool{false, true} {
			spec.d, spec.pool = 600, 12
			cfg := runConfig{workload: name, spec: spec, seed: 7, seconds: 0.4, trace: trace, root: t.TempDir(), rev: "test"}
			rep, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			line, err := finish(cfg, rep)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			var res struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(line), &res); err != nil {
				t.Fatalf("%s trace=%v: result line %q: %v", name, trace, line, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d wrong=%v", name, trace, res.Correct, res.Attempted, res.Failed, rep.wrong)
			}
			n := 0
			for _, m := range metricDefs {
				if m.e2e == trace {
					continue
				}
				n++
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("%s trace=%v: metric %s missing or unit %q, want %q", name, trace, m.name, got.Unit, m.unit)
				}
			}
			if len(res.Metrics) != n {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), n)
			}
		}
	}
}

// TestCheckersRejectCorruption corrupts correct answers and expects every
// checker to reject them.
func TestCheckersRejectCorruption(t *testing.T) {
	in, err := makeInputs(400, 8, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := sgtree.New(readConfig(false))
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.BulkLoad(in.items); err != nil {
		t.Fatal(err)
	}
	b := &readBench{in: in}
	for qi := range in.knnQ {
		q := in.knnQ[qi]
		res, _, err := ix.KNN(q, knnK)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkKNN(res, in.knnWant[qi], q, b.lookup); err != nil {
			t.Fatalf("query %d: correct kNN rejected: %v", qi, err)
		}
		if _, err := checkApprox(res, in.knnWant[qi], q, b.lookup); err != nil {
			t.Fatalf("query %d: exact answer rejected as approx: %v", qi, err)
		}
		corrupt := func(f func([]sgtree.Match) []sgtree.Match) []sgtree.Match {
			return f(append([]sgtree.Match(nil), res...))
		}
		bad := map[string][]sgtree.Match{
			"dropped":   corrupt(func(m []sgtree.Match) []sgtree.Match { return m[1:] }),
			"farther":   corrupt(func(m []sgtree.Match) []sgtree.Match { m[0].Distance++; return m }),
			"wrong id":  corrupt(func(m []sgtree.Match) []sgtree.Match { m[0].ID = m[len(m)-1].ID; return m }),
			"unknown":   corrupt(func(m []sgtree.Match) []sgtree.Match { m[0].ID = uint32(in.d + 5); return m }),
			"duplicate": corrupt(func(m []sgtree.Match) []sgtree.Match { m[1] = m[0]; return m }),
		}
		for what, m := range bad {
			if checkKNN(m, in.knnWant[qi], q, b.lookup) == nil {
				t.Errorf("query %d: kNN answer with %s result accepted", qi, what)
			}
		}
		if _, err := checkApprox(bad["farther"], in.knnWant[qi], q, b.lookup); err == nil {
			t.Errorf("query %d: approx answer with a misreported distance accepted", qi)
		}
		farther := make([]float64, len(in.knnWant[qi]))
		for i, d := range in.knnWant[qi] {
			farther[i] = d + 1
		}
		if _, err := checkApprox(res, farther, q, b.lookup); err == nil {
			t.Errorf("query %d: approx answer beating the exact one accepted", qi)
		}

		rq := in.rangeQ[qi]
		rres, _, err := ix.RangeSearch(rq, rangeEps)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkRange(rres, in.rangeWant[qi], rq, b.lookup); err != nil {
			t.Fatalf("query %d: correct range rejected: %v", qi, err)
		}
		extra := append(append([]sgtree.Match(nil), rres...), sgtree.Match{ID: uint32(qi), Distance: 0})
		if checkRange(extra, in.rangeWant[qi], rq, b.lookup) == nil {
			t.Errorf("query %d: range answer with an extra id accepted", qi)
		}
		ids, _, err := ix.Containing(in.containQ[qi])
		if err != nil {
			t.Fatal(err)
		}
		if err := checkIDs(ids, in.containWant[qi]); err != nil {
			t.Fatalf("query %d: correct containment rejected: %v", qi, err)
		}
		if len(ids) > 0 && checkIDs(ids[1:], in.containWant[qi]) == nil {
			t.Errorf("query %d: containment answer missing an id accepted", qi)
		}
	}
}

// TestBenchmarkJSON checks BENCHMARK.json at the repository root lists the
// same workloads and metrics, with the same units and directions, as the
// benchmark reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit, Better string }
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark %d", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown", w.Name)
		}
	}
	listed := map[string]metric{}
	for _, m := range bj.EndToEnd {
		listed["e2e:"+m.Name] = m
	}
	for _, m := range bj.PerLayer {
		listed["layer:"+m.Name] = m
	}
	for _, d := range metricDefs {
		key := "layer:" + d.name
		if d.e2e {
			key = "e2e:" + d.name
		}
		m, ok := listed[key]
		if !ok || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("metric %s: BENCHMARK.json has %+v (listed %v), want unit %s, better %s", key, m, ok, d.unit, d.better)
		}
		delete(listed, key)
	}
	for key := range listed {
		t.Errorf("BENCHMARK.json lists %s, which the benchmark does not report", key)
	}
}
