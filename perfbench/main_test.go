package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// Tiny versions of the three workloads: same code paths, a fraction of a
// second per operation, no pinned digests.
var (
	tinyPaper   = paperParams{rounds: 1, probeReps: 1}
	tinyUniform = trafficParams{rows: 4, rate: 0.3, warmup: 50, measure: 200, slice: 50, probeReps: 1}
	tinyMesh    = trafficParams{rows: 8, shards: 2, rate: 0.05, warmup: 50, measure: 150, slice: 25, checkpointEvery: 50}
)

func tinyWorkloads() []workloadSpec {
	return []workloadSpec{
		paperWorkload("paper-sweep", tinyPaper),
		trafficWorkload("uniform-saturated", tinyUniform),
		trafficWorkload("mesh32-checkpoint", tinyMesh),
	}
}

type result struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]struct {
		Value float64
		Unit  string
	}
}

// runTiny runs one workload for the shortest time and returns the parsed
// result line, the whole output and the run.
func runTiny(t *testing.T, w workloadSpec, seed int64, trace bool) (result, string, runResult) {
	t.Helper()
	r := bench(w, seed, 1e-3, trace, t.TempDir())
	var out bytes.Buffer
	if err := report(&out, w, seed, provenance{}, r); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v\n%s", w.name, err, out.String())
	}
	if res.Attempted < 1 || res.Failed != 0 || !res.Correct {
		t.Fatalf("%s seed %d: attempted %d failed %d correct %v", w.name, seed, res.Attempted, res.Failed, res.Correct)
	}
	return res, out.String(), r
}

type benchmarkFile struct {
	Command   []string
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadJSON(t *testing.T, path string, v any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// TestEveryMetricPrintsWithUnit runs each workload untraced and traced and
// checks that every metric BENCHMARK.json declares is in the result with
// its unit and on a printed line, and that end-to-end values are
// positive.
func TestEveryMetricPrintsWithUnit(t *testing.T) {
	var bf benchmarkFile
	loadJSON(t, "../BENCHMARK.json", &bf)
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	for i, w := range bf.Workloads {
		if i >= len(names) || w.Name != names[i] {
			t.Fatalf("BENCHMARK.json workloads %v do not match the program's %v", bf.Workloads, names)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d/%d metrics, the program %d/%d",
			len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(perLayer))
	}
	for _, w := range tinyWorkloads() {
		for _, trace := range []bool{false, true} {
			res, out, r := runTiny(t, w, defaultSeed, trace)
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok || got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.name, trace, m.Name, got, m.Unit)
				case !trace && !(got.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, m.Name, got.Value)
				}
				if !strings.Contains(out, "\n"+m.Name+" ") || !strings.Contains(out, " "+m.Unit+" ") && !strings.Contains(out, " "+m.Unit+"\n") {
					t.Errorf("%s trace=%v: no printed line for %s in %s", w.name, trace, m.Name, m.Unit)
				}
			}
			if trace {
				checkChromeTrace(t, r.tr)
			}
		}
	}
}

// checkChromeTrace writes the traced run's spans and checks the file
// parses and every span's parent is a span of the same operation.
func checkChromeTrace(t *testing.T, tr *tracer) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeTrace(path, tr, "test", provenance{}); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []struct {
			Name, Ph string
			Args     map[string]any
		}
	}
	loadJSON(t, path, &f)
	ids := map[[2]float64]bool{}
	for _, e := range f.TraceEvents {
		if e.Ph == "X" {
			ids[[2]float64{e.Args["op"].(float64), e.Args["id"].(float64)}] = true
		}
	}
	if len(ids) == 0 {
		t.Fatal("trace holds no spans")
	}
	for _, e := range f.TraceEvents {
		if p, _ := e.Args["parent"].(float64); e.Ph == "X" && p != 0 && !ids[[2]float64{e.Args["op"].(float64), p}] {
			t.Errorf("span %s has parent %v outside its operation", e.Name, p)
		}
	}
}

// TestWrongPinnedDigestFails checks a pinned digest that does not match
// the results fails an operation at the default seed only. (Later
// operations of a traffic run draw other traffic and are not pinned.)
func TestWrongPinnedDigestFails(t *testing.T) {
	p := tinyUniform
	p.digest = "0000000000000000"
	w := trafficWorkload("uniform-saturated", p)
	r := bench(w, defaultSeed, 1e-3, false, t.TempDir())
	if r.warmup.failed != 1 || r.untraced[0].failed != 0 {
		t.Errorf("wrong digest: %d and %d failed operations, want 1 and 0", r.warmup.failed, r.untraced[0].failed)
	}
	if r.warmup.digest == r.untraced[0].digest {
		t.Errorf("operations of one run drew the same traffic")
	}
	p.digest = r.warmup.digest
	if r := bench(trafficWorkload("uniform-saturated", p), defaultSeed, 1e-3, false, t.TempDir()); r.warmup.failed != 0 {
		t.Errorf("right digest: %d failed operations", r.warmup.failed)
	}
	runTiny(t, w, defaultSeed+1, false) // other seeds are not pinned
}

// TestSeedChangesTrafficNotCacheTotals checks the seed reaches the traffic
// generator, while on paper-sweep it only reorders the artifacts: the
// rows and the cache totals stay the same.
func TestSeedChangesTrafficNotCacheTotals(t *testing.T) {
	w := trafficWorkload("uniform-saturated", tinyUniform)
	_, _, a := runTiny(t, w, 1, false)
	_, _, b := runTiny(t, w, 2, false)
	if a.warmup.digest == b.warmup.digest {
		t.Errorf("uniform-saturated: seeds 1 and 2 give the same results %s", a.warmup.digest)
	}
	p := paperWorkload("paper-sweep", tinyPaper)
	var digests []string
	for _, seed := range []int64{1, 2} {
		res, _, r := runTiny(t, p, seed, true)
		hits, misses := res.Metrics["experiments.cache_hits"].Value, res.Metrics["experiments.cache_misses"].Value
		if hits != paperCacheHits || misses != paperCacheMisses {
			t.Errorf("paper-sweep seed %d: %v hits %v misses, want %d/%d", seed, hits, misses, paperCacheHits, paperCacheMisses)
		}
		digests = append(digests, r.warmup.digest)
	}
	if digests[0] != digests[1] {
		t.Errorf("paper-sweep rows depend on the seed: %v", digests)
	}
}

// TestRationaleCoversMetrics checks rationale.json records every workload,
// every end-to-end metric, and every per-layer metric exactly once.
func TestRationaleCoversMetrics(t *testing.T) {
	var rf struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Definition string } `json:"end_to_end"`
		PerLayer  []struct {
			Metrics    []string
			ShouldMove []struct{ Metric, Workload string } `json:"should_move"`
		} `json:"per_layer"`
	}
	loadJSON(t, "rationale.json", &rf)
	var got, want []string
	for _, w := range rf.Workloads {
		got = append(got, "workload "+w.Name)
	}
	for _, w := range workloads() {
		want = append(want, "workload "+w.name)
	}
	for _, m := range rf.EndToEnd {
		got = append(got, m.Name)
	}
	for _, m := range endToEnd {
		want = append(want, m.name)
	}
	e2e := map[string]bool{}
	for _, m := range endToEnd {
		e2e[m.name] = true
	}
	for _, g := range rf.PerLayer {
		got = append(got, g.Metrics...)
		for _, mv := range g.ShouldMove {
			if !e2e[mv.Metric] {
				t.Errorf("rationale: %s is not an end-to-end metric", mv.Metric)
			}
		}
	}
	for _, m := range perLayer {
		want = append(want, m.name)
	}
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("rationale.json covers\n%v\nwant\n%v", got, want)
	}
}

func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	tr := &tracer{spans: []span{
		{name: "op", op: 1, id: 1, start: 0, end: 10 * ms},
		{name: "a", op: 1, id: 2, parent: 1, start: 1 * ms, end: 5 * ms},
		{name: "b", op: 1, id: 3, parent: 2, start: 2 * ms, end: 3 * ms},
		{name: "op", op: 2, id: 1, start: 20 * ms, end: 22 * ms},
	}}
	want := map[string][2]time.Duration{"op": {12 * ms, 8 * ms}, "a": {4 * ms, 3 * ms}, "b": {ms, ms}}
	for _, st := range tr.selfTimes() {
		if w := want[st.name]; st.total != w[0] || st.self != w[1] {
			t.Errorf("%s: total %v self %v, want %v", st.name, st.total, st.self, w)
		}
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if p, v := tail(xs); p != 95 || v != 190 {
		t.Errorf("tail of 1..200 = p%v %v, want p95 190", p, v)
	}
	if p, v := tail(xs[:12]); p != 100 || v != 12 {
		t.Errorf("tail of 1..12 = p%v %v, want p100 12", p, v)
	}
}
