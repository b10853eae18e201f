// Command perfbench is the repository's benchmark. It runs one
// named workload as a closed loop with one client — every operation starts
// when the previous one finishes — for a fixed wall time, checks every
// simulated output, and prints either the end-to-end metrics (-trace 0) or
// the per-layer metrics of a traced run (-trace 1), each with its unit.
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload paper-sweep --seed 1 --seconds 20 --trace 0
//
// Workloads, their rationale and the per-layer predictions are listed in
// perfbench/rationale.json; README.md in this directory explains the
// metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"gathernoc/internal/noc"
)

// defaultSeed is the seed the pinned result digests were taken at.
const defaultSeed = 1

// workloadSpec is one named input set of the benchmark.
type workloadSpec struct {
	name string
	// configs lists the fabric configurations the workload builds; their
	// canonical hashes go into the provenance record.
	configs []noc.Config
	// run executes one operation.
	run func(o *opRun)
}

func workloads() []workloadSpec {
	return []workloadSpec{
		paperWorkload("paper-sweep", paperSweep),
		trafficWorkload("uniform-saturated", uniformSaturated),
		trafficWorkload("mesh32-checkpoint", mesh32Checkpoint),
	}
}

// opStats is what one operation measured.
type opStats struct {
	wall, setup, step time.Duration
	cycles            int64
	linkFlits         uint64
	// runMS samples host time per simulated run unit; ckptMS per
	// checkpoint write; resumeS per checkpoint decode+restore.
	runMS, ckptMS, resumeS []float64
	attempted, failed      int
	// digest hashes the operation's simulated results.
	digest string
	// layer holds per-layer quantities (traced operations only).
	layer map[string]float64
}

// metric names a reported quantity and its unit.
type metric struct{ name, unit string }

// endToEnd and perLayer are the metrics BENCHMARK.json declares, in
// print order.
var endToEnd = []metric{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"sim_cycles_per_s", "1/s"},
	{"flit_hops_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"layer_run_ms_p50", "ms"},
	{"layer_run_ms_tail", "ms"},
	{"checkpoint_ms_p50", "ms"},
	{"resume_s", "s"},
}

var perLayer = []metric{
	{"sim.cycles", "cycles"},
	{"sim.evaluated", "count"},
	{"sim.skipped", "count"},
	{"sim.awake_ratio", "ratio"},
	{"sim.ns_per_cycle", "ns/cycle"},
	{"sim.ns_per_eval", "ns"},
	{"sim.shards", "count"},
	{"router.buffer_writes", "count"},
	{"router.rc", "count"},
	{"router.va", "count"},
	{"router.sa_grants", "count"},
	{"router.crossings", "count"},
	{"router.gather_uploads", "count"},
	{"router.ns_per_flit", "ns"},
	{"link.flits", "count"},
	{"nic.packets", "count"},
	{"nic.flits", "count"},
	{"noc.new_s", "s"},
	{"noc.new_calls", "count"},
	{"noc.snapshot_s", "s"},
	{"noc.encode_s", "s"},
	{"noc.decode_s", "s"},
	{"noc.restore_s", "s"},
	{"noc.snapshot_bytes", "B"},
	{"noc.checkpoints", "count"},
	{"experiments.sweep_s", "s"},
	{"experiments.cache_hits", "count"},
	{"experiments.cache_misses", "count"},
	{"experiments.cache_hit_ratio", "ratio"},
	{"experiments.cache_bytes_read", "B"},
	{"experiments.cache_bytes_written", "B"},
	{"experiments.cache_replay_s", "s"},
	{"core.cells", "count"},
	{"core.compare_s", "s"},
	{"systolic.run_s", "s"},
	{"systolic.rounds", "count"},
	{"systolic.piggyback_acks", "count"},
	{"systolic.self_initiated", "count"},
	{"systolic.pickup_ratio", "ratio"},
	{"workload.pipeline_s", "s"},
	{"traffic.run_s", "s"},
	{"traffic.injected", "count"},
	{"traffic.received", "count"},
	{"traffic.latency_p50_cycles", "cycles"},
	{"traffic.latency_p99_cycles", "cycles"},
	{"runtime.alloc_bytes_per_cycle", "B/cycle"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_s", "s"},
	{"trace.overhead_s", "s"},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (paper-sweep, uniform-saturated, mesh32-checkpoint)")
	seed := fs.Int64("seed", defaultSeed, "input seed; the pinned digests hold at the default")
	seconds := fs.Float64("seconds", 10, "wall time to keep starting operations")
	trace := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	root := fs.String("root", ".", "repository root; scratch files and the trace go under <root>/.bench_build/perfbench")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workloadSpec
	for _, c := range workloads() {
		if c.name == *name {
			w = &c
		}
	}
	if w == nil || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (paper-sweep|uniform-saturated|mesh32-checkpoint), -seconds > 0 and -trace 0|1\n")
		return 2
	}
	dir := filepath.Join(*root, ".bench_build", "perfbench")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	// At most two threads run Go code: the closed loop and, on the
	// sharded workload, the second shard worker.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	prov := collectProvenance(*root, w.configs)
	r := bench(*w, *seed, *seconds, *trace == 1, dir)
	if r.tr != nil {
		path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.json", w.name, *seed))
		if err := writeTrace(path, r.tr, w.name, prov); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "# trace %s\n", path)
	}
	if err := report(stdout, *w, *seed, prov, r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// runResult is a whole run: its operations, split by tracing.
type runResult struct {
	warmup           opStats
	untraced, traced []opStats
	tr               *tracer
	traceMode        bool
}

// bench runs one warm-up operation, whose checks count but whose times
// do not, then operations back to back until the wall time is spent. A
// traced run alternates untraced and traced operations, so the tracing
// overhead is measured inside the same process.
func bench(w workloadSpec, seed int64, seconds float64, trace bool, dir string) runResult {
	r := runResult{traceMode: trace}
	if trace {
		r.tr = newTracer()
	}
	r.warmup = runOp(w, nil, seed, 0, dir)
	start := time.Now()
	for i := 1; ; i++ {
		if len(r.untraced) > 0 && (!trace || len(r.traced) > 0) && time.Since(start).Seconds() >= seconds {
			return r
		}
		if trace && i%2 == 0 {
			r.traced = append(r.traced, runOp(w, r.tr, seed, i, dir))
		} else {
			r.untraced = append(r.untraced, runOp(w, nil, seed, i, dir))
		}
	}
}

// runOp runs the operation with the given index, traced when tr is set.
func runOp(w workloadSpec, tr *tracer, seed int64, index int, dir string) opStats {
	o := &opRun{tr: tr, seed: seed, index: index, dir: dir}
	var before runtime.MemStats
	if o.traced() {
		o.st.layer = map[string]float64{}
		runtime.ReadMemStats(&before)
	}
	m := o.begin(w.name)
	w.run(o)
	o.st.wall = o.end(m)
	if o.traced() {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		o.deriveLayer(before, after)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s op %d (traced %v): %.4f s, %d checks, %d failed\n",
		w.name, index, o.traced(), o.st.wall.Seconds(), o.st.attempted, o.st.failed)
	return o.st
}

// deriveLayer turns a traced operation's sums into the per-layer ratios.
func (o *opRun) deriveLayer(before, after runtime.MemStats) {
	l := o.st.layer
	stepNS := float64(o.st.step.Nanoseconds())
	l["sim.cycles"] = float64(o.st.cycles)
	l["sim.awake_ratio"] = ratio(l["sim.evaluated"], l["sim.evaluated"]+l["sim.skipped"])
	l["sim.ns_per_cycle"] = ratio(stepNS, float64(o.st.cycles))
	l["sim.ns_per_eval"] = ratio(stepNS, l["sim.evaluated"])
	l["router.ns_per_flit"] = ratio(stepNS, l["router.buffer_writes"])
	l["experiments.cache_hit_ratio"] = ratio(l["experiments.cache_hits"], l["experiments.cache_hits"]+l["experiments.cache_misses"])
	l["systolic.pickup_ratio"] = ratio(l["systolic.piggyback_acks"], l["systolic.piggyback_acks"]+l["systolic.self_initiated"])
	l["runtime.alloc_bytes_per_cycle"] = ratio(float64(after.TotalAlloc-before.TotalAlloc), float64(o.st.cycles))
	l["runtime.gc_cycles"] = float64(after.NumGC - before.NumGC)
	l["runtime.gc_pause_s"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e9
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// report prints the human-readable lines and, last, the JSON result.
func report(w io.Writer, wl workloadSpec, seed int64, prov provenance, r runResult) error {
	provJSON, _ := json.Marshal(prov) // plain strings and ints: cannot fail
	fmt.Fprintf(w, "# provenance %s\n", provJSON)
	all := append(append([]opStats{r.warmup}, r.untraced...), r.traced...)
	attempted, failed := 0, 0
	for _, s := range all {
		attempted += s.attempted
		failed += s.failed
	}
	fmt.Fprintf(w, "# workload %s seed %d: %d operations after 1 warm-up (closed loop, 1 client; %d traced)\n",
		wl.name, seed, len(all)-1, len(r.traced))
	fmt.Fprintf(w, "# result digest %s\n", r.warmup.digest)

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if r.traceMode {
		vals := layerMetrics(r)
		for _, m := range perLayer {
			metrics[m.name] = value{vals[m.name], m.unit}
			fmt.Fprintf(w, "%-34s %16.6g %s\n", m.name, vals[m.name], m.unit)
		}
		for _, st := range r.tr.selfTimes() {
			fmt.Fprintf(w, "# self %-36s total %10.6f s  self %10.6f s  calls %d  (per traced op)\n",
				st.name, st.total.Seconds()/float64(len(r.traced)), st.self.Seconds()/float64(len(r.traced)),
				st.calls/len(r.traced))
		}
	} else {
		vals, notes := endToEndMetrics(r.untraced)
		for _, m := range endToEnd {
			metrics[m.name] = value{vals[m.name], m.unit}
			fmt.Fprintf(w, "%-20s %16.6g %-4s %s\n", m.name, vals[m.name], m.unit, notes[m.name])
		}
	}
	fmt.Fprintf(w, "# attempted %d failed %d\n", attempted, failed)
	out, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{failed == 0, attempted, failed, metrics})
	if err != nil {
		return fmt.Errorf("result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}

// endToEndMetrics reduces the untraced operations to the end-to-end
// metrics (medians over operations, pooled samples for the per-unit
// timings) plus a note on sample counts for the printed lines.
func endToEndMetrics(ops []opStats) (map[string]float64, map[string]string) {
	var wall, setup, cps, fps, runMS, ckptMS, resumeS []float64
	for _, s := range ops {
		wall = append(wall, s.wall.Seconds())
		setup = append(setup, s.setup.Seconds())
		cps = append(cps, ratio(float64(s.cycles), s.step.Seconds()))
		fps = append(fps, ratio(float64(s.linkFlits), s.step.Seconds()))
		runMS = append(runMS, s.runMS...)
		ckptMS = append(ckptMS, s.ckptMS...)
		resumeS = append(resumeS, s.resumeS...)
	}
	p, tailV := tail(runMS)
	vals := map[string]float64{
		"wall_s":            median(wall),
		"setup_s":           median(setup),
		"sim_cycles_per_s":  median(cps),
		"flit_hops_per_s":   median(fps),
		"peak_rss_mb":       peakRSSMB(),
		"layer_run_ms_p50":  median(runMS),
		"layer_run_ms_tail": tailV,
		"checkpoint_ms_p50": median(ckptMS),
		"resume_s":          median(resumeS),
	}
	n := fmt.Sprintf("(median of %d operations)", len(ops))
	notes := map[string]string{
		"wall_s": n, "setup_s": n, "sim_cycles_per_s": n, "flit_hops_per_s": n,
		"peak_rss_mb":       "(process high-water mark)",
		"layer_run_ms_p50":  fmt.Sprintf("(p50 of %d run units)", len(runMS)),
		"layer_run_ms_tail": fmt.Sprintf("(p%g of %d run units)", p, len(runMS)),
		"checkpoint_ms_p50": fmt.Sprintf("(p50 of %d checkpoint writes)", len(ckptMS)),
		"resume_s":          fmt.Sprintf("(median of %d decode+restore)", len(resumeS)),
	}
	return vals, notes
}

// layerMetrics reduces the traced operations to per-layer medians and
// reports the tracing overhead against the run's untraced operations.
func layerMetrics(r runResult) map[string]float64 {
	vals := map[string]float64{}
	for _, m := range perLayer {
		var xs []float64
		for _, s := range r.traced {
			xs = append(xs, s.layer[m.name])
		}
		vals[m.name] = median(xs)
	}
	var tw, uw []float64
	for _, s := range r.traced {
		tw = append(tw, s.wall.Seconds())
	}
	for _, s := range r.untraced {
		uw = append(uw, s.wall.Seconds())
	}
	vals["trace.overhead_s"] = median(tw) - median(uw)
	return vals
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank percentile of xs.
func percentile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(i, 0)]
}

// tail returns the highest of the usual percentiles that still has at
// least ten samples beyond it, or the maximum (p100) when there are too
// few samples for any.
func tail(xs []float64) (float64, float64) {
	if len(xs) == 0 {
		return 100, 0
	}
	for _, p := range []float64{99.9, 99, 95, 90, 75, 50} {
		if float64(len(xs))*(1-p/100) >= 10 {
			return p, percentile(xs, p)
		}
	}
	return 100, percentile(xs, 100)
}

// peakRSSMB reads the process's resident high-water mark (Linux); it
// falls back to the Go runtime's total obtained memory elsewhere.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				var kb float64
				if _, err := fmt.Sscan(f[1], &kb); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

func writeTrace(path string, tr *tracer, process string, prov provenance) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := tr.writeChrome(f, process, prov); err != nil {
		f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
