package main

import (
	"fmt"
	"math/rand"
	"os"

	"gathernoc/internal/cnn"
	"gathernoc/internal/core"
	"gathernoc/internal/experiments"
	"gathernoc/internal/noc"
	"gathernoc/internal/power"
	"gathernoc/internal/systolic"
	"gathernoc/internal/traffic"
	"gathernoc/internal/workload"
)

// paperParams sizes the paper-sweep workload.
type paperParams struct {
	// rounds is experiments.Options.Rounds: simulated rounds per layer.
	rounds int
	// probeReps is how many times the checkpoint probe writes and resumes
	// the last layer run's fabric.
	probeReps int
	// digest pins the artifacts' rows at the default seed ("" =
	// unpinned); the rows do not depend on the seed.
	digest string
}

var paperSweep = paperParams{rounds: 4, probeReps: 5, digest: "27cfd4545085a8c1"}

// The constants core.RunLayer and experiments' pipeline arms use; the
// replay below must match them for its rows to equal the artifacts'.
const (
	paperTMAC      = 5
	paperMaxCycles = 50_000_000
	pipelineModel  = "alexnet"
	pipelineMax    = 10_000_000
)

// Expected cache totals of one sweep over a fresh cache: 18 distinct
// (mesh, layer) cells, 41 lookups — Figs. 9 and 10 and Table II replay
// cells of Figs. 7 and 8 whatever the order.
const (
	paperCacheMisses = 18
	paperCacheHits   = 23
)

// paperRows are the artifacts' outputs.
type paperRows struct {
	Table2                  []experiments.Table2Row
	Fig7, Fig8, Fig9, Fig10 []experiments.ImprovementRow
	Pipeline                []experiments.PipelineRow
}

var paperArtifacts = []string{"Table2", "Fig7", "Fig8", "Fig9", "Fig10", "PipelineComparison"}

func (r *paperRows) run(name string, opts experiments.Options) error {
	var err error
	switch name {
	case "Table2":
		r.Table2, err = experiments.Table2(opts)
	case "Fig7":
		r.Fig7, err = experiments.Fig7(opts)
	case "Fig8":
		r.Fig8, err = experiments.Fig8(opts)
	case "Fig9":
		r.Fig9, err = experiments.Fig9(opts)
	case "Fig10":
		r.Fig10, err = experiments.Fig10(opts)
	case "PipelineComparison":
		r.Pipeline, err = experiments.PipelineComparison(opts)
	}
	return err
}

func paperWorkload(name string, p paperParams) workloadSpec {
	return workloadSpec{
		name:    name,
		configs: []noc.Config{noc.DefaultConfig(8, 8), noc.DefaultConfig(16, 16), noc.DefaultTorusConfig(8, 8)},
		run:     func(o *opRun) { paperOp(o, p) },
	}
}

// paperOp is one paper-sweep operation: the paper's artifacts through
// experiments (the `experiments -exp all -cachedir` path) on a fresh
// on-disk cache, then a replay of every cell the sweep simulated through
// the layers' own public calls — the replay is where the per-run times
// and counters come from, and its results must equal the artifacts' rows.
func paperOp(o *opRun, p paperParams) {
	dir, err := os.MkdirTemp(o.dir, "sweepcache-*")
	if !o.check(err == nil, "paper-sweep: cache dir: %v", err) {
		return
	}
	defer os.RemoveAll(dir)
	cache, err := experiments.NewCache(dir)
	if !o.check(err == nil, "paper-sweep: cache: %v", err) {
		return
	}
	opts := experiments.Options{Rounds: p.rounds, Workers: 1, Cache: cache}

	// The seed only permutes the artifact order.
	var rows paperRows
	sweepOK := true
	for _, i := range rand.New(rand.NewSource(o.seed)).Perm(len(paperArtifacts)) {
		name := paperArtifacts[i]
		before := cache.Stats()
		m := o.begin("experiments." + name)
		err := rows.run(name, opts)
		d := o.end(m)
		sweepOK = o.check(err == nil, "experiments.%s: %v", name, err) && sweepOK
		after := cache.Stats()
		o.add("experiments.sweep_s", d.Seconds())
		if after.Misses == before.Misses && after.Hits > before.Hits {
			o.add("experiments.cache_replay_s", d.Seconds())
		}
		if name == "PipelineComparison" {
			o.add("workload.pipeline_s", d.Seconds())
		}
	}
	cs := cache.Stats()
	o.check(cs.Misses == paperCacheMisses && cs.Hits == paperCacheHits && cs.Stale == 0,
		"paper-sweep cache totals %d misses %d hits %d stale, want %d/%d/0", cs.Misses, cs.Hits, cs.Stale, paperCacheMisses, paperCacheHits)
	o.add("experiments.cache_hits", float64(cs.Hits))
	o.add("experiments.cache_misses", float64(cs.Misses))
	o.add("experiments.cache_bytes_read", float64(cs.BytesRead))
	o.add("experiments.cache_bytes_written", float64(cs.BytesWritten))
	if !sweepOK {
		return
	}

	last := replayCells(o, p, &rows)
	if last != nil {
		probeCheckpoint(o, last, p.probeReps)
		last.Close()
	}
	replayPipeline(o, p, rows.Pipeline)
	checkDigest(o, p.digest, rows)
}

// cellKey names one (model, layer, mesh) comparison cell.
type cellKey struct {
	model, layer string
	mesh         int
}

// replayCells reruns every distinct cell of Table II and Figs. 7–10 as
// core.CompareLayer does, checks each against the artifacts' rows, and
// returns the last layer run's fabric (for the checkpoint probe).
func replayCells(o *opRun, p paperParams, rows *paperRows) *noc.Network {
	type expect struct {
		lat, pow, est []float64
	}
	want := map[cellKey]*expect{}
	at := func(k cellKey) *expect {
		if want[k] == nil {
			want[k] = &expect{}
		}
		return want[k]
	}
	for _, r := range rows.Table2 {
		e := at(cellKey{"AlexNet", r.Layer, 8})
		e.lat = append(e.lat, r.Simulated)
		e.est = append(e.est, r.Estimated)
	}
	for _, f := range [][]experiments.ImprovementRow{rows.Fig7, rows.Fig8} {
		for _, r := range f {
			e := at(cellKey{r.Model, r.Layer, r.Mesh})
			e.lat = append(e.lat, r.Improvement)
		}
	}
	for _, f := range [][]experiments.ImprovementRow{rows.Fig9, rows.Fig10} {
		for _, r := range f {
			e := at(cellKey{r.Model, r.Layer, r.Mesh})
			e.pow = append(e.pow, r.Improvement)
		}
	}

	var last *noc.Network
	cells := 0
	for _, layers := range [][]cnn.LayerConfig{cnn.AlexNetConvLayers(), cnn.VGG16SelectedConvLayers()} {
		for _, mesh := range []int{8, 16} {
			for _, layer := range layers {
				k := cellKey{layer.Model, layer.Name, mesh}
				e := want[k]
				if !o.check(e != nil, "no artifact row for cell %v", k) {
					continue
				}
				delete(want, k)
				cells++
				m := o.begin("core.CompareLayer")
				cfg := noc.DefaultConfig(mesh, mesh)
				ru, ruNW, ruErr := replayLayer(o, cfg, layer, systolic.RepetitiveUnicast, p.rounds)
				if ruNW != nil {
					ruNW.Close()
				}
				g, gNW, gErr := replayLayer(o, cfg, layer, systolic.GatherMode, p.rounds)
				if gNW != nil {
					if last != nil {
						last.Close()
					}
					last = gNW
				}
				var lat, pow, est float64
				if ruErr == nil && gErr == nil {
					if g.res.TotalCycles > 0 {
						lat = float64(ru.res.TotalCycles-g.res.TotalCycles) / float64(g.res.TotalCycles) * 100
					}
					pow = power.ImprovementPercent(ru.energy.NoCPJ, g.energy.NoCPJ)
					est = core.EstimateParams(cfg, layer, paperTMAC).Improvement()
				}
				d := o.end(m)
				o.add("core.compare_s", d.Seconds())
				same := allEqual(e.lat, lat) && allEqual(e.pow, pow) && allEqual(e.est, est)
				o.check(ruErr == nil && same, "%v RU run: %v (rows equal: %v)", k, ruErr, same)
				o.check(gErr == nil && same, "%v gather run: %v (rows equal: %v)", k, gErr, same)
			}
		}
	}
	o.check(len(want) == 0, "artifact rows for cells outside the sweep: %d", len(want))
	o.add("core.cells", float64(cells))
	return last
}

func allEqual(xs []float64, v float64) bool {
	for _, x := range xs {
		if x != v {
			return false
		}
	}
	return true
}

// layerRun is one replayed RU or gather layer run.
type layerRun struct {
	res    *systolic.Result
	energy power.Report
}

// replayLayer runs one layer in one collection mode through the calls
// core.RunLayer makes — noc.New, systolic.NewController, Controller.Run,
// power.Compute — timing each. The fabric, when built, is returned open.
func replayLayer(o *opRun, cfg noc.Config, layer cnn.LayerConfig, mode systolic.Mode, rounds int) (layerRun, *noc.Network, error) {
	m := o.begin("core.RunLayer")
	defer func() { o.st.runMS = append(o.st.runMS, float64(o.end(m).Nanoseconds())/1e6) }()
	nw, err := newFabric(o, cfg)
	if err != nil {
		return layerRun{}, nil, err
	}
	mc := o.begin("systolic.NewController")
	ctl, err := systolic.NewController(nw, systolic.Config{Layer: layer, Mode: mode, TMAC: paperTMAC, MaxRounds: rounds})
	o.st.setup += o.end(mc)
	if err != nil {
		return layerRun{}, nw, err
	}
	mr := o.begin("systolic.Controller.Run")
	res, err := ctl.Run(paperMaxCycles)
	d := o.end(mr)
	o.stepped(d, nw.Engine().Cycle())
	o.add("systolic.run_s", d.Seconds())
	if err != nil {
		return layerRun{}, nw, err
	}
	o.fabricDone(nw)
	o.add("systolic.rounds", float64(res.RoundsSimulated))
	o.add("systolic.piggyback_acks", float64(res.PiggybackAcks))
	o.add("systolic.self_initiated", float64(res.SelfInitiatedGathers))
	if res.PayloadErrors != 0 {
		return layerRun{}, nw, fmt.Errorf("%d payload integrity errors", res.PayloadErrors)
	}
	mp := o.begin("power.Compute")
	a := res.Activity
	energy := power.Compute(power.Events{
		BufferWrites:   a.BufferWrites,
		BufferReads:    a.BufferReads,
		RCComputations: a.RCComputations,
		VAAllocations:  a.VAAllocations,
		SAGrants:       a.SAGrants,
		Crossings:      a.Crossings,
		LinkFlits:      a.LinkFlits,
		GatherUploads:  a.GatherUploads,
		ReduceMerges:   a.ReduceMerges,
		StreamHops:     res.StreamHops,
		MACs:           res.MACs,
	}, power.DefaultCoefficients(), res.MeasuredCycles, 1.0)
	o.end(mp)
	return layerRun{res: res, energy: energy}, nw, nil
}

// replayPipeline reruns the pipeline comparison's six rows through the
// traffic and workload layers as experiments does and checks each
// against the artifact's row and its oracle.
func replayPipeline(o *opRun, p paperParams, want []experiments.PipelineRow) {
	layers, err := workload.ModelLayers(pipelineModel)
	if !o.check(err == nil && len(want) == 6, "pipeline: %d rows, layers: %v", len(want), err) {
		return
	}
	for _, w := range want {
		m := o.begin("pipeline." + w.Mode)
		got := experiments.PipelineRow{Model: w.Model, Topology: w.Topology, Mode: w.Mode, Layers: len(layers)}
		cfg := noc.DefaultConfig(8, 8)
		if w.Topology == "torus" {
			cfg = noc.DefaultTorusConfig(8, 8)
		}
		if w.Mode == "analytic" {
			err = replayAnalytic(o, cfg, layers, p.rounds, &got)
		} else {
			err = replayScheduled(o, cfg, layers, p.rounds, w.Mode == "overlap", &got)
		}
		o.end(m)
		o.check(err == nil && got == w && w.OracleErrors == 0,
			"pipeline %s/%s: %v (replay %+v, artifact %+v)", w.Topology, w.Mode, err, got, w)
	}
}

// replayAnalytic sums independent per-layer accumulation runs, one fresh
// fabric each.
func replayAnalytic(o *opRun, cfg noc.Config, layers []cnn.LayerConfig, rounds int, row *experiments.PipelineRow) error {
	for _, layer := range layers {
		nw, err := newFabric(o, cfg)
		if err != nil {
			return err
		}
		m := o.begin("traffic.NewAccumulationController")
		ctl, err := traffic.NewAccumulationController(nw, traffic.AccumulationConfig{
			Scheme:         traffic.CollectGather,
			Rounds:         rounds,
			TotalRounds:    layer.AccumulationRounds(cfg.Rows),
			ComputeLatency: layer.PartialMACsPerPE(cfg.Cols) + paperTMAC,
		})
		o.st.setup += o.end(m)
		if err != nil {
			nw.Close()
			return err
		}
		m = o.begin("traffic.AccumulationController.Run")
		res, err := ctl.Run(pipelineMax)
		o.stepped(o.end(m), nw.Engine().Cycle())
		o.fabricDone(nw)
		nw.Close()
		if err != nil {
			return err
		}
		row.Cycles += res.Cycles
		row.ExtrapolatedCycles += res.TotalCycles
		row.OracleErrors += res.OracleErrors
	}
	return nil
}

// replayScheduled composes the whole model on one fabric through the
// workload scheduler.
func replayScheduled(o *opRun, cfg noc.Config, layers []cnn.LayerConfig, rounds int, overlap bool, row *experiments.PipelineRow) error {
	nw, err := newFabric(o, cfg)
	if err != nil {
		return err
	}
	defer nw.Close()
	m := o.begin("workload.NewPipelineJob")
	job, drivers, err := workload.NewPipelineJob(nw, row.Model, workload.PipelineConfig{
		Layers: layers, Scheme: traffic.CollectGather, Rounds: rounds, TMAC: paperTMAC, Overlap: overlap,
	})
	o.st.setup += o.end(m)
	if err != nil {
		return err
	}
	m = o.begin("workload.New")
	s, err := workload.New(nw, []workload.Job{job})
	o.st.setup += o.end(m)
	if err != nil {
		return err
	}
	m = o.begin("workload.Scheduler.Run")
	res, err := s.Run(pipelineMax)
	o.stepped(o.end(m), nw.Engine().Cycle())
	o.fabricDone(nw)
	if err != nil {
		return err
	}
	row.Cycles = res.Jobs[0].Time()
	for _, d := range drivers {
		snap := d.Snapshot()
		row.ExtrapolatedCycles += snap.TotalCycles
		row.OracleErrors += snap.OracleErrors
	}
	return nil
}
