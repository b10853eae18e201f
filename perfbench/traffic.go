package main

import (
	"gathernoc/internal/noc"
	"gathernoc/internal/traffic"
)

// trafficParams sizes a synthetic-traffic workload: uniform-random
// 2-flit packets on a mesh without edge sinks.
type trafficParams struct {
	rows, shards    int
	rate            float64
	warmup, measure int64
	// slice is the stepping unit in cycles: one layer_run_ms sample.
	slice int64
	// checkpointEvery (a multiple of slice; 0 = none) writes a checkpoint
	// at every such cycle of the injection window; the last one, at the
	// window's end, is resumed onto a fresh fabric, which finishes the
	// drain. Without checkpoints the drained fabric is probed probeReps
	// times instead.
	checkpointEvery int64
	probeReps       int
	// digest pins the default seed's results ("" = unpinned).
	digest string
}

var (
	// Just past the 8x8 knee: p50 latency is 35 cycles at 0.15 and ~80
	// at 0.20, and the source queues keep growing through the window.
	uniformSaturated = trafficParams{rows: 8, rate: 0.20, warmup: 1000, measure: 6000,
		slice: 1000, probeReps: 1, digest: "f65cc5ccfb9d4b7b"}
	// ROADMAP's 32x32 scaling point on the two-shard engine.
	mesh32Checkpoint = trafficParams{rows: 32, shards: 2, rate: 0.02, warmup: 500, measure: 2000,
		slice: 250, checkpointEvery: 500, digest: "9704fa7cf1c8f7d2"}
)

const packetFlits = 2

func (p trafficParams) config() noc.Config {
	cfg := noc.DefaultConfig(p.rows, p.rows)
	cfg.EastSinks = false
	cfg.Shards = p.shards
	return cfg
}

func trafficWorkload(name string, p trafficParams) workloadSpec {
	return workloadSpec{
		name:    name,
		configs: []noc.Config{p.config()},
		run:     func(o *opRun) { trafficOp(o, p) },
	}
}

// trafficResult is what the digest pins: the generator's summary and the
// fabric's activity counters.
type trafficResult struct {
	Injected, Received      uint64
	Cycles                  int64
	Throughput              float64
	LatencyP50, LatencyP99  float64
	LatencyMean, LatencyMax float64
	QueueMean, NetworkMean  float64
	HopsMean                float64
	Activity                noc.Activity
}

// buildTraffic constructs a fabric and its generator, both counted as
// set-up, with the generator registered on the engine as nocsim does.
func buildTraffic(o *opRun, cfg noc.Config, gcfg traffic.GeneratorConfig) (*noc.Network, *traffic.Generator, error) {
	nw, err := newFabric(o, cfg)
	if err != nil {
		return nil, nil, err
	}
	p, err := traffic.PatternByName("uniform", nw.Mesh())
	if err != nil {
		nw.Close()
		return nil, nil, err
	}
	gcfg.Pattern = p
	m := o.begin("traffic.NewGenerator")
	gen, err := traffic.NewGenerator(nw, gcfg)
	o.st.setup += o.end(m)
	if err != nil {
		nw.Close()
		return nil, nil, err
	}
	nw.Engine().AddTicker(gen)
	return nw, gen, nil
}

// trafficOp is one synthetic-traffic operation: warm-up, measurement and
// drain, stepped in slices, with checkpoints and a resume when the
// workload asks for them.
func trafficOp(o *opRun, p trafficParams) {
	// Each operation draws its own traffic from the run's seed: past the
	// knee the host cost of a cycle depends on the realization (~10%
	// between seeds), so a run's medians cover several realizations.
	// The warm-up operation uses the run's seed itself, and its results
	// are the pinned ones.
	cfg := p.config()
	gcfg := traffic.GeneratorConfig{InjectionRate: p.rate, PacketFlits: packetFlits,
		Warmup: p.warmup, Measure: p.measure, Seed: o.seed + int64(o.index)*1_000_003}
	nw, gen, err := buildTraffic(o, cfg, gcfg)
	if !o.check(err == nil, "build: %v", err) {
		return
	}
	defer func() { nw.Close() }()
	done := func() bool { return gen.Injected() && nw.Quiescent() }
	resumed := false
	for !done() {
		eng := nw.Engine()
		start := eng.Cycle()
		m := o.begin("sim.Engine.Step")
		for i := int64(0); i < p.slice && !done(); i++ {
			eng.Step()
		}
		d := o.end(m)
		o.stepped(d, eng.Cycle()-start)
		if eng.Cycle()-start == p.slice {
			// The drain's short last slice is not a sample.
			o.st.runMS = append(o.st.runMS, float64(d.Nanoseconds())/1e6)
		}
		if p.checkpointEvery == 0 || resumed || eng.Cycle()%p.checkpointEvery != 0 {
			continue
		}
		data, err := checkpoint(o, nw)
		state := gen.CaptureState()
		if !o.check(err == nil, "checkpoint at cycle %d: %v", eng.Cycle(), err) || eng.Cycle() < p.warmup+p.measure {
			continue
		}
		// The injection window has elapsed: resume the last checkpoint
		// and drain the packets still in flight on the restored fabric.
		nw2, gen2, err := buildTraffic(o, cfg, gcfg)
		if err == nil {
			err = resume(o, nw2, data)
			if err == nil {
				err = gen2.RestoreState(state)
			}
			if err != nil {
				nw2.Close()
			}
		}
		if !o.check(err == nil, "resume at cycle %d: %v", eng.Cycle(), err) {
			return
		}
		o.engineDone(nw)
		nw.Close()
		nw, gen, resumed = nw2, gen2, true
	}
	o.add("traffic.run_s", o.st.step.Seconds())
	o.fabricDone(nw)

	res := gen.Result(nw.Engine().Cycle())
	inv := nw.CheckInvariants()
	o.check(res.Received == res.Injected && gen.Sent() == gen.Delivered() && inv == nil &&
		resumed == (p.checkpointEvery > 0),
		"traffic run: received %d of %d measured, delivered %d of %d sent, resumed %v, invariants: %v",
		res.Received, res.Injected, gen.Delivered(), gen.Sent(), resumed, inv)
	o.add("traffic.injected", float64(res.Injected))
	o.add("traffic.received", float64(res.Received))
	o.add("traffic.latency_p50_cycles", res.Latency.Percentile(50))
	o.add("traffic.latency_p99_cycles", res.Latency.Percentile(99))
	if p.checkpointEvery == 0 {
		probeCheckpoint(o, nw, p.probeReps)
	}
	pinned := ""
	if o.index == 0 {
		pinned = p.digest
	}
	checkDigest(o, pinned, trafficResult{
		Injected: res.Injected, Received: res.Received, Cycles: res.Cycles, Throughput: res.Throughput,
		LatencyP50: res.Latency.Percentile(50), LatencyP99: res.Latency.Percentile(99),
		LatencyMean: res.Latency.Mean(), LatencyMax: res.Latency.Max(),
		QueueMean: res.QueueLatency.Mean(), NetworkMean: res.NetworkLatency.Mean(),
		HopsMean: res.Hops.Mean(), Activity: nw.Activity(),
	})
}
