package main

import (
	"fmt"
	"math"
	"reflect"
	"time"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/datasynth"
	"repro/internal/embedding"
	"repro/internal/experiments"
	"repro/internal/gpusim"
)

// tuneInput is one Table-I model's tuning and evaluation batches: the
// experiments.Suite datasets the paper's figures use. They do not depend on
// the workload seed. Re-drawn datasets put model B at scale 50 anywhere from
// 0.94x to 1.10x of TorchRec (12 seeds), and the check that RecFlex is no
// slower than TorchRec on every model must not depend on the seed.
type tuneInput struct {
	cfg        *datasynth.ModelConfig
	tune, eval []*embedding.Batch
}

// tuned is one model's cold tune and evaluation.
type tuned struct {
	rf                *core.RecFlex
	wall              time.Duration // wall time of the Tune call
	choice            []int
	occupancy         int
	latency           float64 // tuner.Result.Latency, simulated seconds
	recflex, torchrec float64 // summed evaluation latency, simulated seconds
}

func (e *env) tuneInputs() ([]tuneInput, error) {
	suite := experiments.NewSuite(experiments.Config{
		Scale:       e.cfg.tuneScale,
		TuneBatches: 2,
		EvalBatches: e.cfg.evalBatches,
		BatchCap:    512,
	})
	var out []tuneInput
	for _, m := range datasynth.StandardModels() {
		cfg := suite.ScaledModel(m)
		ds, err := suite.Dataset(cfg)
		if err != nil {
			return nil, err
		}
		tune, eval := suite.Split(ds)
		out = append(out, tuneInput{cfg: cfg, tune: tune, eval: eval})
	}
	return out, nil
}

// tunePass tunes every model cold on V100 with default tuner options, then
// measures the tuned fused kernel and TorchRec's on the evaluation batches.
func (e *env) tunePass(inputs []tuneInput, pass int) ([]tuned, error) {
	dev := gpusim.V100()
	out := make([]tuned, len(inputs))
	for i, in := range inputs {
		id := int64(pass*len(inputs) + i)
		t := &out[i]
		err := e.tr.timed(spanModel, id, i, func() error {
			feats := experiments.Features(in.cfg)
			t.rf = core.New(dev, feats)
			start := time.Now()
			if err := e.tune(t.rf, in.tune, id, i); err != nil {
				return fmt.Errorf("tuning %s: %w", in.cfg.Name, err)
			}
			t.wall = time.Since(start)
			r := t.rf.Tuned()
			t.choice, t.occupancy, t.latency = r.ChoiceIdx, r.Occupancy, r.Latency
			for _, b := range in.eval {
				if err := e.tr.timed(spanMeasure, id, i, func() error {
					v, err := t.rf.Measure(dev, feats, b)
					t.recflex += v
					return err
				}); err != nil {
					return err
				}
				if err := e.tr.timed(spanBaseline, id, i, func() error {
					v, err := baselines.TorchRec{}.Measure(dev, feats, b)
					t.torchrec += v
					return err
				}); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// checkTuned holds a pass to the outputs RecFlex must produce: no slower than
// TorchRec on any model, and bit-identical to the first pass.
func checkTuned(res *result, inputs []tuneInput, first, got []tuned) {
	for i := range got {
		name := inputs[i].cfg.Name
		res.checkf(got[i].recflex <= got[i].torchrec, "%s: RecFlex %.3g s slower than TorchRec %.3g s", name, got[i].recflex, got[i].torchrec)
		same := reflect.DeepEqual(got[i].choice, first[i].choice) && got[i].occupancy == first[i].occupancy &&
			math.Float64bits(got[i].latency) == math.Float64bits(first[i].latency)
		res.checkf(same, "%s: tuning result differs between passes", name)
	}
}

func (e *env) logTuned(inputs []tuneInput, ts []tuned) {
	for i, t := range ts {
		n := float64(len(inputs[i].eval))
		e.logf("  %-5s tune %8.1f ms  occupancy %d  RecFlex %.2f us  TorchRec %.2f us per eval batch (%.2fx)",
			inputs[i].cfg.Name, ms(t.wall), t.occupancy, t.recflex/n*1e6, t.torchrec/n*1e6, t.torchrec/t.recflex)
	}
}

func runTuneModels(e *env) (*result, error) {
	inputs, setupS, err := setups(e, e.tuneInputs)
	if err != nil {
		return nil, err
	}
	res := newResult()
	res.metrics["setup_s"] = setupS
	if e.tr != nil {
		return res, e.tuneTraced(inputs, res)
	}
	// Passes repeat while another fits in the budget; each model's tune time
	// is its median over the passes.
	var passes [][]tuned
	var heap uint64
	start := time.Now()
	var last time.Duration
	for len(passes) == 0 || time.Since(start)+last <= e.cfg.budget {
		t0 := time.Now()
		ts, err := e.tunePass(inputs, len(passes))
		if err != nil {
			return nil, err
		}
		last = time.Since(t0)
		if len(passes) == 0 {
			heap = liveHeap()
		}
		passes = append(passes, ts)
		checkTuned(res, inputs, passes[0], ts)
		res.attempted += len(ts)
	}
	e.logf("%d passes over %d models (V100, scale %d):", len(passes), len(inputs), e.cfg.tuneScale)
	e.logTuned(inputs, passes[0])
	var perModel []float64
	var total float64
	for i := range inputs {
		var walls []float64
		for _, ts := range passes {
			walls = append(walls, ms(ts[i].wall))
			total += ms(ts[i].wall)
		}
		perModel = append(perModel, median(walls))
	}
	res.metrics["latency_p50_ms"] = median(perModel)
	res.metrics["latency_p95_ms"] = percentile(sortedCopy(perModel), tailQuantile)
	res.metrics["throughput_per_s"] = float64(res.attempted) / (total / 1e3)
	res.metrics["heap_mb"] = float64(heap) / mib
	return res, nil
}

// tuneTraced runs one untraced pass, then one traced pass whose results must
// be bit-identical to the untraced ones.
func (e *env) tuneTraced(inputs []tuneInput, res *result) error {
	e.tr.on.Store(false)
	t0 := time.Now()
	plain, err := e.tunePass(inputs, 0)
	if err != nil {
		return err
	}
	plainWall := time.Since(t0)
	from := e.traceHalf()
	t0 = time.Now()
	traced, err := e.tunePass(inputs, 1)
	tracedWall := time.Since(t0)
	e.endTraceHalf(res)
	if err != nil {
		return err
	}
	res.attempted += len(plain) + len(traced)
	checkTuned(res, inputs, plain, traced)
	e.logf("untraced pass %.0f ms, traced pass %.0f ms:", ms(plainWall), ms(tracedWall))
	e.logTuned(inputs, traced)

	for _, name := range []spanName{spanTune, spanMeasure, spanBaseline} {
		e.tr.linkByID(from, name, spanModel)
	}
	self, total := e.tr.selfTimes(from, spanModel)
	r := res.metrics
	r["bench.trace_overhead"] = tracedWall.Seconds()/plainWall.Seconds() - 1
	for _, name := range []spanName{spanTune, spanMeasure, spanBaseline} {
		r[name.String()+".self_share"] = ratio(self[name], total)
	}
	ks := &kernelSet{}
	var kernels []kernelKey
	for i, in := range inputs {
		ks.cfgs = append(ks.cfgs, in.cfg)
		ks.recs = append(ks.recs, traced[i].rf)
		for _, b := range in.eval {
			kernels = append(kernels, kernelKey{i, b.BatchSize()})
		}
	}
	return e.finishLayers(res, kernels, ks)
}
