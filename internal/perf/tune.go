package perf

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/datasynth"
	"repro/internal/embedding"
	"repro/internal/experiments"
	"repro/internal/fusion"
	"repro/internal/gpusim"
	"repro/internal/tuner"
)

// The tuner benchmarks replicate a heterogeneous six-feature core twice
// (12 features, two sampled batches) — big enough that the two-stage search
// dominates, small enough that a serial tune fits in a benchtime iteration.
var (
	tuneOnce    sync.Once
	tuneModel   *tuner.Model
	tuneBatches []*embedding.Batch
	tuneErr     error
)

func tuneFixture(b *testing.B) (*tuner.Model, []*embedding.Batch) {
	tuneOnce.Do(func() {
		core := []datasynth.FeatureSpec{
			{Name: "onehot4", Dim: 4, Rows: 4096, PF: datasynth.Fixed{K: 1}, Coverage: 1},
			{Name: "onehot8", Dim: 8, Rows: 8192, PF: datasynth.Fixed{K: 1}, Coverage: 1},
			{Name: "multi8", Dim: 8, Rows: 16384, PF: datasynth.Normal{Mu: 50, Sigma: 10}, Coverage: 1},
			{Name: "multi32", Dim: 32, Rows: 32768, PF: datasynth.Uniform{Lo: 1, Hi: 60}, Coverage: 0.8},
			{Name: "heavy128", Dim: 128, Rows: 32768, PF: datasynth.Fixed{K: 150}, Coverage: 1},
			{Name: "sparse16", Dim: 16, Rows: 8192, PF: datasynth.Fixed{K: 5}, Coverage: 0.3},
		}
		cfg := &datasynth.ModelConfig{Name: "tune-bench", Seed: 77}
		for rep := 0; rep < 2; rep++ {
			for _, spec := range core {
				s := spec
				s.Name = s.Name + string(rune('a'+rep))
				cfg.Features = append(cfg.Features, s)
			}
		}
		rng := rand.New(rand.NewSource(cfg.Seed))
		for i := 0; i < 2; i++ {
			batch, err := datasynth.GenerateBatch(cfg, 256, rng)
			if err != nil {
				tuneErr = err
				return
			}
			tuneBatches = append(tuneBatches, batch)
		}
		features := make([]fusion.FeatureInfo, len(cfg.Features))
		for f := range features {
			features[f] = fusion.FeatureInfo{
				Name:      cfg.Features[f].Name,
				Dim:       cfg.Features[f].Dim,
				TableRows: cfg.Features[f].Rows,
				Pool:      embedding.PoolSum,
			}
		}
		tuneModel = tuner.DefaultModel(features)
	})
	if tuneErr != nil {
		b.Fatal(tuneErr)
	}
	return tuneModel, tuneBatches
}

func tuneBenchOpts() tuner.Options {
	return tuner.Options{Occupancies: []int{1, 2, 4}, Parallelism: 4}
}

// TuneSerial measures the pre-fleet-speed reference: the exhaustive serial
// two-stage search, every candidate at full block budget, occupancies one at
// a time.
func TuneSerial(b *testing.B) {
	dev := gpusim.V100()
	model, batches := tuneFixture(b)
	opts := tuneBenchOpts()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tuner.TuneSerial(dev, model, batches, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// TuneCold measures the configuration every core.RecFlex.Tune caller gets by
// default: the fleet-speed engine with no memo and no warm start, over every
// occupancy level the model's widest block admits (up to eight). Its local
// stage stops each feature's co-execution simulations once the winning
// schedule is proven, and that saving grows with occupancy, so the derived
// levels, not the three of the other tuner cases, are the fixture.
func TuneCold(b *testing.B) {
	dev := gpusim.V100()
	model, batches := tuneFixture(b)
	opts := tuner.Options{Parallelism: 4}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tuner.Tune(dev, model, batches, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// The losing-occupancy fixture is Table-I model B at scale 100 with the two
// tuning batches of the benchmark's tune-models workload. Its occupancies
// 3-8 lose on V100, most by a wide margin, so it measures what the sweep
// spends on occupancies it proves to lose, which TuneCold's fixture, whose
// occupancies lie within 3% of each other, cannot show.
var (
	losingOnce    sync.Once
	losingModel   *tuner.Model
	losingBatches []*embedding.Batch
	losingErr     error
)

func losingFixture(b *testing.B) (*tuner.Model, []*embedding.Batch) {
	losingOnce.Do(func() {
		suite := experiments.NewSuite(experiments.Config{Scale: 100, TuneBatches: 2, EvalBatches: 8, BatchCap: 512})
		cfg := suite.ScaledModel(datasynth.ModelB())
		ds, err := suite.Dataset(cfg)
		if err != nil {
			losingErr = err
			return
		}
		losingBatches, _ = suite.Split(ds)
		losingModel = tuner.DefaultModel(experiments.Features(cfg))
	})
	if losingErr != nil {
		b.Fatal(losingErr)
	}
	return losingModel, losingBatches
}

// TuneLosing measures a cold default tune, as tune-models runs it, of a
// model most of whose occupancies lose. It fails unless the tune abandons
// some trial, so the case always exercises the sweep's pruning.
func TuneLosing(b *testing.B) {
	dev := gpusim.V100()
	model, batches := losingFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := tuner.Tune(dev, model, batches, tuner.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if !slices.ContainsFunc(res.PerOccupancy, func(r tuner.OccupancyResult) bool { return r.Abandoned }) {
			b.Fatal("no trial was abandoned")
		}
	}
}

// RetuneWarm measures the fleet steady state: a re-tune warm-started from the
// incumbent result against a memo populated by a previous tune of the same
// window, the configuration core.ServeContinuous/ServeFleet run re-tunes in.
func RetuneWarm(b *testing.B) {
	dev := gpusim.V100()
	model, batches := tuneFixture(b)
	opts := tuneBenchOpts()
	opts.Memo = tuner.NewMemo()
	base, err := tuner.Tune(dev, model, batches, opts)
	if err != nil {
		b.Fatal(err)
	}
	opts.Warm = tuner.WarmFrom(base)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tuner.Tune(dev, model, batches, opts); err != nil {
			b.Fatal(err)
		}
	}
}
