package perf

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/datasynth"
	"repro/internal/embedding"
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
