package fusion

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/datasynth"
	"repro/internal/embedding"
	"repro/internal/gpusim"
	"repro/internal/sched"
)

// boundDims spans the row widths whose requests fall under 32 B (dims 1-4),
// under the spill's 128 B (dims 8-16) and above both.
var boundDims = []int{1, 2, 4, 8, 16, 32, 64, 128}

// boundCompile draws a random fused compile for the FeatureBound checks: up
// to four features of random dimension, table size, pooling and coverage, a
// batch of up to 512 requests, and one random default candidate per feature.
// It returns the features, their chosen schedules, every candidate's block
// width (the tuner's widths) and the compiled kernel, or a nil kernel when
// the occupancy cannot be pinned.
func boundCompile(dev *gpusim.Device, seed int64, nfeat, batchSize, occ int) ([]FeatureInfo, []sched.Schedule, []int, *Fused, error) {
	rng := rand.New(rand.NewSource(seed))
	cfg := &datasynth.ModelConfig{Name: "bound", Seed: seed}
	for f := 0; f < nfeat; f++ {
		spec := datasynth.FeatureSpec{
			Name:     "f",
			Dim:      boundDims[rng.Intn(len(boundDims))],
			Rows:     64 << rng.Intn(10),
			Coverage: 0.2 + 0.8*rng.Float64(),
		}
		switch rng.Intn(3) {
		case 0:
			spec.PF = datasynth.Fixed{K: 1}
		case 1:
			spec.PF = datasynth.Fixed{K: 1 + rng.Intn(200)}
		default:
			spec.PF = datasynth.Uniform{Lo: 1, Hi: 2 + rng.Intn(100)}
		}
		cfg.Features = append(cfg.Features, spec)
	}
	batch, err := datasynth.GenerateBatch(cfg, batchSize, rng)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	features := make([]FeatureInfo, nfeat)
	choices := make([]sched.Schedule, nfeat)
	var widths []int
	for f := range features {
		spec := cfg.Features[f]
		features[f] = FeatureInfo{Name: spec.Name, Dim: spec.Dim, TableRows: spec.Rows, Pool: embedding.PoolSum}
		candidates := sched.DefaultCandidates(spec.Dim)
		for _, c := range candidates {
			if w := c.Resources(spec.Dim).ThreadsPerBlock; !slices.Contains(widths, w) {
				widths = append(widths, w)
			}
		}
		choices[f] = candidates[rng.Intn(len(candidates))]
	}
	fu, err := Compile(dev, features, choices, batch, Options{TargetBlocksPerSM: occ})
	if err != nil {
		return features, choices, widths, nil, nil
	}
	return features, choices, widths, fu, nil
}

// checkFeatureBound compiles and simulates one random fused kernel and checks
// every feature's FeatureBound against it: the bound must be at most the
// kernel's Time and at most the longest BlockTime of the feature's own
// blocks, up to the relative rounding slack TagBounds' checks allow.
func checkFeatureBound(t *testing.T, dev *gpusim.Device, seed int64, nfeat, batchSize, occ int) {
	t.Helper()
	features, choices, widths, fu, err := boundCompile(dev, seed, nfeat, batchSize, occ)
	if err != nil {
		t.Fatal(err)
	}
	if fu == nil {
		return // the occupancy cannot be pinned: there is no kernel to bound
	}
	r, err := fu.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	longest := make([]float64, len(features))
	for i, b := range fu.Kernel.Blocks {
		longest[b.Tag] = max(longest[b.Tag], r.BlockTime[i])
	}
	const slack = 1 + 1e-12
	for f := range features {
		b := FeatureBound(dev, features[f].Dim, choices[f], fu.Plans[f], occ, widths)
		if b > r.Time*slack {
			t.Fatalf("feature %d (%s, dim %d, spill %d): bound %g exceeds kernel Time %g",
				f, choices[f].Name(), features[f].Dim, fu.SpilledRegs[f], b, r.Time)
		}
		if b > longest[f]*slack {
			t.Fatalf("feature %d (%s, dim %d, spill %d): bound %g exceeds its longest BlockTime %g",
				f, choices[f].Name(), features[f].Dim, fu.SpilledRegs[f], b, longest[f])
		}
	}
}

// FuzzFusedFeatureBound checks FeatureBound's soundness on random fused
// kernels: for each feature, the bound from its own schedule and plan is at
// most the compiled kernel's simulated Time and at most the feature's
// longest BlockTime, whatever the other features run.
func FuzzFusedFeatureBound(f *testing.F) {
	f.Add(int64(1), uint8(3), uint16(64), uint8(4), false)
	f.Add(int64(7), uint8(1), uint16(1), uint8(8), true)
	f.Add(int64(42), uint8(4), uint16(511), uint8(1), false)
	// Found by fuzzing: a bound that charges only the spill at the
	// schedule's own width fails the first, and one that skips the
	// task-map read fails the second.
	f.Add(int64(-124), uint8(0x15), uint16(28), uint8(0xe6), false)
	f.Add(int64(-21), uint8(3), uint16(64), uint8(0), false)
	f.Fuzz(func(t *testing.T, seed int64, nfeat uint8, batchSize uint16, occ uint8, a100 bool) {
		dev := gpusim.V100()
		if a100 {
			dev = gpusim.A100()
		}
		checkFeatureBound(t, dev, seed, 1+int(nfeat)%4, 1+int(batchSize)%512, 1+int(occ)%8)
	})
}
