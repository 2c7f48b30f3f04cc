package tuner

import (
	"math/rand"
	"testing"

	"repro/internal/datasynth"
	"repro/internal/embedding"
	"repro/internal/fusion"
	"repro/internal/gpusim"
	"repro/internal/sched"
)

// tuneTestModel builds a small but strongly heterogeneous model.
func tuneTestModel(t *testing.T) (*Model, []*embedding.Batch, *datasynth.ModelConfig) {
	t.Helper()
	return buildTuneModel(t, 6, 2, 256, 77)
}

// buildTuneModel replicates a heterogeneous feature core reps times and
// samples nbatches batches. The tuner targets the many-features regime of
// the paper (hundreds to thousands of embedding tables), where the fused
// grid is deep enough for Equation 2 to hold; replication gets there while
// keeping tests fast.
func buildTuneModel(t *testing.T, reps, nbatches, batchSize int, seed int64) (*Model, []*embedding.Batch, *datasynth.ModelConfig) {
	t.Helper()
	core := []datasynth.FeatureSpec{
		{Name: "onehot4", Dim: 4, Rows: 4096, PF: datasynth.Fixed{K: 1}, Coverage: 1},
		{Name: "onehot8", Dim: 8, Rows: 8192, PF: datasynth.Fixed{K: 1}, Coverage: 1},
		{Name: "multi8", Dim: 8, Rows: 16384, PF: datasynth.Normal{Mu: 50, Sigma: 10}, Coverage: 1},
		{Name: "multi32", Dim: 32, Rows: 32768, PF: datasynth.Uniform{Lo: 1, Hi: 60}, Coverage: 0.8},
		{Name: "heavy128", Dim: 128, Rows: 32768, PF: datasynth.Fixed{K: 150}, Coverage: 1},
		{Name: "sparse16", Dim: 16, Rows: 8192, PF: datasynth.Fixed{K: 5}, Coverage: 0.3},
	}
	var specs []datasynth.FeatureSpec
	for rep := 0; rep < reps; rep++ {
		for _, spec := range core {
			s := spec
			s.Name = s.Name + string(rune('a'+rep))
			specs = append(specs, s)
		}
	}
	return buildModelFrom(t, specs, nbatches, batchSize, seed)
}

// buildModelFrom samples nbatches batches of the given features and returns
// the tuner's default model of them.
func buildModelFrom(t *testing.T, specs []datasynth.FeatureSpec, nbatches, batchSize int, seed int64) (*Model, []*embedding.Batch, *datasynth.ModelConfig) {
	t.Helper()
	cfg := &datasynth.ModelConfig{Name: "tune", Seed: seed, Features: specs}
	var batches []*embedding.Batch
	rng := rand.New(rand.NewSource(cfg.Seed))
	for i := 0; i < nbatches; i++ {
		b, err := datasynth.GenerateBatch(cfg, batchSize, rng)
		if err != nil {
			t.Fatal(err)
		}
		batches = append(batches, b)
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
	return DefaultModel(features), batches, cfg
}

func fastOpts() Options {
	return Options{Occupancies: []int{1, 2, 3, 4, 6, 8}, Parallelism: 4}
}

func TestTuneProducesValidResult(t *testing.T) {
	model, batches, _ := tuneTestModel(t)
	dev := gpusim.V100()
	res, err := Tune(dev, model, batches, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Choices) != len(model.Features) {
		t.Fatalf("%d choices for %d features", len(res.Choices), len(model.Features))
	}
	for f, idx := range res.ChoiceIdx {
		if idx < 0 || idx >= len(model.Candidates[f]) {
			t.Errorf("feature %d: choice index %d out of range", f, idx)
		}
		if res.Choices[f].Name() != model.Candidates[f][idx].Name() {
			t.Errorf("feature %d: choice/index disagree", f)
		}
	}
	found := false
	for _, occ := range fastOpts().Occupancies {
		if res.Occupancy == occ {
			found = true
		}
	}
	if !found {
		t.Errorf("selected occupancy %d not in the candidate list", res.Occupancy)
	}
	if res.Latency <= 0 {
		t.Error("latency must be positive")
	}
	// Complete trials come best first, abandoned trials after them, each
	// with a bound no lower than the winner's latency.
	for i, po := range res.PerOccupancy {
		switch {
		case po.Abandoned:
			if po.Latency < res.Latency {
				t.Errorf("abandoned occupancy %d has bound %g below the winner's %g", po.BlocksPerSM, po.Latency, res.Latency)
			}
		case i > 0 && res.PerOccupancy[i-1].Abandoned:
			t.Errorf("complete occupancy %d sorted after an abandoned trial", po.BlocksPerSM)
		case i > 0 && po.Latency < res.PerOccupancy[i-1].Latency:
			t.Error("complete trials not sorted best-first")
		}
	}
	// The whole point: heterogeneous features get heterogeneous schedules.
	names := make(map[string]bool)
	for _, c := range res.Choices {
		names[c.Name()] = true
	}
	if len(names) < 2 {
		t.Errorf("tuner picked a single schedule %v for strongly heterogeneous features", names)
	}
}

func TestTuneDeterministic(t *testing.T) {
	model, batches, _ := tuneTestModel(t)
	dev := gpusim.V100()
	a, err := Tune(dev, model, batches, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Tune(dev, model, batches, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if a.Occupancy != b.Occupancy || a.Latency != b.Latency {
		t.Errorf("nondeterministic: occ %d/%d latency %g/%g", a.Occupancy, b.Occupancy, a.Latency, b.Latency)
	}
	for f := range a.ChoiceIdx {
		if a.ChoiceIdx[f] != b.ChoiceIdx[f] {
			t.Errorf("feature %d: choice %d vs %d", f, a.ChoiceIdx[f], b.ChoiceIdx[f])
		}
	}
}

// The Figure 11 direction: the two-stage interference-simulated tuner must
// not lose to the separate-combine straw man on the same candidate sets.
func TestTwoStageBeatsSeparateCombine(t *testing.T) {
	model, batches, _ := tuneTestModel(t)
	dev := gpusim.V100()
	two, err := Tune(dev, model, batches, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	sep, err := SeparateCombine(dev, model, batches, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Sub-percent differences are measurement-level ties at this model
	// size; the two-stage tuner must never lose materially.
	if two.Latency > sep.Latency*1.01 {
		t.Errorf("two-stage (%g) lost to separate-combine (%g)", two.Latency, sep.Latency)
	}
}

func TestTuneErrorPaths(t *testing.T) {
	model, batches, _ := tuneTestModel(t)
	dev := gpusim.V100()
	if _, err := Tune(dev, model, nil, fastOpts()); err == nil {
		t.Error("no batches accepted")
	}
	if _, err := Tune(dev, &Model{}, batches, fastOpts()); err == nil {
		t.Error("empty model accepted")
	}
	bad := &Model{Features: model.Features, Candidates: make([][]sched.Schedule, len(model.Features))}
	if _, err := Tune(dev, bad, batches, fastOpts()); err == nil {
		t.Error("empty candidate set accepted")
	}
	// Occupancy 32 is unreachable for 256-thread blocks (8 warps, 64 slots).
	if _, err := Tune(dev, model, batches, Options{Occupancies: []int{32}, Parallelism: 2}); err == nil {
		t.Error("unreachable occupancy list accepted")
	}
	if _, err := SeparateCombine(dev, model, nil, fastOpts()); err == nil {
		t.Error("separate-combine without batches accepted")
	}
}

func TestDefaultModel(t *testing.T) {
	features := []fusion.FeatureInfo{
		{Name: "a", Dim: 4, TableRows: 100},
		{Name: "b", Dim: 128, TableRows: 100},
	}
	m := DefaultModel(features)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(m.Candidates[0]) == 0 || len(m.Candidates[1]) == 0 {
		t.Error("default candidates missing")
	}
}

func TestOccupancyCandidatesDerived(t *testing.T) {
	model, _, _ := tuneTestModel(t)
	dev := gpusim.V100()
	defaults := Options{}
	occ, warps, err := occupancyCandidates(dev, model, defaults.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	if warps != 8 {
		t.Errorf("warps = %d, want 8 (256-thread candidates)", warps)
	}
	if len(occ) == 0 || len(occ) > 8 {
		t.Errorf("derived %d occupancy levels, want 1..8", len(occ))
	}
	if occ[0] != 1 || occ[len(occ)-1] != 8 {
		t.Errorf("occupancy extremes %v, want 1..8 kept", occ)
	}
}

// The tuned kernel must still compute correct outputs end to end.
func TestTunedKernelCorrect(t *testing.T) {
	model, batches, cfg := tuneTestModel(t)
	dev := gpusim.V100()
	res, err := Tune(dev, model, batches, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	capped := datasynth.CapRows(cfg, 4096)
	tables, err := datasynth.BuildTables(capped)
	if err != nil {
		t.Fatal(err)
	}
	// Regenerate a batch against the capped config so IDs stay in range.
	rng := rand.New(rand.NewSource(5))
	batch, err := datasynth.GenerateBatch(capped, 64, rng)
	if err != nil {
		t.Fatal(err)
	}
	features := make([]fusion.FeatureInfo, len(model.Features))
	copy(features, model.Features)
	for f := range features {
		features[f].TableRows = capped.Features[f].Rows
	}
	fu, err := fusion.Compile(dev, features, res.Choices, batch, fusion.Options{TargetBlocksPerSM: res.Occupancy})
	if err != nil {
		t.Fatal(err)
	}
	want, err := fusion.ReferenceOutputs(features, tables, batch)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fu.Execute(tables, batch)
	if err != nil {
		t.Fatal(err)
	}
	for f := range want {
		for i := range want[f] {
			if want[f][i] != got[f][i] {
				t.Fatalf("feature %d out[%d]: %g != %g", f, i, got[f][i], want[f][i])
			}
		}
	}
}

// AutoModel candidates must feed the two-stage tuner end to end and produce
// a result competitive with the hand-curated default sets.
func TestAutoModelTunes(t *testing.T) {
	model, batches, _ := tuneTestModel(t)
	dev := gpusim.V100()
	auto, err := AutoModel(dev, model.Features, batches[0], sched.AutoOptions{MaxCandidates: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := auto.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := Tune(dev, auto, batches, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	def, err := Tune(dev, model, batches, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Auto candidates should be in the same league as the curated sets.
	if res.Latency > def.Latency*1.5 {
		t.Errorf("auto-tuned latency %g vs default %g (>1.5x worse)", res.Latency, def.Latency)
	}
}
