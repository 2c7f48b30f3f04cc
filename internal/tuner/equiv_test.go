package tuner

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/datasynth"
	"repro/internal/embedding"
	"repro/internal/gpusim"
	"repro/internal/sched"
)

// resultsBitIdentical compares two tuning results field by field, requiring
// exact float equality (bit-identical latencies) and identical PerOccupancy
// order.
func resultsBitIdentical(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if got.Occupancy != want.Occupancy {
		t.Errorf("%s: occupancy %d, want %d", label, got.Occupancy, want.Occupancy)
	}
	if math.Float64bits(got.Latency) != math.Float64bits(want.Latency) {
		t.Errorf("%s: latency %v (bits %016x), want %v (bits %016x)",
			label, got.Latency, math.Float64bits(got.Latency), want.Latency, math.Float64bits(want.Latency))
	}
	if len(got.ChoiceIdx) != len(want.ChoiceIdx) {
		t.Fatalf("%s: %d choices, want %d", label, len(got.ChoiceIdx), len(want.ChoiceIdx))
	}
	for f := range want.ChoiceIdx {
		if got.ChoiceIdx[f] != want.ChoiceIdx[f] {
			t.Errorf("%s: feature %d choice %d, want %d", label, f, got.ChoiceIdx[f], want.ChoiceIdx[f])
		}
		if got.Choices[f].Name() != want.Choices[f].Name() {
			t.Errorf("%s: feature %d schedule %s, want %s", label, f, got.Choices[f].Name(), want.Choices[f].Name())
		}
	}
	if len(got.PerOccupancy) != len(want.PerOccupancy) {
		t.Fatalf("%s: %d per-occupancy trials, want %d", label, len(got.PerOccupancy), len(want.PerOccupancy))
	}
	for i := range want.PerOccupancy {
		w, g := &want.PerOccupancy[i], &got.PerOccupancy[i]
		if g.BlocksPerSM != w.BlocksPerSM {
			t.Errorf("%s: trial %d occupancy %d, want %d", label, i, g.BlocksPerSM, w.BlocksPerSM)
		}
		if math.Float64bits(g.Latency) != math.Float64bits(w.Latency) {
			t.Errorf("%s: trial %d latency bits %016x, want %016x", label, i, math.Float64bits(g.Latency), math.Float64bits(w.Latency))
		}
		if g.Abandoned != w.Abandoned {
			t.Errorf("%s: trial %d abandoned %v, want %v", label, i, g.Abandoned, w.Abandoned)
		}
		if len(g.ChoiceIdx) != len(w.ChoiceIdx) {
			t.Errorf("%s: trial %d has %d choices, want %d", label, i, len(g.ChoiceIdx), len(w.ChoiceIdx))
			continue
		}
		for f := range w.ChoiceIdx {
			if g.ChoiceIdx[f] != w.ChoiceIdx[f] {
				t.Errorf("%s: trial %d feature %d choice %d, want %d", label, i, f, g.ChoiceIdx[f], w.ChoiceIdx[f])
			}
		}
	}
}

// serialTrials derives the Result Tune must return from TuneSerial's, which
// measures every occupancy: the same selection, and the PerOccupancy the
// OccupancyResult contract gives when the sweep visits the occupancies in
// order, the warm incumbent first. Walking that order, a trial whose latency
// is at most the best latency before it stays complete; any other becomes
// abandoned, with that best as its Latency and no choices.
func serialTrials(t *testing.T, model *Model, serial *Result, occupancies []int, warm *Warm) *Result {
	t.Helper()
	byOcc := map[int]OccupancyResult{}
	for _, po := range serial.PerOccupancy {
		byOcc[po.BlocksPerSM] = po
	}
	order := append([]int(nil), occupancies...)
	if warm != nil {
		if i := slices.Index(order, warm.Occupancy); i >= 0 {
			order = append(append([]int{warm.Occupancy}, order[:i]...), order[i+1:]...)
		}
	}
	trials := map[int]OccupancyResult{}
	best := math.Inf(1)
	for _, occ := range order {
		po, ok := byOcc[occ]
		switch {
		case !ok:
		case po.Latency <= best:
			best = po.Latency
			trials[occ] = po
		default:
			trials[occ] = OccupancyResult{BlocksPerSM: occ, Latency: best, Abandoned: true}
		}
	}
	res := &Result{}
	for _, occ := range occupancies {
		if po, ok := trials[occ]; ok {
			res.PerOccupancy = append(res.PerOccupancy, po)
		}
	}
	want, err := finishResult(model, res)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestParallelTuneBitIdenticalToSerial is the equivalence pin of the
// fleet-speed engine: across seeded models and datasets, the parallel tuner
// selects exactly what the reference serial tuner selects — Choices,
// ChoiceIdx, Occupancy and Latency bit for bit — at any worker count, with
// or without the shared memo cache, and its PerOccupancy is exactly the
// trial list serialTrials derives from the serial tuner's, abandoned trials
// and their bounds included. Without the memo the local stage stops
// simulating once each feature's winner is proven (tuneFeatureBounded); the
// runs must really stop early, with two and with three tuning batches.
func TestParallelTuneBitIdenticalToSerial(t *testing.T) {
	dev := gpusim.V100()
	cases := []struct {
		seed     int64
		nbatches int
	}{{77, 2}, {1234, 2}, {9001, 2}, {77, 3}}
	for _, tc := range cases {
		seed := tc.seed
		model, batches, _ := buildTuneModel(t, 2, tc.nbatches, 128, seed)
		opts := Options{Occupancies: []int{1, 2, 4, 8}, Parallelism: 1}
		serial, err := TuneSerial(dev, model, batches, opts)
		if err != nil {
			t.Fatal(err)
		}
		want := serialTrials(t, model, serial, opts.Occupancies, nil)
		for _, par := range []int{1, 2, 8} {
			o := opts
			o.Parallelism = par
			early := earlyStops.Load()
			got, err := Tune(dev, model, batches, o)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("parallel/batches=%d/seed=%d/par=%d", tc.nbatches, seed, par)
			resultsBitIdentical(t, label, want, got)
			if earlyStops.Load() == early {
				t.Errorf("%s: no local-stage job stopped early", label)
			}
		}
		if tc.nbatches != 2 {
			continue // the memo checks below run on the two-batch seeds
		}

		// Memoized runs are bit-identical too: a cold-cache run and a
		// fully warm re-run both reproduce the serial result exactly.
		memo := NewMemo()
		o := opts
		o.Parallelism = 4
		o.Memo = memo
		cold, err := Tune(dev, model, batches, o)
		if err != nil {
			t.Fatal(err)
		}
		resultsBitIdentical(t, labelSeedPar("memo-cold", seed, 4), want, cold)
		if _, misses := memo.Stats(); misses == 0 {
			t.Fatalf("seed %d: cold memo run recorded no misses", seed)
		}
		warm, err := Tune(dev, model, batches, o)
		if err != nil {
			t.Fatal(err)
		}
		resultsBitIdentical(t, labelSeedPar("memo-warm", seed, 4), want, warm)
		hits, _ := memo.Stats()
		if hits == 0 {
			t.Fatalf("seed %d: warm memo run recorded no hits", seed)
		}
	}
}

func labelSeedPar(kind string, seed int64, par int) string {
	return fmt.Sprintf("%s/seed=%d/par=%d", kind, seed, par)
}

// TestMemoDecisionKeyCoversEveryBatch pins the memo's decision key: a
// feature's local-stage decision depends on every tuning batch, so a tune of
// {b0, b2} on a memo that a tune of {b0, b1} populated must select exactly
// what TuneSerial selects for {b0, b2}, although both share b0. The batches
// differ in size, so the two sets lead features to different decisions. A
// repeat of the second tune at one worker runs no job the first did not, so
// the memo must serve all of it.
func TestMemoDecisionKeyCoversEveryBatch(t *testing.T) {
	dev := gpusim.V100()
	model, first, cfg := buildTuneModel(t, 2, 1, 64, 77)
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	var more []*embedding.Batch
	for _, size := range []int{512, 32} {
		b, err := datasynth.GenerateBatch(cfg, size, rng)
		if err != nil {
			t.Fatal(err)
		}
		more = append(more, b)
	}
	b0, b1, b2 := first[0], more[0], more[1]

	opts := Options{Occupancies: []int{1, 2, 4, 8}, Parallelism: 2, Memo: NewMemo()}
	if _, err := Tune(dev, model, []*embedding.Batch{b0, b1}, opts); err != nil {
		t.Fatal(err)
	}
	batches := []*embedding.Batch{b0, b2}
	serial, err := TuneSerial(dev, model, batches, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := serialTrials(t, model, serial, opts.Occupancies, nil)
	got, err := Tune(dev, model, batches, opts)
	if err != nil {
		t.Fatal(err)
	}
	resultsBitIdentical(t, "b0+b2 after b0+b1", want, got)

	opts.Parallelism = 1
	_, before := opts.Memo.Stats()
	again, err := Tune(dev, model, batches, opts)
	if err != nil {
		t.Fatal(err)
	}
	resultsBitIdentical(t, "b0+b2 repeated", want, again)
	if _, after := opts.Memo.Stats(); after != before {
		t.Errorf("repeated tune missed the memo %d times, want 0", after-before)
	}
}

// TestWarmStartMatchesCold pins warm-started re-tunes: seeding the search
// with the incumbent result only moves the incumbent occupancy to the front
// of the sweep. The selection is the cold search's bit for bit, and
// PerOccupancy is the trial list serialTrials derives for that order:
// complete trials best first with their serial latencies, abandoned trials
// after them, each with the best latency measured before it in the sweep as
// a strict lower bound on its own.
func TestWarmStartMatchesCold(t *testing.T) {
	dev := gpusim.V100()
	model, batches, _ := buildTuneModel(t, 2, 3, 128, 77)
	opts := Options{Occupancies: []int{1, 2, 4, 8}, Parallelism: 4}
	cold, err := Tune(dev, model, batches, opts)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := TuneSerial(dev, model, batches, opts)
	if err != nil {
		t.Fatal(err)
	}
	o := opts
	o.Warm = WarmFrom(cold)
	warm, err := Tune(dev, model, batches, o)
	if err != nil {
		t.Fatal(err)
	}
	resultsBitIdentical(t, "warm", serialTrials(t, model, serial, opts.Occupancies, o.Warm), warm)
	if warm.Occupancy != cold.Occupancy || math.Float64bits(warm.Latency) != math.Float64bits(cold.Latency) {
		t.Errorf("warm winner occupancy %d latency %g, want cold %d %g exactly",
			warm.Occupancy, warm.Latency, cold.Occupancy, cold.Latency)
	}
	for _, po := range warm.PerOccupancy {
		if !po.Abandoned {
			continue
		}
		if spo := cpoFor(serial, po.BlocksPerSM); spo == nil || !(po.Latency < spo.Latency) || po.Latency < warm.Latency {
			t.Errorf("abandoned occupancy %d: bound %g must lie in [winner %g, serial latency)",
				po.BlocksPerSM, po.Latency, warm.Latency)
		}
	}

	// An incumbent occupancy outside the sweep changes nothing: the search
	// runs cold and returns the cold result bit-identically.
	o.Warm = &Warm{Occupancy: 3}
	outside, err := Tune(dev, model, batches, o)
	if err != nil {
		t.Fatal(err)
	}
	resultsBitIdentical(t, "warm-outside-sweep", cold, outside)
}

// TestFusedCompileFailureDropsOccupancy pins the one trial a fused compile
// decides: on a device whose per-block shared memory is half the SM's, the
// fused kernel at one block per SM cannot be padded down to that occupancy
// once its blocks are narrower than the widest candidate, although every
// feature's local-stage kernel can. TuneSerial then drops occupancy 1, and
// Tune must drop it too — at any worker count and whichever occupancy the
// sweep starts from — because its global stage starts only after every
// occupancy before it in the sweep has settled (sweep.advance).
func TestFusedCompileFailureDropsOccupancy(t *testing.T) {
	dev := *gpusim.V100()
	dev.SharedMemPerBlock = dev.SharedMemPerSM / 2
	model, batches, _ := buildTuneModel(t, 1, 2, 128, 77)
	for f := range model.Candidates {
		var fit []sched.Schedule
		for _, c := range model.Candidates[f] {
			if c.Resources(model.Features[f].Dim).SharedMemPerBlock <= dev.SharedMemPerBlock {
				fit = append(fit, c)
			}
		}
		model.Candidates[f] = fit
	}
	opts := Options{Occupancies: []int{1, 2, 4, 8}}
	serial, err := TuneSerial(&dev, model, batches, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cpoFor(serial, 1) != nil || len(serial.PerOccupancy) != 3 {
		t.Fatalf("serial trials %+v: want occupancy 1 dropped and the other three measured", serial.PerOccupancy)
	}
	for _, warm := range []*Warm{nil, {Occupancy: 2}, {Occupancy: 4}, {Occupancy: 8}} {
		want := serialTrials(t, model, serial, opts.Occupancies, warm)
		for _, par := range []int{1, 2, 8} {
			o := opts
			o.Warm, o.Parallelism = warm, par
			got, err := Tune(&dev, model, batches, o)
			if err != nil {
				t.Fatal(err)
			}
			resultsBitIdentical(t, fmt.Sprintf("warm=%v/par=%d", warm, par), want, got)
		}
	}
}

func cpoFor(res *Result, occ int) *OccupancyResult {
	for i := range res.PerOccupancy {
		if res.PerOccupancy[i].BlocksPerSM == occ {
			return &res.PerOccupancy[i]
		}
	}
	return nil
}

// TestOptionsSerialDispatch pins that Options.Serial routes Tune to the
// reference engine.
func TestOptionsSerialDispatch(t *testing.T) {
	dev := gpusim.V100()
	model, batches, _ := buildTuneModel(t, 1, 1, 64, 5)
	opts := Options{Occupancies: []int{2, 4}, Parallelism: 2, Serial: true}
	a, err := Tune(dev, model, batches, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := TuneSerial(dev, model, batches, opts)
	if err != nil {
		t.Fatal(err)
	}
	resultsBitIdentical(t, "serial-dispatch", b, a)
}
