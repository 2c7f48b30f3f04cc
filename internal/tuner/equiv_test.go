package tuner

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/gpusim"
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
		for f := range w.ChoiceIdx {
			if g.ChoiceIdx[f] != w.ChoiceIdx[f] {
				t.Errorf("%s: trial %d feature %d choice %d, want %d", label, i, f, g.ChoiceIdx[f], w.ChoiceIdx[f])
			}
		}
	}
}

// TestParallelTuneBitIdenticalToSerial is the equivalence pin of the
// fleet-speed engine: across seeded models and datasets, the parallel tuner
// returns a bit-identical Result — Choices, ChoiceIdx, Occupancy, Latency and
// PerOccupancy order — to the reference serial Tune, at any worker count,
// with or without the shared memo cache. Without the memo the local stage
// stops simulating once each feature's winner is proven (tuneFeatureBounded);
// the runs must really stop early, with two and with three tuning batches.
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
		want, err := TuneSerial(dev, model, batches, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{1, 4} {
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

// TestWarmStartMatchesCold pins warm-started re-tunes: seeding the search
// with the incumbent result must not change the selection — the winning
// occupancy, choices and latency are bit-identical to a cold search — and
// every abandoned trial's partial latency provably exceeds the winner's.
func TestWarmStartMatchesCold(t *testing.T) {
	dev := gpusim.V100()
	model, batches, _ := buildTuneModel(t, 2, 3, 128, 77)
	opts := Options{Occupancies: []int{1, 2, 4, 8}, Parallelism: 4}
	cold, err := Tune(dev, model, batches, opts)
	if err != nil {
		t.Fatal(err)
	}
	o := opts
	o.Warm = WarmFrom(cold)
	warm, err := Tune(dev, model, batches, o)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Occupancy != cold.Occupancy {
		t.Errorf("warm winner occupancy %d, want %d", warm.Occupancy, cold.Occupancy)
	}
	if math.Float64bits(warm.Latency) != math.Float64bits(cold.Latency) {
		t.Errorf("warm winner latency %g, want %g exactly", warm.Latency, cold.Latency)
	}
	for f := range cold.ChoiceIdx {
		if warm.ChoiceIdx[f] != cold.ChoiceIdx[f] {
			t.Errorf("feature %d: warm choice %d, want %d", f, warm.ChoiceIdx[f], cold.ChoiceIdx[f])
		}
	}
	for _, po := range warm.PerOccupancy {
		if po.Abandoned {
			if po.Latency <= warm.Latency {
				t.Errorf("abandoned occupancy %d has partial latency %g <= winner %g",
					po.BlocksPerSM, po.Latency, warm.Latency)
			}
		} else if cpo := cpoFor(cold, po.BlocksPerSM); cpo != nil {
			// Complete trials must match the cold run's measurement.
			if math.Float64bits(po.Latency) != math.Float64bits(cpo.Latency) {
				t.Errorf("occupancy %d: warm latency bits differ from cold", po.BlocksPerSM)
			}
		}
	}

	// An incumbent occupancy outside the sweep has nothing to measure first:
	// the search runs cold and returns the cold result bit-identically.
	o.Warm = &Warm{Occupancy: 3}
	outside, err := Tune(dev, model, batches, o)
	if err != nil {
		t.Fatal(err)
	}
	resultsBitIdentical(t, "warm-outside-sweep", cold, outside)
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
