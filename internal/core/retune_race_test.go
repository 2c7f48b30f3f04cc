package core

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/trace"
	"repro/internal/tuner"
)

// TestConcurrentWarmRetunesSharedMemo is the fleet-speed race stress: two
// supervised serving loops run concurrently, each drifting and re-tuning with
// warm starts against ONE shared tuner.Memo. Under -race this exercises the
// memo's singleflight from genuinely concurrent Tune calls. The pins:
//
//   - both concurrent runs produce exactly the report a serial cold-cache
//     (no memo) run produces — a shared cache never changes selection, and a
//     torn or cross-contaminated entry would surface as a diverged report or
//     a different tuned latency;
//   - the shared memo actually deduplicates across the models (hits > 0);
//   - generation stamps stay monotone within each run.
func TestConcurrentWarmRetunesSharedMemo(t *testing.T) {
	rf, reqs, src, opts := continuousFixture(t)
	opts.WarmStart = true
	// Keep the per-tune cost down — race-mode simulation is slow and this
	// test runs three full serving loops.
	opts.Tune.Occupancies = []int{2, 4}
	opts.RetuneBatches = 2

	// Cold-cache reference: the same warm-started loop with no memo at all.
	ref := rf.Clone()
	refRep, err := ref.ServeContinuous(reqs, src, opts)
	if err != nil {
		t.Fatal(err)
	}
	refStr := fmt.Sprintf("%+v", refRep)
	refLat := ref.Tuned().Latency

	memo := tuner.NewMemo()
	shared := opts
	shared.Tune.Memo = memo

	const models = 2
	lives := make([]*RecFlex, models)
	reports := make([]*trace.Report, models)
	errs := make([]error, models)
	var wg sync.WaitGroup
	for i := 0; i < models; i++ {
		lives[i] = rf.Clone()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reports[i], errs[i] = lives[i].ServeContinuous(reqs, src, shared)
		}(i)
	}
	wg.Wait()

	for i := 0; i < models; i++ {
		if errs[i] != nil {
			t.Fatalf("model %d: %v", i, errs[i])
		}
		if got := fmt.Sprintf("%+v", reports[i]); got != refStr {
			t.Errorf("model %d diverged from the cold-cache run:\n%s\n---\n%s", i, got, refStr)
		}
		if lat := lives[i].Tuned().Latency; math.Float64bits(lat) != math.Float64bits(refLat) {
			t.Errorf("model %d adopted latency %g, want cold-cache %g exactly", i, lat, refLat)
		}
		prev := -1
		for j, g := range reports[i].Generations {
			if g < prev {
				t.Fatalf("model %d: generation stamps not monotone at %d: %d -> %d", i, j, prev, g)
			}
			prev = g
		}
		if len(reports[i].Metrics.Swaps) == 0 {
			t.Fatalf("model %d never re-tuned; the stress exercised nothing", i)
		}
	}

	// Two identical models tuning the same drifted window must share work.
	hits, misses := memo.Stats()
	if misses == 0 || hits == 0 {
		t.Errorf("shared memo hits=%d misses=%d, want both > 0 across concurrent re-tunes", hits, misses)
	}
}
