package tuner

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/embedding"
	"repro/internal/fusion"
	"repro/internal/gpusim"
)

// Tune runs the two-stage interference-simulated search over the historical
// batches (Equation 5: the winner minimizes summed time over sampled data).
//
// This is the fleet-speed engine: both stages run on a shared worker pool
// (Options.Parallelism) with cancellation on first error. Without a memo the
// exhaustive local stage is branch-and-bound (tuneFeatureBounded): each
// feature's co-execution simulations stop once its winning schedule is
// provable from gpusim's tag bounds, which selects exactly the schedule the
// full simulations would. Two optional accelerations trade none of the
// final measurement's exactness — the global stage always reports true fused
// latencies:
//
//   - Options.Memo serves repeated simulations from a shared cache;
//     hits are bit-identical to fresh runs. Cached per-batch scores must be
//     complete, so with a memo every local-stage simulation runs to the end.
//   - Options.Warm measures the incumbent occupancy first and abandons any
//     other occupancy as soon as its partial latency sum exceeds the
//     incumbent's total (such an occupancy cannot win, so dropping it never
//     changes the selection).
//
// With Warm off, Tune returns a bit-identical Result to TuneSerial, memo or
// not (pinned by the equivalence property tests). Options.Serial forces the
// reference engine.
func Tune(dev *gpusim.Device, model *Model, batches []*embedding.Batch, opts Options) (*Result, error) {
	if opts.Serial {
		return TuneSerial(dev, model, batches, opts)
	}
	if err := model.Validate(); err != nil {
		return nil, err
	}
	if len(batches) == 0 {
		return nil, fmt.Errorf("tuner: no historical batches")
	}
	o := opts.withDefaults()

	occupancies, warpsPerBlock, err := occupancyCandidates(dev, model, o)
	if err != nil {
		return nil, err
	}

	ws, l2, err := analyzeBatches(dev, model, batches)
	if err != nil {
		return nil, err
	}

	// See TuneSerial: the padding pool reproduces the fused kernel's mixed
	// traffic when the local stage fills the SMs around the candidates.
	pool, err := paddingPool(dev, model, ws, l2)
	if err != nil {
		return nil, err
	}

	var fps *fingerprints
	if o.Memo != nil {
		fps = newFingerprints(dev, model, ws, l2)
	}

	// Local stage. infeasibleOcc is atomic because several features of one
	// occupancy may prove it infeasible concurrently.
	nf := len(model.Features)
	perOcc := make([][]int, len(occupancies))
	for k := range perOcc {
		perOcc[k] = make([]int, nf)
	}
	infeasibleOcc := make([]atomic.Bool, len(occupancies))
	err = runJobs(len(occupancies)*nf, o.Parallelism, func(i int) error {
		k, f := i/nf, i%nf
		var idx int
		var err error
		if o.Memo == nil {
			idx, err = tuneFeatureBounded(dev, model, f, occupancies[k], warpsPerBlock, ws, l2, pool)
		} else {
			idx, err = tuneFeature(dev, model, f, occupancies[k], warpsPerBlock, ws, l2, pool, o.Memo, fps)
		}
		switch {
		case errors.Is(err, errInfeasible):
			infeasibleOcc[k].Store(true)
			return nil
		case err != nil:
			return fmt.Errorf("tuner: occupancy %d, feature %d (%s): %w",
				occupancies[k], f, model.Features[f].Name, err)
		default:
			perOcc[k][f] = idx
			return nil
		}
	})
	if err != nil {
		return nil, err
	}

	// Global stage: measure the fused kernel per occupancy, in parallel.
	// With a warm start the incumbent occupancy is measured to completion
	// first; its total latency then bounds every other trial, which may
	// abandon as soon as its partial sum exceeds the bound.
	entries := make([]*OccupancyResult, len(occupancies))
	measure := func(k int, bound float64) error {
		occ := occupancies[k]
		choices := choicesFor(model, perOcc[k])
		total := 0.0
		abandoned := false
		for bi, b := range batches {
			compute := func() (any, error) {
				fu, err := fusion.Compile(dev, model.Features, choices, b, fusion.Options{TargetBlocksPerSM: occ})
				if err != nil {
					// A fused-compile failure rules the occupancy out
					// (matching TuneSerial); it is a result, not an error.
					return &globalScore{skip: true}, nil
				}
				r, err := fu.Simulate()
				if err != nil {
					return nil, err
				}
				return &globalScore{time: r.Time}, nil
			}
			var v any
			var err error
			if o.Memo != nil {
				v, err = o.Memo.do(fps.globalKey(occ, bi, perOcc[k]), compute)
			} else {
				v, err = compute()
			}
			if err != nil {
				return fmt.Errorf("tuner: global stage occupancy %d: %w", occ, err)
			}
			g := v.(*globalScore)
			if g.skip {
				return nil
			}
			total += g.time
			if total > bound && bi < len(batches)-1 {
				abandoned = true
				break
			}
		}
		entries[k] = &OccupancyResult{
			BlocksPerSM: occ,
			ChoiceIdx:   append([]int(nil), perOcc[k]...),
			Latency:     total,
			Abandoned:   abandoned,
		}
		return nil
	}

	bound := math.Inf(1)
	warmK := -1
	if o.Warm != nil {
		for k, occ := range occupancies {
			if occ == o.Warm.Occupancy && !infeasibleOcc[k].Load() {
				warmK = k
				break
			}
		}
		if warmK >= 0 {
			if err := measure(warmK, math.Inf(1)); err != nil {
				return nil, err
			}
			if e := entries[warmK]; e != nil {
				bound = e.Latency
			}
		}
	}
	err = runJobs(len(occupancies), o.Parallelism, func(k int) error {
		if k == warmK || infeasibleOcc[k].Load() {
			return nil
		}
		return measure(k, bound)
	})
	if err != nil {
		return nil, err
	}

	res := &Result{}
	for k := range occupancies {
		if entries[k] != nil {
			res.PerOccupancy = append(res.PerOccupancy, *entries[k])
		}
	}
	return finishResult(model, res)
}

// runJobs dispatches jobs 0..n-1 in index order to a pool of workers. Once
// any job fails, no further jobs are handed out (cancellation); jobs already
// dispatched run to completion. The returned error is the failed job with
// the lowest index — deterministic regardless of goroutine scheduling,
// because jobs are dispatched in index order over an unbuffered channel:
// when job j fails, every job i < j has already been handed to a worker and
// will record its own outcome, so the minimum over recorded failures cannot
// depend on timing.
func runJobs(n, workers int, run func(i int) error) error {
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	errs := make([]error, n)
	var stop atomic.Bool
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if err := run(i); err != nil {
					errs[i] = err
					stop.Store(true)
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		if stop.Load() {
			break
		}
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
