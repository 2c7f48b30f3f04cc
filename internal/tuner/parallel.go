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
	"repro/internal/sched"
)

// Tune runs the two-stage interference-simulated search over the historical
// batches (Equation 5: the winner minimizes summed time over sampled data).
//
// This is the fleet-speed engine: both stages run on a shared worker pool
// (Options.Parallelism) with cancellation on first error. Without a memo the
// exhaustive local stage is branch-and-bound (tuneFeatureBounded): each
// feature's co-execution simulations stop once its winning schedule is
// provable from gpusim's tag bounds, which selects exactly the schedule the
// full simulations would. Three optional accelerations trade none of the
// final measurement's exactness — the global stage always reports true fused
// latencies:
//
//   - Options.Memo serves repeated simulations from a shared cache;
//     hits are bit-identical to fresh runs. Cached per-batch scores must be
//     complete, so with a memo every local-stage simulation runs to the end.
//   - Options.Prune replaces the exhaustive local stage with successive
//     halving: one cheap co-scheduled pass over all features ranks every
//     candidate, the best half per feature is re-scored on the full block
//     budget.
//   - Options.Warm protects the incumbent schedule from pruning, measures
//     the incumbent occupancy first, and abandons any other occupancy as
//     soon as its partial latency sum exceeds the incumbent's total (such an
//     occupancy cannot win, so dropping it never changes the selection).
//
// With Prune and Warm off and Memo nil, Tune returns a bit-identical Result
// to TuneSerial (pinned by the equivalence property tests). Options.Serial
// forces the reference engine.
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

	warmIdx, err := warmChoices(model, o.Warm)
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
		fps = newFingerprints(dev, model, ws, l2, o)
	}

	// Local stage. infeasibleOcc is atomic because several features of one
	// occupancy may prove it infeasible concurrently.
	nf := len(model.Features)
	perOcc := make([][]int, len(occupancies))
	infeasibleOcc := make([]atomic.Bool, len(occupancies))
	if o.Prune {
		// One job per occupancy: the grouped passes inside already
		// amortize across features, and the two halving passes must see
		// scores summed over every batch before selecting survivors.
		err = runJobs(len(occupancies), o.Parallelism, func(k int) error {
			choice, infeasible, err := tuneOccupancyPruned(dev, model, occupancies[k], warpsPerBlock, ws, l2, pool, o, warmIdx, fps)
			if err != nil {
				return fmt.Errorf("tuner: occupancy %d: %w", occupancies[k], err)
			}
			infeasibleOcc[k].Store(infeasible)
			perOcc[k] = choice
			return nil
		})
	} else {
		for k := range perOcc {
			perOcc[k] = make([]int, nf)
		}
		err = runJobs(len(occupancies)*nf, o.Parallelism, func(i int) error {
			k, f := i/nf, i%nf
			var idx int
			var err error
			if o.Memo == nil {
				idx, err = tuneFeatureBounded(dev, model, f, occupancies[k], warpsPerBlock, ws, l2, pool, o)
			} else {
				idx, err = tuneFeature(dev, model, f, occupancies[k], warpsPerBlock, ws, l2, pool, o, o.Memo, fps)
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
	}
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
				fu, err := fusion.Compile(dev, model.Features, choices, b, fusion.Options{
					TargetBlocksPerSM: occ,
					SpillReuse:        o.SpillReuse,
				})
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

// warmChoices validates a warm-start seed against the model and returns the
// per-feature incumbent candidate indices (nil for a cold start).
func warmChoices(model *Model, w *Warm) ([]int, error) {
	if w == nil {
		return nil, nil
	}
	if len(w.ChoiceIdx) != len(model.Features) {
		return nil, fmt.Errorf("tuner: warm start covers %d features, model has %d", len(w.ChoiceIdx), len(model.Features))
	}
	for f, ci := range w.ChoiceIdx {
		if ci < 0 || ci >= len(model.Candidates[f]) {
			return nil, fmt.Errorf("tuner: warm start candidate %d out of range for feature %d (%s)", ci, f, model.Features[f].Name)
		}
	}
	return w.ChoiceIdx, nil
}

// tuneOccupancyPruned runs the successive-halving local stage for one
// occupancy: a cheap grouped pass scores every feasible candidate of every
// feature on a reduced block budget, halve keeps the best half per feature
// (plus the warm incumbent), and a full-budget grouped pass re-scores the
// survivors. When every feature is down to one survivor the second pass is
// skipped — there is nothing left to discriminate.
func tuneOccupancyPruned(dev *gpusim.Device, model *Model, occ, warpsPerBlock int,
	ws [][]sched.Workload, l2 []sched.L2Context, pool [][]gpusim.BlockWork,
	o Options, warmIdx []int, fps *fingerprints) (choice []int, infeasible bool, err error) {

	nf := len(model.Features)
	envs := make([]*featureEnv, nf)
	maxSmem := 0
	kernelThreads := warpsPerBlock * dev.WarpSize
	for f := 0; f < nf; f++ {
		env, err := newFeatureEnv(dev, model, f, occ, warpsPerBlock)
		if errors.Is(err, errInfeasible) {
			return nil, true, nil
		}
		if err != nil {
			return nil, false, err
		}
		envs[f] = env
		if env.maxSmem > maxSmem {
			maxSmem = env.maxSmem
		}
	}
	// One controlled resource footprint for the grouped kernel: the
	// shared-memory union over features, exactly like the fused kernel.
	res := gpusim.KernelResources{
		ThreadsPerBlock:   kernelThreads,
		RegsPerThread:     envs[0].controlled.RegsPerThread,
		SharedMemPerBlock: maxSmem,
	}
	controlled, _, err := res.ControlOccupancy(dev, occ)
	if err != nil {
		return nil, true, nil
	}

	runPass := func(eval [][]bool, budget int) (scores [][]float64, counted [][]bool, infeasible bool, err error) {
		scores = make([][]float64, nf)
		counted = make([][]bool, nf)
		for f := range envs {
			scores[f] = make([]float64, len(envs[f].candidates))
			counted[f] = make([]bool, len(envs[f].candidates))
		}
		sim := gpusim.NewSimulator()
		for bi := range ws {
			compute := func() (any, error) {
				return scoreGroupedBatch(dev, model, envs, occ, controlled, ws[bi], l2[bi], pool[bi], eval, budget, o, sim)
			}
			var v any
			var err error
			if o.Memo != nil {
				v, err = o.Memo.do(fps.groupKey(occ, warpsPerBlock, budget, bi, eval), compute)
			} else {
				v, err = compute()
			}
			if err != nil {
				return nil, nil, false, err
			}
			gs := v.(*groupScore)
			for f := range envs {
				if gs.empty[f] {
					// A feature with no runnable candidate in some batch
					// rules the occupancy out (matching tuneFeature).
					return nil, nil, true, nil
				}
				for ci := range scores[f] {
					scores[f][ci] += gs.contrib[f][ci]
					counted[f][ci] = counted[f][ci] || gs.counted[f][ci]
				}
			}
		}
		return scores, counted, false, nil
	}

	// Pass 1: every feasible candidate, cheap budget.
	eval := make([][]bool, nf)
	for f := range envs {
		eval[f] = append([]bool(nil), envs[f].feasible...)
	}
	scores, counted, infeasible, err := runPass(eval, o.PruneSampleBlocks)
	if err != nil || infeasible {
		return nil, infeasible, err
	}

	// Halve per feature, protecting the warm incumbent.
	choice = make([]int, nf)
	multi := false
	for f := range envs {
		protect := -1
		if warmIdx != nil {
			protect = warmIdx[f]
		}
		surv := halve(scores[f], counted[f], protect)
		if len(surv) == 0 {
			return nil, true, nil
		}
		for ci := range eval[f] {
			eval[f][ci] = false
		}
		for _, ci := range surv {
			eval[f][ci] = true
		}
		choice[f] = surv[0]
		if len(surv) > 1 {
			multi = true
		}
	}
	if !multi {
		return choice, false, nil
	}

	// Pass 2: survivors only, full budget.
	scores, counted, infeasible, err = runPass(eval, o.MaxBlocksPerCandidate)
	if err != nil || infeasible {
		return nil, infeasible, err
	}
	for f := range envs {
		best, bestScore := -1, math.Inf(1)
		for ci := range envs[f].candidates {
			if !eval[f][ci] || !counted[f][ci] {
				continue
			}
			if scores[f][ci] < bestScore {
				best, bestScore = ci, scores[f][ci]
			}
		}
		if best < 0 {
			return nil, true, nil
		}
		choice[f] = best
	}
	return choice, false, nil
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
