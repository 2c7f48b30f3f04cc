// Package tuner implements RecFlex's interference-aware feature schedule
// tuner: the two-stage, interference-simulated search of §IV-A that picks one
// schedule per feature for the fused kernel.
//
//   - Local stage: for every achievable occupancy value O_k, tune each
//     feature independently under explicitly controlled occupancy. All of a
//     feature's candidates are co-executed inside one kernel (so they compete
//     in the same environment) and the grid is padded with redundant blocks
//     to fill every SM, simulating the SM-level and grid-level contention of
//     the final fused kernel. The candidate with the lowest summed block time
//     (the paper's Equation 3) wins.
//   - Global stage: for every O_k, the fusion compiler builds the fused
//     kernel from the stage-one winners with occupancy pinned to O_k; the
//     best-measuring occupancy and its schedule set are the result
//     (Equation 4).
//
// Complexity is O(F·K + K) kernel compilations, the paper's polynomial bound.
//
// Two engines implement the search. Tune (parallel.go) is the production
// engine: it runs both stages on a shared worker pool with deterministic
// error selection, stops each feature's local-stage simulations once the
// winner is proven (local.go), and optionally warm-starts from an incumbent
// result (Options.Warm) and serves repeated simulations from a shared cache
// (Options.Memo). Neither changes the selection, and without Warm, Tune
// returns a bit-identical Result to TuneSerial — the frozen reference engine,
// which runs every simulation to completion, kept as the equivalence oracle
// and benchmark baseline (see the equivalence property tests).
//
// The straw-man separate-combine tuner of §II-C (tune each feature's latency
// in isolation, no padding, no occupancy control) lives in separate.go and
// exists to reproduce the Figure 11 ablation.
package tuner

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"

	"repro/internal/embedding"
	"repro/internal/fusion"
	"repro/internal/gpusim"
	"repro/internal/sched"
)

// Model bundles what the tuner needs to know about the recommendation model.
type Model struct {
	Features   []fusion.FeatureInfo
	Candidates [][]sched.Schedule // Candidates[f] is S^(f)
}

// Validate checks the model description.
func (m *Model) Validate() error {
	if len(m.Features) == 0 {
		return fmt.Errorf("tuner: model has no features")
	}
	if len(m.Candidates) != len(m.Features) {
		return fmt.Errorf("tuner: %d candidate sets for %d features", len(m.Candidates), len(m.Features))
	}
	for f, set := range m.Candidates {
		if len(set) == 0 {
			return fmt.Errorf("tuner: feature %d (%s) has no schedule candidates", f, m.Features[f].Name)
		}
	}
	return nil
}

// DefaultModel builds a Model with the stock candidate sets for each feature.
func DefaultModel(features []fusion.FeatureInfo) *Model {
	m := &Model{Features: features, Candidates: make([][]sched.Schedule, len(features))}
	for f := range features {
		m.Candidates[f] = sched.DefaultCandidates(features[f].Dim)
	}
	return m
}

// AutoModel builds a Model whose candidate sets are generated automatically
// from a sampled batch (the §VII "Automatic scheduling" direction): the full
// template parameter grid is pruned per feature by the analytic cost model
// before the expensive interference-simulated search runs.
func AutoModel(dev *gpusim.Device, features []fusion.FeatureInfo, sample *embedding.Batch, opts sched.AutoOptions) (*Model, error) {
	ws, err := fusion.AnalyzeBatch(features, sample)
	if err != nil {
		return nil, err
	}
	l2 := sched.L2Context{
		CacheBytes:      float64(dev.L2SizeBytes),
		WorkingSetBytes: fusion.WorkingSetBytes(features, ws),
	}
	m := &Model{Features: features, Candidates: make([][]sched.Schedule, len(features))}
	for f := range features {
		m.Candidates[f] = sched.AutoCandidates(&ws[f], dev, l2, opts)
		if len(m.Candidates[f]) == 0 {
			return nil, fmt.Errorf("tuner: automatic search found no candidates for feature %d (%s)", f, features[f].Name)
		}
	}
	return m, nil
}

// Warm seeds a re-tune from an incumbent tuning result (typically the
// outgoing generation of a continuous-serving hot swap). The parallel engine
// measures the incumbent occupancy first in the global stage, so every other
// occupancy can stop measuring as soon as its partial latency sum proves it
// cannot beat the incumbent. An incumbent occupancy outside the sweep leaves
// nothing to measure first, and the search runs cold.
type Warm struct {
	// Occupancy is the incumbent blocks-per-SM value.
	Occupancy int
}

// WarmFrom derives a warm-start seed from a previous tuning result. A nil
// result yields a nil seed (cold start), so it is safe to call unguarded.
func WarmFrom(res *Result) *Warm {
	if res == nil {
		return nil
	}
	return &Warm{Occupancy: res.Occupancy}
}

// The fixed shape of the interference-simulated search.
const (
	// maxOccupancies bounds the derived occupancy list ("the count is often
	// less than ten").
	maxOccupancies = 8
	// paddingFactor scales the local stage's padded grid relative to one
	// full wave of resident blocks, so blocks experience both intra-SM and
	// successor contention.
	paddingFactor = 2
	// maxBlocksPerCandidate caps how many of a candidate's planned blocks
	// the local stage co-executes (stride-sampled; the score scales the
	// measured sum back to the full plan).
	maxBlocksPerCandidate = 16
)

// Options configures the tuner.
type Options struct {
	// Occupancies lists the blocks-per-SM values to try in the local
	// stage. Nil derives every achievable level from the model's widest
	// block, thinned to at most maxOccupancies values.
	Occupancies []int

	// Parallelism is the number of concurrent feature-tuning workers
	// (default GOMAXPROCS).
	Parallelism int

	// Warm seeds the search from an incumbent result; see Warm. Nil means
	// a cold search. Ignored by TuneSerial.
	Warm *Warm

	// Memo, when non-nil, serves repeated local- and global-stage
	// simulations from a shared cache instead of re-simulating. Hits are
	// bit-identical to fresh simulations, so a memoized run returns
	// exactly the cold-run Result. The cache is concurrency-safe and
	// meant to be shared across occupancies, batches, successive re-tunes
	// and fleet models. Ignored by TuneSerial.
	Memo *Memo

	// Serial routes Tune to TuneSerial, the frozen reference engine
	// (exhaustive two-stage search, serial global stage, no warm start,
	// no memoization). Useful for A/B measurements against the
	// fleet-speed engine.
	Serial bool
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.Parallelism <= 0 {
		out.Parallelism = runtime.GOMAXPROCS(0)
	}
	return out
}

// OccupancyResult records the outcome of one global-stage trial.
type OccupancyResult struct {
	BlocksPerSM int
	ChoiceIdx   []int
	Latency     float64 // summed fused latency over tuning batches, seconds
	// Abandoned marks a warm-started trial that stopped measuring early:
	// its partial latency sum already exceeded the incumbent's complete
	// latency, so the occupancy cannot win and Latency holds the partial
	// sum (a lower bound on the true value). Always false without
	// Options.Warm. Abandoned trials sort after complete ones.
	Abandoned bool
}

// Result is the tuner's output.
type Result struct {
	// Choices[f] is the selected schedule of feature f.
	Choices []sched.Schedule
	// ChoiceIdx[f] is its index within Candidates[f].
	ChoiceIdx []int
	// Occupancy is the selected blocks-per-SM value.
	Occupancy int
	// Latency is the fused-kernel latency sum over the tuning batches at
	// the selected occupancy.
	Latency float64
	// PerOccupancy holds every global-stage trial, best first.
	PerOccupancy []OccupancyResult
}

// analyzeBatches runs the host-side workload analysis once per batch, shared
// by all tuning workers.
func analyzeBatches(dev *gpusim.Device, model *Model, batches []*embedding.Batch) ([][]sched.Workload, []sched.L2Context, error) {
	ws := make([][]sched.Workload, len(batches))
	l2 := make([]sched.L2Context, len(batches))
	for bi, b := range batches {
		w, err := fusion.AnalyzeBatch(model.Features, b)
		if err != nil {
			return nil, nil, err
		}
		ws[bi] = w
		l2[bi] = sched.L2Context{
			CacheBytes:      float64(dev.L2SizeBytes),
			WorkingSetBytes: fusion.WorkingSetBytes(model.Features, w),
		}
	}
	return ws, l2, nil
}

// TuneSerial runs the reference two-stage interference-simulated search over
// the historical batches (Equation 5: the winner minimizes summed time over
// sampled data). It is the pre-fleet-speed engine, kept verbatim in behavior:
// exhaustive local stage, one occupancy at a time in the global stage, and
// neither fleet-speed option (Warm, Memo) honored. Tune is pinned
// bit-identical to this function by the equivalence property tests, which is
// what licenses the fast path.
func TuneSerial(dev *gpusim.Device, model *Model, batches []*embedding.Batch, opts Options) (*Result, error) {
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

	// Padding pool: redundant embedding operations over the whole model's
	// workloads (planned with a neutral schedule). Filling SMs with these
	// blocks reproduces the fused kernel's mixed SM-level and grid-level
	// traffic — light one-hot blocks and heavy multi-hot blocks alike —
	// rather than oversaturating the device with copies of the feature
	// under tuning.
	pool, err := paddingPool(dev, model, ws, l2)
	if err != nil {
		return nil, err
	}

	// Local stage: per-occupancy, per-feature interference-simulated
	// tuning, parallel across (occupancy, feature) pairs. runJobs cancels
	// outstanding work on the first failure and reports the failed job
	// with the lowest (occupancy, feature) index deterministically.
	perOcc := make([][]int, len(occupancies)) // [k][f] -> candidate index
	for k := range perOcc {
		perOcc[k] = make([]int, len(model.Features))
	}
	// Atomic because several features of one occupancy may prove it
	// infeasible concurrently.
	infeasibleOcc := make([]atomic.Bool, len(occupancies))
	nf := len(model.Features)
	err = runJobs(len(occupancies)*nf, o.Parallelism, func(i int) error {
		k, f := i/nf, i%nf
		idx, err := tuneFeature(dev, model, f, occupancies[k], warpsPerBlock, ws, l2, pool, nil, nil)
		switch {
		case errors.Is(err, errInfeasible):
			// A feature that cannot meet this occupancy rules the
			// occupancy out globally.
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

	// Global stage: measure the fused kernel per occupancy.
	res := &Result{}
	for k, occ := range occupancies {
		if infeasibleOcc[k].Load() {
			continue
		}
		choices := choicesFor(model, perOcc[k])
		total := 0.0
		ok := true
		for _, b := range batches {
			fu, err := fusion.Compile(dev, model.Features, choices, b, fusion.Options{TargetBlocksPerSM: occ})
			if err != nil {
				ok = false
				break
			}
			r, err := fu.Simulate()
			if err != nil {
				return nil, fmt.Errorf("tuner: global stage occupancy %d: %w", occ, err)
			}
			total += r.Time
		}
		if !ok {
			continue
		}
		res.PerOccupancy = append(res.PerOccupancy, OccupancyResult{
			BlocksPerSM: occ,
			ChoiceIdx:   append([]int(nil), perOcc[k]...),
			Latency:     total,
		})
	}
	return finishResult(model, res)
}

// finishResult orders the global-stage trials (complete trials first, then by
// latency) and adopts the winner. Abandoned trials carry partial latency
// sums that already exceed the incumbent's complete latency, so they can
// never win; sorting them last keeps PerOccupancy readable.
func finishResult(model *Model, res *Result) (*Result, error) {
	if len(res.PerOccupancy) == 0 {
		return nil, fmt.Errorf("tuner: no feasible occupancy value")
	}
	sort.Slice(res.PerOccupancy, func(i, j int) bool {
		a, b := &res.PerOccupancy[i], &res.PerOccupancy[j]
		if a.Abandoned != b.Abandoned {
			return !a.Abandoned
		}
		return a.Latency < b.Latency
	})
	best := res.PerOccupancy[0]
	if best.Abandoned {
		return nil, fmt.Errorf("tuner: no feasible occupancy value")
	}
	res.Occupancy = best.BlocksPerSM
	res.ChoiceIdx = best.ChoiceIdx
	res.Latency = best.Latency
	res.Choices = choicesFor(model, best.ChoiceIdx)
	return res, nil
}

// choicesFor maps candidate indices to schedules.
func choicesFor(model *Model, idx []int) []sched.Schedule {
	out := make([]sched.Schedule, len(idx))
	for f, i := range idx {
		out[f] = model.Candidates[f][i]
	}
	return out
}

// occupancyCandidates derives the K occupancy levels to sweep from the
// model's widest candidate block.
func occupancyCandidates(dev *gpusim.Device, model *Model, o Options) ([]int, int, error) {
	maxThreads := 0
	for f := range model.Candidates {
		for _, s := range model.Candidates[f] {
			if t := s.Resources(model.Features[f].Dim).ThreadsPerBlock; t > maxThreads {
				maxThreads = t
			}
		}
	}
	if maxThreads == 0 {
		return nil, 0, fmt.Errorf("tuner: candidates declare no threads")
	}
	warps := (maxThreads + dev.WarpSize - 1) / dev.WarpSize
	if len(o.Occupancies) > 0 {
		return o.Occupancies, warps, nil
	}
	levels := gpusim.OccupancyLevels(dev, warps)
	if len(levels) > maxOccupancies {
		// Thin evenly, always keeping the extremes.
		thinned := make([]int, 0, maxOccupancies)
		step := float64(len(levels)-1) / float64(maxOccupancies-1)
		for i := 0; i < maxOccupancies; i++ {
			thinned = append(thinned, levels[int(float64(i)*step+0.5)])
		}
		levels = thinned
	}
	return levels, warps, nil
}
