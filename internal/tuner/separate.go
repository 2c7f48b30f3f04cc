package tuner

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/embedding"
	"repro/internal/fusion"
	"repro/internal/gpusim"
	"repro/internal/sched"
)

// SeparateCombine is the straw-man tuner of §II-C: each feature's candidates
// are measured in isolation — a separate, non-padded kernel per candidate at
// its natural occupancy, with a per-feature (rather than grid-level) cache
// estimate — and the per-feature winners are combined into one fused kernel.
// It ignores inter-feature interference entirely, which is exactly why the
// paper's Figure 11 shows it losing to the two-stage tuner.
func SeparateCombine(dev *gpusim.Device, model *Model, batches []*embedding.Batch, opts Options) (*Result, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	if len(batches) == 0 {
		return nil, fmt.Errorf("tuner: no historical batches")
	}
	o := opts.withDefaults()

	ws := make([][]sched.Workload, len(batches))
	for bi, b := range batches {
		w, err := fusion.AnalyzeBatch(model.Features, b)
		if err != nil {
			return nil, err
		}
		ws[bi] = w
	}

	choiceIdx := make([]int, len(model.Features))
	jobs := make(chan int)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for w := 0; w < o.Parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for f := range jobs {
				idx, err := tuneFeatureSeparate(dev, model, f, ws)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("tuner: separate-combine feature %d (%s): %w", f, model.Features[f].Name, err)
				}
				choiceIdx[f] = idx
				mu.Unlock()
			}
		}()
	}
	for f := range model.Features {
		jobs <- f
	}
	close(jobs)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}

	// Combine: fuse the winners at natural occupancy and measure.
	choices := choicesFor(model, choiceIdx)
	total := 0.0
	for _, b := range batches {
		fu, err := fusion.Compile(dev, model.Features, choices, b, fusion.Options{})
		if err != nil {
			return nil, err
		}
		r, err := fu.Simulate()
		if err != nil {
			return nil, err
		}
		total += r.Time
	}
	return &Result{
		Choices:   choices,
		ChoiceIdx: choiceIdx,
		Occupancy: 0, // natural
		Latency:   total,
	}, nil
}

// tuneFeatureSeparate picks the candidate with the lowest isolated kernel
// latency, the "lower separate latencies" criterion the paper warns about.
func tuneFeatureSeparate(dev *gpusim.Device, model *Model, f int, ws [][]sched.Workload) (int, error) {
	candidates := model.Candidates[f]
	best, bestScore := -1, math.Inf(1)
	// One reused simulator across candidates: only the scalar Time is read
	// from each run.
	sim := gpusim.NewSimulator()
	for ci, s := range candidates {
		total := 0.0
		supported := false
		for bi := range ws {
			w := &ws[bi][f]
			if !s.Supports(w) {
				break
			}
			supported = true
			// Naive per-feature cache view: the feature alone on the GPU.
			naiveL2 := sched.L2Context{
				CacheBytes:      float64(dev.L2SizeBytes),
				WorkingSetBytes: float64(w.UniqueRows) * w.RowBytes(),
			}
			p, err := s.Plan(w, dev, naiveL2)
			if err != nil {
				return 0, err
			}
			res := s.Resources(model.Features[f].Dim)
			k := &gpusim.Kernel{
				Name:                  fmt.Sprintf("sep_f%d_c%d", f, ci),
				Resources:             res,
				Blocks:                p.Blocks,
				IncludeLaunchOverhead: true,
			}
			r, err := sim.Run(dev, k)
			if err != nil {
				return 0, err
			}
			total += r.Time
		}
		if !supported {
			continue
		}
		if total < bestScore {
			best, bestScore = ci, total
		}
	}
	if best < 0 {
		return 0, fmt.Errorf("no supported candidate")
	}
	return best, nil
}
