package tuner

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/gpusim"
	"repro/internal/sched"
)

// errInfeasible marks an occupancy value no candidate of a feature can meet
// (e.g. the shared-memory budget is too small). The global stage skips such
// occupancies.
var errInfeasible = errors.New("tuner: occupancy infeasible for feature")

// paddingPool plans the whole model's workloads under a neutral schedule,
// one pool per batch. The local stage draws its padding blocks from here so
// the simulated interference matches the fused kernel's real traffic mix.
func paddingPool(dev *gpusim.Device, model *Model, ws [][]sched.Workload, l2 []sched.L2Context) ([][]gpusim.BlockWork, error) {
	neutral := sched.SubWarp{Threads: 256, Lanes: 32, Vec: 1, UnrollRows: 1}
	pool := make([][]gpusim.BlockWork, len(ws))
	for bi := range ws {
		var blocks []gpusim.BlockWork
		for f := range model.Features {
			w := &ws[bi][f]
			if !neutral.Supports(w) {
				continue
			}
			p, err := neutral.Plan(w, dev, l2[bi])
			if err != nil {
				return nil, fmt.Errorf("tuner: padding pool feature %d: %w", f, err)
			}
			for i := range p.Blocks {
				b := p.Blocks[i]
				b.Tag = -1
				blocks = append(blocks, b)
			}
		}
		if len(blocks) == 0 {
			return nil, fmt.Errorf("tuner: empty padding pool for batch %d", bi)
		}
		pool[bi] = blocks
	}
	return pool, nil
}

// featureEnv is the once-per-(feature, occupancy) precomputation of the local
// stage: which candidates fit the occupancy's register and shared-memory
// budgets, how many registers each spills, and the occupancy-controlled
// kernel resources the co-execution kernel runs under.
type featureEnv struct {
	f          int
	candidates []sched.Schedule
	feasible   []bool
	spilled    []int
	controlled gpusim.KernelResources
}

// newFeatureEnv computes the environment of feature f at occupancy occ.
// Returns errInfeasible when no candidate fits or the occupancy cannot be
// pinned.
func newFeatureEnv(dev *gpusim.Device, model *Model, f, occ, warpsPerBlock int) (*featureEnv, error) {
	candidates := model.Candidates[f]
	kernelThreads := warpsPerBlock * dev.WarpSize
	regBudget := dev.RegistersPerSM / (occ * kernelThreads)
	if regBudget < 1 {
		regBudget = 1
	}
	if regBudget > dev.MaxRegsPerThread {
		regBudget = dev.MaxRegsPerThread
	}
	smemBudget := dev.SharedMemPerSM / occ

	e := &featureEnv{
		f:          f,
		candidates: candidates,
		feasible:   make([]bool, len(candidates)),
		spilled:    make([]int, len(candidates)),
	}
	anyFeasible := false
	maxSmem := 0 // max shared memory over feasible candidates
	for ci, s := range candidates {
		r := s.Resources(model.Features[f].Dim)
		feasible := r.SharedMemPerBlock <= smemBudget
		e.feasible[ci] = feasible
		if r.RegsPerThread > regBudget {
			e.spilled[ci] = r.RegsPerThread - regBudget
		}
		if feasible {
			anyFeasible = true
			if r.SharedMemPerBlock > maxSmem {
				maxSmem = r.SharedMemPerBlock
			}
		}
	}
	if !anyFeasible {
		return nil, errInfeasible
	}

	res := gpusim.KernelResources{
		ThreadsPerBlock:   kernelThreads,
		RegsPerThread:     regBudget,
		SharedMemPerBlock: maxSmem,
	}
	controlled, _, err := res.ControlOccupancy(dev, occ)
	if err != nil {
		return nil, errInfeasible
	}
	e.controlled = controlled
	return e, nil
}

// planSet is one feature's plans of one batch's workload: plans[ci] is
// candidate ci's plan, nil when the candidate was not planned. When planning
// failed, failed names the candidate that failed.
type planSet struct {
	plans  []*sched.Plan
	failed int
}

// info summarizes the set for the memo (planInfo).
func (ps *planSet) info() *planInfo {
	in := &planInfo{runnable: make([]bool, len(ps.plans)), failed: ps.failed}
	for ci, p := range ps.plans {
		in.runnable[ci] = p != nil && p.NumBlocks > 0
	}
	return in
}

// planCandidates plans workload w under every candidate marked in want that
// supports it; plans[ci] stays nil for the rest. On failure, the returned set
// names the failed candidate.
func planCandidates(dev *gpusim.Device, candidates []sched.Schedule, want []bool, w *sched.Workload, l2 sched.L2Context) (*planSet, error) {
	ps := &planSet{plans: make([]*sched.Plan, len(candidates))}
	for ci, c := range candidates {
		if !want[ci] || !c.Supports(w) {
			continue
		}
		p, err := c.Plan(w, dev, l2)
		if err != nil {
			ps.failed = ci
			return ps, fmt.Errorf("planning %s: %w", c.Name(), err)
		}
		ps.plans[ci] = p
	}
	return ps, nil
}

// batchKernel builds the co-execution kernel of the feature's feasible
// candidates for one batch under controlled occupancy, padded from the pool.
// plans[ci] is candidate ci's plan of the batch's workload, nil when the
// candidate does not support it. Each candidate's plan is stride-sampled
// down to at most maxBlocksPerCandidate blocks: co-executing a representative
// subset keeps the kernel small while the sum of block times stays an
// unbiased estimate of Equation 3. Candidate ci's blocks carry tag ci and its
// register spill; scale[ci] maps their sampled block-time sum back to the
// full plan (0 for a candidate absent from the batch) and counted[ci] reports
// whether it ran. k is nil when no candidate produced a runnable block, which
// rules the occupancy out for this feature.
func (e *featureEnv) batchKernel(dev *gpusim.Device, occ int, plans []*sched.Plan,
	pad []gpusim.BlockWork) (k *gpusim.Kernel, scale []float64, counted []bool) {

	scale = make([]float64, len(e.candidates))
	counted = make([]bool, len(e.candidates))
	var blocks []gpusim.BlockWork
	for ci, p := range plans {
		if !e.feasible[ci] || p == nil {
			continue
		}
		stride := 1
		if p.NumBlocks > maxBlocksPerCandidate {
			stride = (p.NumBlocks + maxBlocksPerCandidate - 1) / maxBlocksPerCandidate
		}
		sampled := 0
		for i := 0; i < p.NumBlocks; i += stride {
			b := p.Blocks[i]
			gpusim.ChargeSpill(dev, &b, e.spilled[ci])
			b.Tag = ci
			blocks = append(blocks, b)
			sampled++
		}
		scale[ci] = float64(p.NumBlocks) / float64(sampled)
		counted[ci] = true
	}
	if len(blocks) == 0 {
		return nil, scale, counted
	}
	// Pad with redundant embedding operations drawn from the model's full
	// workload mix so the SMs are full and grid-level memory pressure
	// matches the fused kernel's.
	padTarget := int(float64(dev.ParallelBlockSlots(occ)) * paddingFactor)
	for i := 0; len(blocks) < padTarget; i++ {
		blocks = append(blocks, pad[i%len(pad)])
	}
	k = &gpusim.Kernel{
		Name:                fmt.Sprintf("local_f%d_occ%d", e.f, occ),
		Resources:           e.controlled,
		Blocks:              blocks,
		BlocksPerSMOverride: occ,
	}
	return k, scale, counted
}

// tuneFeature runs the interference-simulated per-feature tuning of the
// local stage (the paper's Figure 7) the way TuneSerial does: all candidates
// of feature f are co-executed in one kernel under explicitly controlled
// occupancy, the grid is padded with redundant embedding blocks to fill the
// SMs, and the candidate with the lowest summed block time across the
// historical batches wins (argminCounted). Every candidate is planned for
// this occupancy alone and every simulation runs to completion. A batch in
// which no candidate ran rules the occupancy out for the feature.
func tuneFeature(dev *gpusim.Device, model *Model, f, occ, warpsPerBlock int,
	ws [][]sched.Workload, l2 []sched.L2Context, pool [][]gpusim.BlockWork) (int, error) {

	env, err := newFeatureEnv(dev, model, f, occ, warpsPerBlock)
	if err != nil {
		return 0, err
	}
	// One reused simulator across the tuning batches: each iteration only
	// reads TagTime before the next Run overwrites the result.
	sim := gpusim.NewSimulator()
	scores := make([]float64, len(env.candidates))
	counted := make([]bool, len(env.candidates))
	for bi := range ws {
		ps, err := planCandidates(dev, env.candidates, env.feasible, &ws[bi][f], l2[bi])
		if err != nil {
			return 0, err
		}
		k, scale, ran := env.batchKernel(dev, occ, ps.plans, pool[bi])
		if k == nil {
			return 0, errInfeasible
		}
		r, err := sim.Run(dev, k)
		if err != nil {
			return 0, err
		}
		// The Equation 3 term of each candidate, scaled back to its full
		// plan, is rounded before it is added (no fused multiply-add), and
		// the batches are added in order: localBounds.sums adds the same
		// way, so the bounded stage's exact scores equal these.
		for ci := range scores {
			scores[ci] += float64(r.TagTime[ci] * scale[ci])
			counted[ci] = counted[ci] || ran[ci]
		}
	}
	return argminCounted(scores, counted)
}

// argminCounted returns the counted candidate with the lowest score, ties to
// the lower index, or errInfeasible when no counted candidate has a score
// below +Inf.
func argminCounted(scores []float64, counted []bool) (int, error) {
	best, bestScore := -1, math.Inf(1)
	for ci := range scores {
		if counted[ci] && scores[ci] < bestScore {
			best, bestScore = ci, scores[ci]
		}
	}
	if best < 0 {
		return 0, errInfeasible
	}
	return best, nil
}

// Branch-and-bound constants of tuneFeatureBounded: how many simulation
// steps pass between checks of the stop rule, and the relative margin by
// which a finished candidate's score must undercut every rival's lower bound.
// The margin absorbs float rounding in the bounds (summed in another order
// than the scores), so a stop never depends on the last bits.
const (
	boundInterval = 16
	boundMargin   = 1e-9
)

// earlyStops counts bounded local-stage jobs that proved their winner before
// their simulations finished.
var earlyStops atomic.Int64

// tuneFeatureBounded selects the same candidate as tuneFeature, from the
// plans of the feature's workload in every batch (plans[bi][ci]), but stops
// simulating once the winner is provable. It starts one simulation per
// tuning batch and steps them in lockstep, always advancing
// the one furthest behind in simulated time (ties to the lower batch). Every
// boundInterval steps it collects each batch's gpusim TagBounds and stops
// when a candidate whose blocks have all retired — so its score is exact —
// scores below every other counted candidate's lower bound by boundMargin:
// that candidate is then the strict argmin tuneFeature would return. If no
// candidate is ever proven, the simulations finish and the exact argmin
// decides, ties to the lower index as in tuneFeature.
//
// It is Tune's only local stage. With a memo, Tune caches the decision it
// returns (see decisionKey), not the scores, which a stopped job never
// completes.
func tuneFeatureBounded(dev *gpusim.Device, env *featureEnv, occ int, plans [][]*sched.Plan,
	pool [][]gpusim.BlockWork) (int, error) {

	lb := newLocalBounds(len(plans), len(env.candidates))
	sims := make([]*gpusim.Simulator, len(plans))
	for bi := range plans {
		k, scale, counted := env.batchKernel(dev, occ, plans[bi], pool[bi])
		if k == nil {
			return 0, errInfeasible
		}
		sims[bi] = gpusim.NewSimulator()
		if err := sims[bi].Start(dev, k); err != nil {
			return 0, err
		}
		lb.scale[bi] = scale
		for ci, c := range counted {
			lb.counted[ci] = lb.counted[ci] || c
		}
	}

	// live[bi]: batch bi is still simulating; final[bi]: its run ended and
	// TagBounds has already read its exact TagTime.
	live := make([]bool, len(sims))
	final := make([]bool, len(sims))
	for bi := range live {
		live[bi] = true
	}
	for running, steps := len(sims), 1; running > 0; steps++ {
		bi := -1
		for b, sim := range sims {
			if live[b] && (bi < 0 || sim.Now() < sims[bi].Now()) {
				bi = b
			}
		}
		more, err := sims[bi].Step()
		if err != nil {
			return 0, err
		}
		if !more {
			live[bi] = false
			running--
		}
		if steps%boundInterval != 0 || running == 0 {
			continue
		}
		for b, sim := range sims {
			if !final[b] {
				sim.TagBounds(lb.lower[b], lb.pending[b])
				final[b] = !live[b]
			}
		}
		if w := lb.winner(); w >= 0 {
			earlyStops.Add(1)
			return w, nil
		}
	}
	for b, sim := range sims {
		sim.TagBounds(lb.lower[b], lb.pending[b])
	}
	lb.sums()
	return argminCounted(lb.sum, lb.counted)
}

// localBounds holds a bounded local-stage job's per-batch tag bounds and
// applies its stop rule.
type localBounds struct {
	lower   [][]float64 // [batch][candidate] TagBounds lower bound on TagTime
	pending [][]int     // [batch][candidate] blocks not yet retired
	scale   [][]float64 // [batch][candidate] full-plan scale, 0 when absent
	counted []bool      // candidate ran in at least one batch
	sum     []float64   // summed bound per candidate (see sums)
	done    []bool      // candidate has no pending block in any batch
}

func newLocalBounds(batches, candidates int) *localBounds {
	lb := &localBounds{
		lower:   make([][]float64, batches),
		pending: make([][]int, batches),
		scale:   make([][]float64, batches),
		counted: make([]bool, candidates),
		sum:     make([]float64, candidates),
		done:    make([]bool, candidates),
	}
	for bi := range lb.lower {
		lb.lower[bi] = make([]float64, candidates)
		lb.pending[bi] = make([]int, candidates)
	}
	return lb
}

// sums adds up each candidate's bound over the batches exactly the way
// tuneFeature adds up its score — 0 + TagTime×scale per batch, in batch order
// — so a done candidate's sum is bit-identical to its final score, and every
// other sum bounds its final score from below (up to rounding, which
// boundMargin covers).
func (lb *localBounds) sums() {
	for ci := range lb.sum {
		s, done := 0.0, true
		for bi := range lb.lower {
			s += float64(lb.lower[bi][ci] * lb.scale[bi][ci])
			done = done && lb.pending[bi][ci] == 0
		}
		lb.sum[ci], lb.done[ci] = s, done
	}
}

// winner returns the counted, done candidate whose exact score is below every
// other counted candidate's summed bound by the relative margin boundMargin,
// or -1 when no candidate is proven yet. Only the lowest done score can
// qualify (another done candidate's bound is its exact score), and an exact
// tie never does: it is left to the full runs and argminCounted.
func (lb *localBounds) winner() int {
	lb.sums()
	w := -1
	for ci, s := range lb.sum {
		if lb.counted[ci] && lb.done[ci] && (w < 0 || s < lb.sum[w]) {
			w = ci
		}
	}
	if w < 0 {
		return -1
	}
	limit := lb.sum[w] * (1 + boundMargin)
	for ci, s := range lb.sum {
		if ci != w && lb.counted[ci] && !(limit < s) {
			return -1
		}
	}
	return w
}
