package tuner

import (
	"errors"
	"fmt"
	"math"
	"slices"
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
// This is the fleet-speed engine, an exact branch-and-bound over
// occupancies. It rules out the occupancies that no simulation could rescue,
// and then sweeps the rest in order: the Options.Warm incumbent first, then
// the others in list order (ascending when derived). Each occupancy runs its
// local stage, one job per feature on a shared worker pool
// (Options.Parallelism), then its global stage; the global stages run one at
// a time in sweep order. L*, the best fused latency measured at an occupancy
// earlier in the sweep, prunes the later ones twice:
//
//   - Before each feature job and before the global stage, the occupancy's
//     bound — per batch, the longest block any already-chosen schedule puts
//     into the fused kernel (fusion.FeatureBound), summed over batches — is
//     compared with L*; once it exceeds L*·(1+boundMargin), the occupancy
//     starts no further job and is abandoned.
//   - Without a memo, the global stage steps one fused simulation per batch
//     and abandons them once the sum of their simulated clocks exceeds L*.
//
// Both tests prove that the occupancy's fused latency exceeds L*, so it
// cannot win, and the selection is TuneSerial's. A feature job also stops
// simulating once its winning schedule is provable from gpusim's tag bounds
// (tuneFeatureBounded), with or without a memo. With Options.Memo, each
// feature job's decision and each global-stage simulation, which then runs
// to the end, are cached for later re-tunes; hits are bit-identical to fresh
// runs.
//
// Result.PerOccupancy does not depend on which jobs ran, so it is the same
// for any Parallelism: see OccupancyResult. Nor do plan errors, which are
// found before the sweep (the lowest failing feature's is returned), or
// global-stage errors, which follow the sweep order; a local-stage
// simulation error surfaces only if its job runs, which at Parallelism > 1
// can depend on timing. Options.Serial forces the reference engine.
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

	s := &sweep{
		dev: dev, model: model, batches: batches, occupancies: occupancies,
		warps: warpsPerBlock, ws: ws, l2: l2, pool: pool, memo: o.Memo, best: math.Inf(1),
	}
	if o.Memo != nil {
		s.fps = newFingerprints(dev, model, ws, l2)
	}
	if err := s.prepare(o); err != nil {
		return nil, err
	}
	nf := len(model.Features)
	err = runJobs(len(occupancies)*nf, o.Parallelism, func(i int) error {
		if err := s.featureJob(s.order[i/nf], i%nf); err != nil {
			return err
		}
		return s.advance()
	})
	if err != nil {
		return nil, err
	}
	return finishResult(model, s.result())
}

// sweep is one Tune call's branch-and-bound state. The fields above mu are
// fixed before the sweep starts, apart from the plans, which are made on
// first use; those below it change as jobs finish.
type sweep struct {
	dev         *gpusim.Device
	model       *Model
	batches     []*embedding.Batch
	occupancies []int
	warps       int
	ws          [][]sched.Workload
	l2          []sched.L2Context
	pool        [][]gpusim.BlockWork
	memo        *Memo
	fps         *fingerprints

	order      []int           // sweep position -> occupancy index
	envs       [][]*featureEnv // [k][f], nil when feature f cannot meet occupancy k
	fits       [][]bool        // [f][ci] candidate ci fits some occupancy
	plans      [][]lazyPlans   // [f][bi]
	infeasible []bool          // [k] ruled out before the sweep
	widths     []int           // every candidate's block width

	mu     sync.Mutex
	trials []trial // [k]
	next   int     // sweep position of the first occupancy not yet settled
	best   float64 // L*: the best latency measured before position next
}

// trial is one occupancy's progress through the sweep.
type trial struct {
	choice    []int     // [f] local-stage winners
	left      int       // feature jobs not yet finished
	bound     []float64 // [bi] longest chosen block's bound (fusion.FeatureBound)
	pruned    bool      // proven to lose; starts no further job
	dropped   bool      // fused kernel failed to compile
	measuring bool      // global stage started
	measured  bool      // latency holds the exact fused latency
	latency   float64
}

// lazyPlans holds one feature's plans of one batch's workload, made on
// first use and then shared by every occupancy. With a memo, a re-tune whose
// simulations all hit never makes them.
type lazyPlans struct {
	once sync.Once
	set  *planSet
	err  error
}

// plansOf returns feature f's plans of batch bi: one per candidate that fits
// some occupancy and supports the workload.
func (s *sweep) plansOf(f, bi int) (*planSet, error) {
	lp := &s.plans[f][bi]
	lp.once.Do(func() {
		lp.set, lp.err = planCandidates(s.dev, s.model.Candidates[f], s.fits[f], &s.ws[bi][f], s.l2[bi])
	})
	return lp.set, lp.err
}

// prepare fixes the sweep order and rules out the occupancies the sweep need
// not visit: those at which some feature has no candidate that fits
// (newFeatureEnv) or no candidate with a runnable block in some batch. Both
// checks need no simulation, so plan errors and ruled-out occupancies never
// depend on which jobs a prune later skips.
func (s *sweep) prepare(o Options) error {
	nk, nf, nb := len(s.occupancies), len(s.model.Features), len(s.batches)
	warm := -1
	if o.Warm != nil {
		warm = slices.Index(s.occupancies, o.Warm.Occupancy)
	}
	if warm >= 0 {
		s.order = append(s.order, warm)
	}
	for k := range s.occupancies {
		if k != warm {
			s.order = append(s.order, k)
		}
	}

	s.envs = make([][]*featureEnv, nk)
	for k := range s.envs {
		s.envs[k] = make([]*featureEnv, nf)
	}
	s.fits = make([][]bool, nf)
	s.plans = make([][]lazyPlans, nf)
	for f := range s.plans {
		s.plans[f] = make([]lazyPlans, nb)
	}
	infeasible := make([]atomic.Bool, nk)
	err := runJobs(nf, o.Parallelism, func(f int) error {
		return s.checkFeature(f, infeasible)
	})
	if err != nil {
		return err
	}
	s.infeasible = make([]bool, nk)
	for k := range infeasible {
		s.infeasible[k] = infeasible[k].Load()
	}

	for f := range s.model.Candidates {
		for _, c := range s.model.Candidates[f] {
			if t := c.Resources(s.model.Features[f].Dim).ThreadsPerBlock; !slices.Contains(s.widths, t) {
				s.widths = append(s.widths, t)
			}
		}
	}

	s.trials = make([]trial, nk)
	for k := range s.trials {
		s.trials[k] = trial{choice: make([]int, nf), left: nf, bound: make([]float64, nb)}
	}
	return nil
}

// checkFeature computes feature f's environment at every occupancy and
// marks the occupancies at which some batch has no runnable candidate. It
// reads which candidates can run from each batch's plans (a planInfo, which
// the memo caches in place of the plans). A failed plan is reported at the
// first occupancy its candidate fits, as TuneSerial's job there would
// report it.
func (s *sweep) checkFeature(f int, infeasible []atomic.Bool) error {
	first := make([]int, len(s.model.Candidates[f])) // first occupancy index the candidate fits, or -1
	for ci := range first {
		first[ci] = -1
	}
	for k, occ := range s.occupancies {
		env, err := newFeatureEnv(s.dev, s.model, f, occ, s.warps)
		if err != nil {
			infeasible[k].Store(true)
			continue
		}
		s.envs[k][f] = env
		for ci, ok := range env.feasible {
			if ok && first[ci] < 0 {
				first[ci] = k
			}
		}
	}
	fits := make([]bool, len(first))
	for ci, k := range first {
		fits[ci] = k >= 0
	}
	s.fits[f] = fits
	for bi := range s.batches {
		v, err := s.cached(func() string { return s.fps.planKey(f, bi, fits) }, func() (any, error) {
			ps, err := s.plansOf(f, bi)
			return ps.info(), err
		})
		info := v.(*planInfo)
		if err != nil {
			return fmt.Errorf("tuner: occupancy %d, feature %d (%s): %w",
				s.occupancies[first[info.failed]], f, s.model.Features[f].Name, err)
		}
		for k, env := range s.envs {
			if env[f] != nil && !env[f].runnable(info.runnable) {
				infeasible[k].Store(true)
			}
		}
	}
	return nil
}

// cached returns compute's value, served from the memo under key() when the
// sweep has one.
func (s *sweep) cached(key func() string, compute func() (any, error)) (any, error) {
	if s.memo == nil {
		return compute()
	}
	return s.memo.do(key(), compute)
}

// runnable reports whether some candidate that fits the environment's
// occupancy has a block to run (runnable[ci], see planInfo).
func (e *featureEnv) runnable(runnable []bool) bool {
	for ci, ok := range runnable {
		if ok && e.feasible[ci] {
			return true
		}
	}
	return false
}

// featureJob runs feature f's local stage at occupancy k, unless the
// occupancy is ruled out or proven to lose, and folds the winner's bound
// into the occupancy's. With a memo, the decision is served from it when an
// earlier tune made it over the same batches.
func (s *sweep) featureJob(k, f int) error {
	if s.infeasible[k] || !s.open(k) {
		return nil
	}
	occ := s.occupancies[k]
	v, err := s.cached(func() string { return s.fps.decisionKey(occ, s.warps, f) }, func() (any, error) {
		return s.decide(k, f)
	})
	if errors.Is(err, errInfeasible) {
		// Unreachable once prepare's checks pass: every batch has a
		// runnable candidate, whose score is finite. Drop the occupancy
		// as TuneSerial would.
		s.mu.Lock()
		s.trials[k].dropped = true
		s.mu.Unlock()
		return nil
	}
	if err != nil {
		return fmt.Errorf("tuner: occupancy %d, feature %d (%s): %w", occ, f, s.model.Features[f].Name, err)
	}
	d := v.(*decision)
	s.mu.Lock()
	defer s.mu.Unlock()
	t := &s.trials[k]
	t.choice[f] = d.winner
	for bi, b := range d.bounds {
		t.bound[bi] = max(t.bound[bi], b)
	}
	t.left--
	return nil
}

// decide runs feature f's bounded local stage at occupancy k and bounds the
// winner's blocks in every batch's fused kernel (fusion.FeatureBound).
func (s *sweep) decide(k, f int) (*decision, error) {
	occ := s.occupancies[k]
	plans := make([][]*sched.Plan, len(s.batches))
	for bi := range plans {
		ps, _ := s.plansOf(f, bi) // made without error by prepare
		plans[bi] = ps.plans
	}
	idx, err := tuneFeatureBounded(s.dev, s.envs[k][f], occ, plans, s.pool)
	if err != nil {
		return nil, err
	}
	d := &decision{winner: idx, bounds: make([]float64, len(plans))}
	for bi := range plans {
		// A winner that cannot compile in a batch bounds nothing there:
		// its occupancy is dropped if the global stage starts.
		if p := plans[bi][idx]; p != nil {
			d.bounds[bi] = fusion.FeatureBound(s.dev, s.model.Features[f].Dim, s.model.Candidates[f][idx], p, occ, s.widths)
		}
	}
	return d, nil
}

// open reports whether occupancy k may start another job: it is not dropped
// and its bound does not prove it loses to L*. A failed check prunes the
// occupancy for good.
//
// L* is the best latency measured at a position before next, and measuring
// happens only at next (advance), so for an occupancy that has not settled
// it is exactly the best latency measured earlier in the sweep: every prune
// is decided against a value the sequential sweep would also have known,
// whatever order the jobs finish in.
func (s *sweep) open(k int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := &s.trials[k]
	if t.pruned || t.dropped {
		return false
	}
	sum := 0.0
	for _, b := range t.bound {
		sum += b
	}
	if sum > s.best*(1+boundMargin) {
		t.pruned = true
		return false
	}
	return true
}

// advance settles occupancies in sweep order. The occupancy at position next
// settles at once when it is ruled out, pruned or dropped, and otherwise
// when its global stage ends; that stage starts once its local stage has
// finished, in whichever job finishes the later of the two. So each global
// stage, and the check that decides whether it starts, sees the final L*:
// whether an occupancy is measured, and the fused-compile failure that
// drops it, never depends on timing.
func (s *sweep) advance() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.next < len(s.order) {
		k := s.order[s.next]
		t := &s.trials[k]
		if !s.infeasible[k] && !t.pruned && !t.dropped {
			if t.left > 0 || t.measuring {
				return nil
			}
			t.measuring = true
			limit := s.best
			s.mu.Unlock()
			err := s.globalStage(k, limit)
			s.mu.Lock()
			if err != nil {
				return err // the occupancy never settles; the sweep is cancelled
			}
			if t.measured {
				s.best = min(s.best, t.latency)
			}
		}
		s.next++
	}
	return nil
}

// globalStage measures occupancy k's fused kernel on every batch, unless
// its bound proves it loses to limit, the final L*. A fused-compile failure
// drops the occupancy, as in TuneSerial. With a memo, each batch's compile
// and simulation runs to the end and is cached, so a later re-tune that
// reaches the same choices over the same batch reuses it; without one, the
// simulations are stepped and may be abandoned (stepFused).
func (s *sweep) globalStage(k int, limit float64) error {
	if !s.open(k) {
		return nil
	}
	occ := s.occupancies[k]
	choice := s.trials[k].choice
	choices := choicesFor(s.model, choice)
	compile := func(b *embedding.Batch) (*fusion.Fused, error) {
		return fusion.Compile(s.dev, s.model.Features, choices, b, fusion.Options{TargetBlocksPerSM: occ})
	}
	drop := func() error {
		s.mu.Lock()
		s.trials[k].dropped = true
		s.mu.Unlock()
		return nil
	}
	times := make([]float64, len(s.batches))
	if s.memo != nil {
		for bi, b := range s.batches {
			v, err := s.memo.do(s.fps.globalKey(occ, bi, choice), func() (any, error) {
				fu, err := compile(b)
				if err != nil {
					// A result, not an error: see drop.
					return &globalScore{skip: true}, nil
				}
				r, err := fu.Simulate()
				if err != nil {
					return nil, err
				}
				return &globalScore{time: r.Time}, nil
			})
			if err != nil {
				return fmt.Errorf("tuner: global stage occupancy %d: %w", occ, err)
			}
			g := v.(*globalScore)
			if g.skip {
				return drop()
			}
			times[bi] = g.time
		}
	} else {
		sims := make([]*gpusim.Simulator, len(s.batches))
		for bi, b := range s.batches {
			fu, err := compile(b)
			if err != nil {
				return drop()
			}
			sims[bi] = gpusim.NewSimulator()
			if err := sims[bi].Start(s.dev, &fu.Kernel); err != nil {
				return fmt.Errorf("tuner: global stage occupancy %d: %w", occ, err)
			}
		}
		done, err := stepFused(sims, times, limit)
		if err != nil {
			return fmt.Errorf("tuner: global stage occupancy %d: %w", occ, err)
		}
		if !done {
			return nil
		}
	}
	total := 0.0
	for _, t := range times {
		total += t
	}
	s.mu.Lock()
	s.trials[k].measured = true
	s.trials[k].latency = total
	s.mu.Unlock()
	return nil
}

// stepFused runs one started fused simulation per batch, always advancing
// the one furthest behind in simulated time, and stores each one's Time in
// times. Every boundInterval steps it compares the sum of their clocks
// (finished batches count their Time) with limit. Each clock only grows
// towards its kernel's Time, and the latency sums the Times in the same
// batch order, so a sum above limit proves the latency is too: stepFused
// then stops and reports false.
func stepFused(sims []*gpusim.Simulator, times []float64, limit float64) (bool, error) {
	for steps := 1; ; steps++ {
		bi := -1
		for b, sim := range sims {
			if sim != nil && (bi < 0 || sim.Now() < sims[bi].Now()) {
				bi = b
			}
		}
		if bi < 0 {
			return true, nil
		}
		more, err := sims[bi].Step()
		if err != nil {
			return false, err
		}
		if !more {
			times[bi] = sims[bi].Result().Time
			sims[bi] = nil
		}
		if steps%boundInterval != 0 {
			continue
		}
		clock := 0.0
		for b, sim := range sims {
			if sim != nil {
				clock += sim.Now()
			} else {
				clock += times[b]
			}
		}
		if clock > limit {
			return false, nil
		}
	}
}

// result lists the sweep's trials in occupancy order under the
// OccupancyResult contract: walking the sweep order, an occupancy whose
// latency is at most the best latency before it is complete, and every
// other occupancy that was not ruled out or dropped is abandoned with that
// best as its Latency. A pruned or abandoned occupancy was proven to exceed
// L*, which is never below that best, so the walk gives the same trials
// whichever jobs ran.
func (s *sweep) result() *Result {
	out := make([]*OccupancyResult, len(s.occupancies))
	best := math.Inf(1)
	for _, k := range s.order {
		t := &s.trials[k]
		if s.infeasible[k] || t.dropped {
			continue
		}
		r := &OccupancyResult{BlocksPerSM: s.occupancies[k], Latency: best, Abandoned: true}
		if t.measured && t.latency <= best {
			best = t.latency
			r = &OccupancyResult{BlocksPerSM: s.occupancies[k], ChoiceIdx: t.choice, Latency: best}
		}
		out[k] = r
	}
	res := &Result{}
	for _, r := range out {
		if r != nil {
			res.PerOccupancy = append(res.PerOccupancy, *r)
		}
	}
	return res
}

// jobFailed, when set, runs each time runJobs has recorded a failed job and
// stopped dispatching. Tests use it to hold later jobs until then; it is nil
// otherwise.
var jobFailed func()

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
					if jobFailed != nil {
						jobFailed()
					}
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
