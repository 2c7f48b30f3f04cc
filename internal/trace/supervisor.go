package trace

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// TimedServiceFunc returns the GPU service time of a request of the given
// size arriving at virtual time t. Time matters when the workload drifts:
// the same batch size retrieves more embedding rows after a pooling-factor
// shift, so a schedule set tuned before the shift serves it slower. A
// time-invariant workload can ignore t.
type TimedServiceFunc func(t float64, size int) (float64, error)

// Untimed adapts a plain ServiceFunc to the timed signature.
func Untimed(inner ServiceFunc) TimedServiceFunc {
	return func(_ float64, size int) (float64, error) { return inner(size) }
}

// MemoTimedService caches a timed service by (phase, size), where phaseOf
// collapses virtual time onto the workload's drift phases — e.g. the start
// time of the piecewise-constant drift step in effect at t — so one
// expensive kernel measurement per (phase, size) serves the whole trace.
// nil phaseOf means the workload is time-invariant and t is ignored.
// Same singleflight semantics as MemoService: safe for concurrent use, the
// inner measurement runs at most once per key, errors are memoized.
func MemoTimedService(inner TimedServiceFunc, phaseOf func(t float64) float64) TimedServiceFunc {
	type key struct {
		phase float64
		size  int
	}
	type entry struct {
		once sync.Once
		s    float64
		err  error
	}
	var mu sync.Mutex
	memo := make(map[key]*entry)
	return func(t float64, size int) (float64, error) {
		k := key{size: size}
		if phaseOf != nil {
			k.phase = phaseOf(t)
		}
		mu.Lock()
		e := memo[k]
		if e == nil {
			e = &entry{}
			memo[k] = e
		}
		mu.Unlock()
		e.once.Do(func() { e.s, e.err = inner(k.phase, size) })
		return e.s, e.err
	}
}

// WindowEntry is one admitted request in the supervisor's sliding window:
// what arrived and when, which is all a drift detector needs to reconstruct
// the recent workload (the batch content of a size at a time is
// deterministic in this system).
type WindowEntry struct {
	// Time is the request's arrival time in virtual seconds.
	Time float64
	// Size is the request's batch size.
	Size int
}

// DriftDetector inspects the sliding window of admitted requests and reports
// whether the workload has drifted far enough from the live schedule set's
// tuning-time profile that a re-tune is due. Serving callers back it with
// core.RecFlex.ShouldRetune over the window's batches.
type DriftDetector func(window []WindowEntry) (bool, error)

// Retuner builds the schedule set of the next generation from the recent
// window: the background tune. gen is the id the new generation will carry.
// It runs logically in the background — the supervisor books its simulated
// duration on a worker slot — but is invoked synchronously and must be
// deterministic for replays to be reproducible.
type Retuner func(gen int, window []WindowEntry) (TimedServiceFunc, error)

// Generation is one immutable schedule set installed in the serving loop.
type Generation struct {
	// ID is the generation counter: 0 for the initial tune, +1 per swap.
	ID int
	// Swapped is the virtual time this generation went live (0 for ID 0).
	Swapped float64
	// Service measures the fused kernel compiled with this generation's
	// schedules.
	Service TimedServiceFunc
}

// LiveSet publishes the serving loop's current schedule-set generation for
// concurrent readers. A hot-swap is a single atomic pointer store of an
// immutable Generation, so a reader can never observe a torn (ID, Service)
// pair, and IDs are strictly monotone: once a reader has seen generation g,
// no later read returns an older one. Writers are serialized internally;
// readers are lock-free.
type LiveSet struct {
	mu  sync.Mutex // serializes Swap
	cur atomic.Pointer[Generation]
}

// NewLiveSet creates a live set holding generation 0.
func NewLiveSet(service TimedServiceFunc) *LiveSet {
	l := &LiveSet{}
	l.cur.Store(&Generation{ID: 0, Service: service})
	return l
}

// Current returns the live generation. The returned value is immutable.
func (l *LiveSet) Current() *Generation { return l.cur.Load() }

// Swap atomically installs service as the next generation, live from virtual
// time at, and returns it. In-flight work holding the previous *Generation
// keeps using it — hot-swap never invalidates a schedule set mid-request.
func (l *LiveSet) Swap(service TimedServiceFunc, at float64) *Generation {
	l.mu.Lock()
	defer l.mu.Unlock()
	next := &Generation{ID: l.cur.Load().ID + 1, Swapped: at, Service: service}
	l.cur.Store(next)
	return next
}

// SupervisorConfig shapes the continuous serving loop.
type SupervisorConfig struct {
	// Server shapes the underlying engine (workers, queue, deadlines,
	// degradation policy).
	Server ServerConfig
	// Window is the sliding window length in admitted requests the drift
	// detector sees; 0 means 32.
	Window int
	// CheckEvery runs the drift detector every this many admissions once
	// the window is full; 0 means every Window admissions.
	CheckEvery int
	// TuneDuration is the simulated seconds a background re-tune occupies
	// its worker slot; 0 means 0.05 (50ms — roughly the paper's few-second
	// tuning budget scaled to the reproduction's microsecond kernels).
	TuneDuration float64
	// Cooldown is the minimum virtual time between a swap going live and
	// the next drift check; 0 disables the cooldown. A rollback arms the
	// same cooldown from the time its verdict lands.
	Cooldown float64
	// MaxRetunes caps the number of background tunes per run; 0 means
	// unlimited. Rollbacks do not count against the cap — they consume no
	// tune.
	MaxRetunes int
	// CanaryWindow enables the guarded-promotion canary: after a swap goes
	// live, the verdict is computed once this many requests admitted on the
	// new generation have completed. The baseline is the outgoing
	// generation's most recent CanaryWindow pre-swap completions. 0 leaves
	// the count-based closure off (promotions are unguarded unless
	// CanaryDuration is set).
	CanaryWindow int
	// CanaryDuration caps the canary window in virtual seconds after the
	// swap: when it expires the verdict is computed from the completions
	// seen so far (and the baseline covers the outgoing generation's
	// completions within the same span before the swap, when CanaryWindow
	// is 0). 0 disables the time cap. A canary still open when the trace
	// ends reaches no verdict and the promotion stands.
	CanaryDuration float64
	// RollbackMargin is the fractional degradation the canary tolerates:
	// the promotion is rolled back when the canary mean sojourn exceeds the
	// matched baseline mean by more than this factor (0 rolls back on any
	// measured degradation). Only meaningful with the canary enabled.
	RollbackMargin float64
}

// Validate checks the supervisor configuration.
func (c *SupervisorConfig) Validate() error {
	if err := c.Server.Validate(); err != nil {
		return err
	}
	switch {
	case c.Window < 0:
		return fmt.Errorf("trace: Window must be >= 0, got %d", c.Window)
	case c.CheckEvery < 0:
		return fmt.Errorf("trace: CheckEvery must be >= 0, got %d", c.CheckEvery)
	case !(c.TuneDuration >= 0):
		return fmt.Errorf("trace: TuneDuration must be >= 0, got %g", c.TuneDuration)
	case !(c.Cooldown >= 0):
		return fmt.Errorf("trace: Cooldown must be >= 0, got %g", c.Cooldown)
	case c.MaxRetunes < 0:
		return fmt.Errorf("trace: MaxRetunes must be >= 0, got %d", c.MaxRetunes)
	case c.CanaryWindow < 0:
		return fmt.Errorf("trace: CanaryWindow must be >= 0, got %d", c.CanaryWindow)
	case !(c.CanaryDuration >= 0):
		return fmt.Errorf("trace: CanaryDuration must be >= 0, got %g", c.CanaryDuration)
	case !(c.RollbackMargin >= 0):
		return fmt.Errorf("trace: RollbackMargin must be >= 0, got %g", c.RollbackMargin)
	}
	return nil
}

// canaryEnabled reports whether promotions are guarded.
func (c *SupervisorConfig) canaryEnabled() bool {
	return c.CanaryWindow > 0 || c.CanaryDuration > 0
}

func (c *SupervisorConfig) window() int {
	if c.Window == 0 {
		return 32
	}
	return c.Window
}

func (c *SupervisorConfig) checkEvery() int {
	if c.CheckEvery == 0 {
		return c.window()
	}
	return c.CheckEvery
}

func (c *SupervisorConfig) tuneDuration() float64 {
	if c.TuneDuration == 0 {
		return 0.05
	}
	return c.TuneDuration
}

// Supervisor is the continuous serving loop: the concurrent engine's replay
// plus online drift control. It watches a sliding window of admitted
// requests, runs the drift detector every CheckEvery admissions, launches a
// background re-tune on a simulated-GPU worker slot when drift is detected
// (serving keeps running on the remaining capacity), and hot-swaps the new
// schedule set in when the tune completes: admissions from the swap time on
// are served by the new generation, while earlier admissions — queued or in
// flight — finish on the generation they arrived under. Every swap is
// recorded in Metrics.Swaps with its generation id, tune duration and
// pre/post-swap latency split.
//
// With the canary guard enabled (SupervisorConfig.CanaryWindow or
// CanaryDuration), every promotion is revocable: after the swap goes live a
// canary window opens, the new generation's served sojourns are compared
// against the outgoing generation's most recent pre-swap completions over
// matched size quartiles, and a promotion measuring worse than the baseline
// by more than RollbackMargin is atomically rolled back — a forward
// LiveSet.Swap to a new, strictly higher generation id that reuses the
// previous service, so observers never see an id regress.
//
// Like Server, the replay is exact and deterministic: the same trace,
// detector and retuner always produce the same Report — including canary
// verdicts and rollback timing — which is what makes drifting-workload
// experiments reproducible and the deterministic-seed regression tests
// possible.
//
// Concurrent Run calls on one Supervisor are serialized: overlapping replays
// would interleave their hot-swaps on the shared LiveSet and break the
// monotone-generation guarantee observers rely on.
type Supervisor struct {
	cfg     SupervisorConfig
	service TimedServiceFunc
	detect  DriftDetector
	retune  Retuner
	live    *LiveSet

	// runMu serializes Run (see the type comment); mu only guards the
	// metrics snapshot, matching Server's locking split.
	runMu      sync.Mutex
	onRollback func(rollbackGen, reinstated int)

	mu   sync.Mutex
	last *Metrics
}

// NewSupervisor creates a continuous serving loop over generation-0 service.
// detect decides when the live schedule set is stale; retune builds the next
// generation when it is.
func NewSupervisor(cfg SupervisorConfig, service TimedServiceFunc, detect DriftDetector, retune Retuner) (*Supervisor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if service == nil {
		return nil, fmt.Errorf("trace: nil service function")
	}
	if detect == nil {
		return nil, fmt.Errorf("trace: nil drift detector")
	}
	if retune == nil {
		return nil, fmt.Errorf("trace: nil retuner")
	}
	return &Supervisor{
		cfg:     cfg,
		service: service,
		detect:  detect,
		retune:  retune,
		live:    NewLiveSet(service),
	}, nil
}

// Config returns the supervisor configuration.
func (sv *Supervisor) Config() SupervisorConfig { return sv.cfg }

// Live returns the generation store the supervisor publishes hot-swaps
// through. Concurrent observers (dashboards, co-serving admission paths) can
// read the current generation at any time; see LiveSet for the guarantees.
func (sv *Supervisor) Live() *LiveSet { return sv.live }

// OnRollback registers fn to be called synchronously from Run whenever a
// canary verdict rolls a promotion back: rollbackGen is the new generation
// id the rollback installed, reinstated the generation whose service it
// reuses. Serving callers use it to keep their per-generation state (e.g.
// which tuned instance is live) in step with the supervisor. Must be set
// before Run; a nil fn clears it.
func (sv *Supervisor) OnRollback(fn func(rollbackGen, reinstated int)) {
	sv.onRollback = fn
}

// Metrics returns a snapshot of the most recent run's observability data,
// or nil before the first Run.
func (sv *Supervisor) Metrics() *Metrics {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	if sv.last == nil {
		return nil
	}
	return sv.last.Clone()
}

// completion is one served request as the canary sees it: what size
// finished, when, and how long it took end to end.
type completion struct {
	size    int
	end     float64
	sojourn float64
}

// completedBy returns the completions with end <= t. Completions are
// recorded in dispatch order, so end times are not monotone and a filter
// (not a prefix) is required.
func completedBy(cs []completion, t float64) []completion {
	var out []completion
	for _, c := range cs {
		if c.end <= t {
			out = append(out, c)
		}
	}
	return out
}

// canaryBaseline selects the outgoing generation's pre-swap completions the
// canary verdict compares against: the newest n by completion time when the
// count-based window is configured, otherwise everything completing within
// dur seconds before the swap. Recency matters — after a drift, only the
// recent completions reflect the workload the new generation actually
// serves, so an older baseline would conflate workload change with schedule
// quality.
func canaryBaseline(cs []completion, swapAt float64, n int, dur float64) []completion {
	pre := completedBy(cs, swapAt)
	sort.SliceStable(pre, func(a, b int) bool { return pre[a].end < pre[b].end })
	if n > 0 {
		if len(pre) > n {
			pre = pre[len(pre)-n:]
		}
		return pre
	}
	cut := swapAt - dur
	for len(pre) > 0 && pre[0].end < cut {
		pre = pre[1:]
	}
	return pre
}

// canaryVerdict compares canary completions against the baseline over
// matched size quartiles: baseline sizes define four quartile bins, each
// bin's baseline mean sojourn is weighted by the canary's traffic in that
// bin, and only bins populated on both sides count. The result is the
// canary's mean sojourn over matched bins and the baseline mean re-weighted
// to the canary's size mix — an apples-to-apples answer to "would the old
// generation have served these sizes faster?". matched is the number of
// canary completions compared; 0 means no verdict (either side empty or no
// overlapping bins).
func canaryVerdict(baseline, canary []completion) (canaryMean, baselineMean float64, matched int) {
	if len(baseline) == 0 || len(canary) == 0 {
		return 0, 0, 0
	}
	sizes := make([]int, len(baseline))
	for i, c := range baseline {
		sizes[i] = c.size
	}
	sort.Ints(sizes)
	// Nearest-rank quartile boundaries of the baseline size distribution.
	bound := func(p float64) int {
		idx := int(math.Ceil(p*float64(len(sizes)))) - 1
		if idx < 0 {
			idx = 0
		}
		return sizes[idx]
	}
	q1, q2, q3 := bound(0.25), bound(0.50), bound(0.75)
	binOf := func(size int) int {
		switch {
		case size <= q1:
			return 0
		case size <= q2:
			return 1
		case size <= q3:
			return 2
		default:
			return 3
		}
	}
	var bSum, cSum [4]float64
	var bCnt, cCnt [4]int
	for _, c := range baseline {
		b := binOf(c.size)
		bSum[b] += c.sojourn
		bCnt[b]++
	}
	for _, c := range canary {
		b := binOf(c.size)
		cSum[b] += c.sojourn
		cCnt[b]++
	}
	var cs, bs float64
	for b := 0; b < 4; b++ {
		if bCnt[b] == 0 || cCnt[b] == 0 {
			continue
		}
		cs += cSum[b]
		bs += bSum[b] / float64(bCnt[b]) * float64(cCnt[b])
		matched += cCnt[b]
	}
	if matched == 0 {
		return 0, 0, 0
	}
	return cs / float64(matched), bs / float64(matched), matched
}

// canaryRun is one open canary window: the promotion under evaluation and
// the baseline snapshotted when it went live.
type canaryRun struct {
	swapIdx  int // index into swaps of the promotion being evaluated
	gen      int // generation under canary
	prev     int // generation to reinstate on rollback
	openedAt float64
	baseline []completion
}

// Run replays the request stream through the continuous loop and returns the
// exact virtual-time Report, with Generations stamping each request's
// schedule-set generation and Metrics.Swaps recording every hot-swap
// (rollbacks included). It also installs the run's Metrics as the
// supervisor's current snapshot. Concurrent calls are serialized; see the
// type comment.
//
// The run's per-admission drift control lives in LoopControl, shared with
// the fleet pool's multi-model replay; Run is the single-model wiring of
// that control into the trace replay engine.
func (sv *Supervisor) Run(reqs []Request) (*Report, error) {
	if len(reqs) == 0 {
		return nil, fmt.Errorf("trace: empty request stream")
	}
	sorted, order, err := arrivalOrder(reqs)
	if err != nil {
		return nil, err
	}
	lc := sv.BeginRun()

	admit := func(st *replayState, r Request, now float64) (int, error) {
		return lc.Admit(st, r.Size, now)
	}
	resolve := func(e *qentry) (float64, error) {
		return lc.Resolve(e.gen, e.arrival, e.size)
	}

	rep, err := runReplay(sv.cfg.Server, sorted, order, resolve, admit, lc.Observe)
	if err != nil {
		lc.Abort()
		return nil, err
	}
	lc.Finalize(rep)
	return rep, nil
}
