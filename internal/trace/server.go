package trace

import (
	"fmt"
	"math"
	"sync"
)

// Outcome records how the engine resolved one request.
type Outcome uint8

const (
	// OutcomeServed: served whole, on time or late (see Metrics.Timeouts).
	OutcomeServed Outcome = iota
	// OutcomeSplit: served through the split-at-cap degradation fallback.
	OutcomeSplit
	// OutcomeShedDeadline: dropped at dispatch, deadline unreachable.
	OutcomeShedDeadline
	// OutcomeShedQueue: dropped on arrival at a full admission queue.
	OutcomeShedQueue
	// OutcomeShedQuota: dropped on arrival over a per-tenant queue quota.
	// Never produced by the single-model engine; the fleet pool's per-model
	// report views carry it through so shed causes survive the translation.
	OutcomeShedQuota
	// OutcomeShedLoad: dropped on arrival by load-aware early shedding.
	// Never produced by the single-model engine; see OutcomeShedQuota.
	OutcomeShedLoad
)

func (o Outcome) String() string {
	switch o {
	case OutcomeServed:
		return "served"
	case OutcomeSplit:
		return "split"
	case OutcomeShedDeadline:
		return "shed-deadline"
	case OutcomeShedQueue:
		return "shed-queue"
	case OutcomeShedQuota:
		return "shed-quota"
	case OutcomeShedLoad:
		return "shed-load"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Shed reports whether the request was dropped without service.
func (o Outcome) Shed() bool {
	switch o {
	case OutcomeShedDeadline, OutcomeShedQueue, OutcomeShedQuota, OutcomeShedLoad:
		return true
	}
	return false
}

// ServerConfig shapes the concurrent serving engine: it is the queue policy
// the engine shares with the fleet pool. Under the default DegradeSplitTail
// policy a full queue sheds only long-tail requests (the arriving tail, or
// the youngest queued tail to make room for a normal arrival); if no tail can
// make room, the normal request is admitted anyway — the bound is soft for
// non-tail traffic by design, so interactive requests are never dropped by a
// burst of batch traffic. Other policies shed the arriving request, whatever
// its size.
type ServerConfig = QueuePolicy

// Report is the outcome of one trace served by the engine: the classic
// closed-form Result (percentiles over served requests, sojourns aligned to
// the caller's request order, NaN for shed requests) plus per-request
// outcomes and the observability snapshot.
type Report struct {
	Result
	// Outcomes[i] resolves the caller's request i.
	Outcomes []Outcome
	// Generations[i] is the schedule-set generation the caller's request i
	// was admitted on. All zeros for a plain Server run; a Supervisor run
	// stamps each admission with the generation live at its arrival, so the
	// pre/post-swap latency split can be computed per request.
	Generations []int
	// Metrics is the observability snapshot of this run.
	Metrics *Metrics
}

// Server is the concurrent serving engine: requests are admitted from the
// stream in arrival order through a bounded admission queue and dispatched
// to k simulated-GPU workers by least-loaded routing (subsuming
// ServeMultiGPU's router), with per-request deadlines, timeout/shed
// accounting and graceful degradation of unsplit long-tail requests.
//
// Execution is split into a physically concurrent phase and a deterministic
// one. Service times are resolved by k worker goroutines draining a bounded
// admission channel in arrival order — this is where the expensive fused
// kernel simulations run, genuinely in parallel, which is why the service
// function must be safe for concurrent use (MemoService is). Queueing,
// routing, deadlines and shedding are then replayed on a virtual clock, so
// reported latencies are exact and reproducible rather than subject to host
// scheduling jitter: the same trace always yields the same Report, and with
// one worker, no deadline and no queue bound it reproduces the closed-form
// Serve sojourn-for-sojourn.
//
// The service function must be size-deterministic (same size, same time);
// wrap expensive measurements in MemoService.
type Server struct {
	cfg     ServerConfig
	service ServiceFunc

	mu   sync.Mutex
	last *Metrics

	// svcMu guards svcCache, the cross-Serve memo of resolved service times.
	// The service function is size-deterministic by contract, so a size
	// resolved by an earlier Serve is reused without re-invoking the service
	// function — or spinning up the resolution worker pool at all when every
	// size hits.
	svcMu    sync.Mutex
	svcCache map[int]float64
}

// NewServer creates a serving engine over the given service function.
func NewServer(cfg ServerConfig, service ServiceFunc) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if service == nil {
		return nil, fmt.Errorf("trace: nil service function")
	}
	return &Server{cfg: cfg, service: service}, nil
}

// Config returns the server configuration.
func (s *Server) Config() ServerConfig { return s.cfg }

// Metrics returns a snapshot of the most recent run's observability data,
// or nil before the first Serve.
func (s *Server) Metrics() *Metrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.last == nil {
		return nil
	}
	return s.last.Clone()
}

// denseSizeLimit bounds the dense size-indexed fast paths: up to this maximum
// batch size, per-size tables are flat arrays instead of maps. Serving batch
// sizes (hundreds to a few thousand samples) sit far below it.
const denseSizeLimit = 1 << 16

// maxRequestSize returns the largest request size in the stream. Split-at-cap
// chunk sizes never exceed it: a chunk is the cap (below its parent's size)
// or the remainder (below the cap).
func maxRequestSize(reqs []Request) int {
	max := 0
	for i := range reqs {
		if reqs[i].Size > max {
			max = reqs[i].Size
		}
	}
	return max
}

// resolveServiceTimes runs the concurrent phase: an admission goroutine
// walks the stream in arrival order pushing each not-yet-seen size into a
// bounded channel, and k worker goroutines drain it, invoking the service
// function in parallel. Returns the size -> service time table.
func (s *Server) resolveServiceTimes(reqs []Request) (map[int]float64, error) {
	// Sizes in first-need order: request sizes, plus the chunk sizes their
	// split fallback could dispatch. Serving batch sizes are small, so the
	// dedup set is a dense bitmap when the largest size allows it (the common
	// case) and a map otherwise; either way the needed order — which fixes
	// the deterministic error selection below — is identical.
	var needed []int
	var seenDense []bool
	var seenMap map[int]bool
	if max := maxRequestSize(reqs); max <= denseSizeLimit {
		seenDense = make([]bool, max+1)
	} else {
		seenMap = make(map[int]bool)
	}
	need := func(size int) {
		if seenDense != nil {
			if !seenDense[size] {
				seenDense[size] = true
				needed = append(needed, size)
			}
		} else if !seenMap[size] {
			seenMap[size] = true
			needed = append(needed, size)
		}
	}
	splitCap := s.cfg.SplitCap
	for _, r := range reqs {
		need(r.Size)
		if s.cfg.Policy == DegradeSplitTail && splitCap > 0 && r.Size > splitCap {
			// The distinct chunk sizes of a split-at-cap decomposition: the
			// cap, plus the remainder when the size is not a multiple of it.
			need(splitCap)
			if rem := r.Size % splitCap; rem > 0 {
				need(rem)
			}
		}
	}

	// Serve the memo first: only sizes no earlier Serve resolved go to the
	// worker pool. Failures are never cached, so a size that errored once is
	// retried on the next call.
	times := make(map[int]float64, len(needed))
	toResolve := needed
	s.svcMu.Lock()
	if len(s.svcCache) > 0 {
		toResolve = nil
		for _, size := range needed {
			if t, ok := s.svcCache[size]; ok {
				times[size] = t
			} else {
				toResolve = append(toResolve, size)
			}
		}
	}
	s.svcMu.Unlock()
	if len(toResolve) == 0 {
		return times, nil
	}

	depth := s.cfg.QueueDepth
	if depth == 0 {
		depth = len(toResolve)
	}
	admit := make(chan int, depth)
	errs := make(map[int]error)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < s.cfg.EffectiveWorkers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for size := range admit {
				t, err := s.service(size)
				if err == nil && t < 0 {
					err = fmt.Errorf("trace: negative service time %g for size %d", t, size)
				}
				mu.Lock()
				if err != nil {
					errs[size] = err
				} else {
					times[size] = t
				}
				mu.Unlock()
			}
		}()
	}
	for _, size := range toResolve {
		admit <- size
	}
	close(admit)
	wg.Wait()
	// Deterministic error selection: first failing size in admission order.
	for _, size := range needed {
		if err := errs[size]; err != nil {
			return nil, fmt.Errorf("trace: size %d: %w", size, err)
		}
	}
	s.svcMu.Lock()
	if s.svcCache == nil {
		s.svcCache = make(map[int]float64, len(toResolve))
	}
	for _, size := range toResolve {
		s.svcCache[size] = times[size]
	}
	s.svcMu.Unlock()
	return times, nil
}

// qentry is one admission-queue slot: a whole request or one split chunk.
type qentry struct {
	pos      int     // position in the sorted stream
	arrival  float64 // request arrival time
	deadline float64 // absolute completion deadline (+Inf if none)
	size     int
	gen      int  // schedule-set generation stamped at admission
	chunk    bool // split chunk of a tail request
}

// splitState tracks an in-flight split request until its last chunk lands.
type splitState struct {
	remaining int
	end       float64
	service   float64
}

// resolveFunc returns the service time of one queue entry. The plain Server
// reads a pre-resolved per-size table; the Supervisor resolves against the
// generation and arrival time stamped on the entry, so in-flight requests
// keep the schedule set they were admitted on across a hot-swap.
type resolveFunc func(e *qentry) (float64, error)

// admitHook observes every arrival at its admission time, in arrival order,
// before queue placement or shedding. It returns the schedule-set generation
// to stamp on the entry. The hook may book background work on a worker slot
// through replayState.Occupy — this is how the Supervisor charges a
// background re-tune against serving capacity.
type admitHook func(st *replayState, r Request, now float64) (gen int, err error)

// finishHook observes every served completion as the replay resolves it:
// the request's size, the generation it was admitted on, its completion time
// and its sojourn. The Supervisor feeds its canary evaluation through this —
// a guarded promotion needs served latencies, not just admissions.
type finishHook func(size, gen int, end, sojourn float64)

// replayState is the mutable state of one virtual-clock replay, exposed to
// the admission hook so supervised runs can interact with worker capacity.
type replayState struct {
	cfg     ServerConfig
	free    []float64 // free[g] is when worker g next becomes idle
	workers []WorkerStats
	met     *Metrics
}

// replayScratch is the reusable per-replay working set: everything a replay
// allocates that does not escape into its Report. Pooled across replays so a
// reused server (or supervisor, or back-to-back benchmark iterations) runs
// its event loop out of warm memory instead of re-growing the queue, split
// table and percentile scratch every time.
type replayScratch struct {
	state     replayState
	queue     []qentry
	servedSoj []float64
	depths    depthSeries
	quant     Quantiler
	// Split bookkeeping: splitState values live in a slab so back-to-back
	// replays reuse the entries; the map only holds pointers into it. Pointers
	// stay valid across slab growth (they keep addressing the backing they
	// were taken from) and the map is cleared, not reallocated, between runs.
	splits    map[int]*splitState
	splitSlab []splitState
	chunkBuf  []qentry
}

var replayPool = sync.Pool{
	New: func() any {
		return &replayScratch{splits: make(map[int]*splitState)}
	},
}

// grab prepares the scratch for one replay over n requests and k workers.
func (sc *replayScratch) grab(k int) {
	if cap(sc.state.free) < k {
		sc.state.free = make([]float64, k)
		sc.state.workers = make([]WorkerStats, k)
	}
	sc.state.free = sc.state.free[:k]
	sc.state.workers = sc.state.workers[:k]
	for g := 0; g < k; g++ {
		sc.state.free[g] = 0
		sc.state.workers[g] = WorkerStats{}
	}
	sc.queue = sc.queue[:0]
	sc.servedSoj = sc.servedSoj[:0]
	sc.depths = depthSeries{samples: sc.depths.samples[:0]}
	sc.splitSlab = sc.splitSlab[:0]
	sc.chunkBuf = sc.chunkBuf[:0]
	clear(sc.splits)
}

// Occupy books dur seconds of background work on the least-loaded worker at
// virtual time now, returning the chosen slot and the booked start/end. The
// booked interval delays every later dispatch routed to that worker, so the
// capacity a background tune consumes is explicitly accounted rather than
// assumed free; the duration accrues to Metrics.TuneBusy and to the chosen
// worker's WorkerStats.TuneBusy, so the tuning worker reports occupied
// rather than idle.
func (st *replayState) Occupy(now, dur float64) (worker int, start, end float64) {
	best := 0
	for g := 1; g < len(st.free); g++ {
		if st.free[g] < st.free[best] {
			best = g
		}
	}
	start = st.free[best]
	if now > start {
		start = now
	}
	end = start + dur
	st.free[best] = end
	st.met.TuneBusy += dur
	st.workers[best].TuneBusy += dur
	return best, start, end
}

// runReplay is the deterministic virtual-clock event loop shared by
// Server.Serve and Supervisor.Run: FIFO admission with the configured queue
// bound and degradation policy, least-loaded dispatch over cfg.EffectiveWorkers()
// simulated GPUs, per-request deadlines and split-at-cap fallback. sorted
// must be in arrival order; order maps sorted positions back to the caller's
// indices (nil = identity).
func runReplay(cfg ServerConfig, sorted []Request, order []int, resolve resolveFunc, admit admitHook, onFinish finishHook) (*Report, error) {
	k := cfg.EffectiveWorkers()
	n := len(sorted)
	met := &Metrics{Latency: NewLatencyHistogram()}
	sc := replayPool.Get().(*replayScratch)
	sc.grab(k)
	queue := sc.queue
	chunks := sc.chunkBuf
	defer func() {
		// Hand the (possibly grown) buffers back to the scratch so the pool
		// keeps their capacity, and drop the Metrics reference so pooling the
		// scratch does not pin the returned snapshot.
		sc.queue = queue
		sc.chunkBuf = chunks
		sc.state.met = nil
		replayPool.Put(sc)
	}()
	state := &sc.state
	state.cfg = cfg
	state.met = met
	free := state.free
	workerStats := state.workers
	rep := &Report{
		Result:      Result{Sojourn: make([]float64, n)},
		Outcomes:    make([]Outcome, n),
		Generations: make([]int, n),
		Metrics:     met,
	}
	for i := range rep.Sojourn {
		rep.Sojourn[i] = math.NaN()
	}

	// Hot-loop constants, hoisted so the per-event checks are plain compares
	// instead of repeated config-struct construction.
	splitTail := cfg.Policy == DegradeSplitTail
	shedPolicy := cfg.Policy == DegradeShed
	splitCap := cfg.SplitCap
	isTail := func(size int) bool { return splitCap > 0 && size > splitCap }
	defDeadline := cfg.Deadline
	deadlineOf := func(r Request) float64 {
		d := r.Deadline
		if d == 0 {
			d = defDeadline
		}
		if d == 0 {
			return math.Inf(1)
		}
		return r.Arrival + d
	}

	// FIFO queue over a sliding window of a slice, plus a chunk deque that
	// dispatches strictly ahead of it — equivalent to the former front
	// insertion of split chunks (chunks inherit their parent's arrival, which
	// precedes every later admission), without re-copying the queued suffix
	// on every split.
	head := 0
	chead := 0
	qlen := func() int { return (len(queue) - head) + (len(chunks) - chead) }
	observeDepth := func(t float64) {
		d := qlen()
		if d > met.MaxQueueDepth {
			met.MaxQueueDepth = d
		}
		sc.depths.observe(t, d)
	}

	splits := sc.splits
	var busy, totalService, lastEnd float64
	served := 0

	finish := func(pos int, end, svc float64, out Outcome) {
		idx := originalIndex(order, pos)
		soj := end - sorted[pos].Arrival
		rep.Sojourn[idx] = soj
		rep.Outcomes[idx] = out
		met.Served++
		met.Latency.Observe(soj)
		if end > deadlineOf(sorted[pos]) {
			met.Timeouts++
		}
		if out == OutcomeSplit {
			met.SplitServed++
		}
		totalService += svc
		if end > lastEnd {
			lastEnd = end
		}
		served++
		if onFinish != nil {
			onFinish(sorted[pos].Size, rep.Generations[idx], end, soj)
		}
	}
	shed := func(pos int, out Outcome) {
		idx := originalIndex(order, pos)
		rep.Outcomes[idx] = out
		if out == OutcomeShedQueue {
			met.QueueSheds++
		} else {
			met.DeadlineSheds++
		}
	}

	next := 0 // next arrival in sorted order
	// The dispatched entry lives outside the loop: its address is passed to
	// the indirect resolve func, so an in-loop declaration escapes and costs
	// one heap allocation per dispatch.
	var e qentry
	for next < n || qlen() > 0 {
		// Next event: dispatch the queue head as soon as a worker can take
		// it, unless an arrival happens strictly first. Ties dispatch first,
		// so a slot freed at time t is visible to an arrival at time t.
		tArr := math.Inf(1)
		if next < n {
			tArr = sorted[next].Arrival
		}
		tDisp := math.Inf(1)
		best := 0
		if qlen() > 0 {
			for g := 1; g < k; g++ {
				if free[g] < free[best] {
					best = g
				}
			}
			headArr := 0.0
			if chead < len(chunks) {
				headArr = chunks[chead].arrival
			} else {
				headArr = queue[head].arrival
			}
			// Plain compare instead of math.Max: both operands are finite
			// non-negative virtual times, so the NaN/signed-zero handling
			// math.Max pays for cannot matter here.
			tDisp = free[best]
			if headArr > tDisp {
				tDisp = headArr
			}
		}

		if tDisp > tArr { // admit the next arrival
			r := sorted[next]
			e := qentry{pos: next, arrival: r.Arrival, deadline: deadlineOf(r), size: r.Size}
			if admit != nil {
				gen, err := admit(state, r, r.Arrival)
				if err != nil {
					return nil, err
				}
				e.gen = gen
			}
			rep.Generations[originalIndex(order, next)] = e.gen
			next++
			if cfg.QueueDepth > 0 && qlen() >= cfg.QueueDepth {
				if splitTail {
					switch {
					case isTail(e.size):
						shed(e.pos, OutcomeShedQueue)
						observeDepth(r.Arrival)
						continue
					default:
						// Evict the youngest queued whole tail request to
						// make room; if none, admit anyway (soft bound for
						// non-tail traffic). Chunks live in their own deque,
						// so every queue entry here is a whole request.
						for j := len(queue) - 1; j >= head; j-- {
							if isTail(queue[j].size) {
								shed(queue[j].pos, OutcomeShedQueue)
								queue = append(queue[:j], queue[j+1:]...)
								break
							}
						}
					}
				} else {
					shed(e.pos, OutcomeShedQueue)
					observeDepth(r.Arrival)
					continue
				}
			}
			queue = append(queue, e)
			observeDepth(r.Arrival)
			continue
		}

		// Dispatch the head — pending split chunks first, then the FIFO
		// queue — on the least-loaded worker.
		if chead < len(chunks) {
			e = chunks[chead]
			chead++
			if chead == len(chunks) {
				chunks = chunks[:0]
				chead = 0
			}
		} else {
			e = queue[head]
			head++
			// Reclaim the consumed prefix so the queue slice cannot grow
			// unboundedly across a long trace.
			if head > 256 && head*2 > len(queue) {
				queue = append(queue[:0], queue[head:]...)
				head = 0
			}
		}
		st := tDisp
		observeDepth(st)

		sv, err := resolve(&e)
		if err != nil {
			return nil, err
		}
		if sv < 0 {
			return nil, fmt.Errorf("trace: negative service time %g for size %d", sv, e.size)
		}

		if e.chunk {
			free[best] = st + sv
			busy += sv
			workerStats[best].Served++
			workerStats[best].Busy += sv
			sp := splits[e.pos]
			sp.remaining--
			sp.service += sv
			if free[best] > sp.end {
				sp.end = free[best]
			}
			if sp.remaining == 0 {
				finish(e.pos, sp.end, sp.service, OutcomeSplit)
				delete(splits, e.pos)
			}
			continue
		}

		switch {
		case shedPolicy && st+sv > e.deadline:
			shed(e.pos, OutcomeShedDeadline)
			continue
		case splitTail && isTail(e.size) && st > e.deadline:
			// The tail request cannot even start before its deadline.
			shed(e.pos, OutcomeShedDeadline)
			continue
		case splitTail && isTail(e.size) && st+sv > e.deadline:
			// Split-at-cap fallback: re-admit the request as capped chunks
			// that dispatch ahead of the queue; each chunk routes
			// independently, so chunks of one tail request can run on several
			// GPUs at once. Chunks inherit the parent's generation: a split
			// request is still one admission and finishes on the schedule set
			// it arrived under. The split state lives in the pooled slab; the
			// map only ever holds pointers into it.
			cnt := 0
			for sz := e.size; sz > 0; {
				c := sz
				if c > splitCap {
					c = splitCap
				}
				chunks = append(chunks, qentry{pos: e.pos, arrival: e.arrival, deadline: e.deadline, size: c, gen: e.gen, chunk: true})
				sz -= c
				cnt++
			}
			sc.splitSlab = append(sc.splitSlab, splitState{remaining: cnt})
			splits[e.pos] = &sc.splitSlab[len(sc.splitSlab)-1]
			continue
		}
		free[best] = st + sv
		busy += sv
		workerStats[best].Served++
		workerStats[best].Busy += sv
		finish(e.pos, free[best], sv, OutcomeServed)
	}

	// Aggregate statistics over served requests through the pooled scratch:
	// one reused sojourn buffer, one partially-ordered percentile pass.
	servedSoj := sc.servedSoj[:0]
	for _, v := range rep.Sojourn {
		if !math.IsNaN(v) {
			servedSoj = append(servedSoj, v)
		}
	}
	sc.servedSoj = servedSoj
	rep.Served = len(servedSoj)
	rep.P50, rep.P95, rep.P99 = sc.quant.P50P95P99(servedSoj)
	if served > 0 {
		rep.MeanService = totalService / float64(served)
	}
	met.Makespan = lastEnd - sorted[0].Arrival
	if met.Makespan < 0 {
		// Nothing was served (every request shed), so lastEnd never advanced
		// past its zero value; a span of "before the first arrival" is
		// meaningless, and propagating it would turn utilizations negative.
		met.Makespan = 0
	}
	if met.Makespan > 0 {
		rep.Utilization = busy / (met.Makespan * float64(k))
		for g := range workerStats {
			// A worker occupied by a background tune was not idle: its
			// utilization covers serving plus tuning, while the run-level
			// Utilization above stays serving-only (the tune's cost is
			// reported separately in Metrics.TuneBusy).
			workerStats[g].Utilization = (workerStats[g].Busy + workerStats[g].TuneBusy) / met.Makespan
		}
	}
	// Copy the per-worker and queue-depth views out of the pooled scratch —
	// the Report outlives this replay, so nothing it holds may alias memory
	// the next replay will overwrite.
	met.Workers = append([]WorkerStats(nil), workerStats...)
	met.QueueDepth = append([]QueueSample(nil), sc.depths.samples...)
	return rep, nil
}

// Serve runs the request stream through the engine and returns the exact
// virtual-time Report. It also installs the run's Metrics as the server's
// current snapshot. Out-of-order input is sorted on entry; Sojourn and
// Outcomes stay aligned with the caller's indices.
func (s *Server) Serve(reqs []Request) (*Report, error) {
	if len(reqs) == 0 {
		return nil, fmt.Errorf("trace: empty request stream")
	}
	sorted, order := arrivalOrder(reqs)
	times, err := s.resolveServiceTimes(sorted)
	if err != nil {
		return nil, err
	}
	// Pre-resolve each position's service time so the replay's per-dispatch
	// resolve is an indexed load; split chunks (whose sizes need not match
	// any request's) go through a dense size table when sizes are small, the
	// size map otherwise.
	svc := make([]float64, len(sorted))
	var bySize []float64
	if max := maxRequestSize(sorted); max <= denseSizeLimit {
		bySize = make([]float64, max+1)
		for size, t := range times {
			bySize[size] = t
		}
		for i, r := range sorted {
			svc[i] = bySize[r.Size]
		}
	} else {
		for i, r := range sorted {
			svc[i] = times[r.Size]
		}
	}
	rep, err := runReplay(s.cfg, sorted, order, func(e *qentry) (float64, error) {
		if e.chunk {
			if bySize != nil {
				return bySize[e.size], nil
			}
			return times[e.size], nil
		}
		return svc[e.pos], nil
	}, nil, nil)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.last = rep.Metrics
	s.mu.Unlock()
	return rep, nil
}
