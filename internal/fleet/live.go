package fleet

import (
	"fmt"
	"math"

	"repro/internal/trace"
)

// Event is one resolved request of a live fleet session: a served (or split)
// completion, or a shed decision. Events surface incrementally from
// Live.Admit / Live.Advance / Live.Close, in resolution order, so a
// wall-clock front door can answer each request the moment the shared-pool
// engine resolves it instead of waiting for the whole session's Report.
type Event struct {
	// ID is the admission id (the order the request entered Admit).
	ID int
	// Outcome resolves the request.
	Outcome Outcome
	// Generation is the model-local schedule-set generation the request was
	// admitted on.
	Generation int
	// Sojourn is end-to-end latency in simulated seconds (NaN for sheds).
	Sojourn float64
	// Dispatch is the simulated time service started (NaN for sheds; for a
	// split request, its first chunk's start).
	Dispatch float64
	// Service is the resolved service time (NaN for sheds; summed chunk
	// service for a split).
	Service float64
	// Worker is the simulated GPU that served the request (-1 for sheds; the
	// last-dispatched chunk's worker for a split).
	Worker int
	// End is the simulated time the outcome was decided: completion time for
	// served/split requests, the shed decision time otherwise.
	End float64
}

// Live is one incremental session over a Pool: the same admission, dispatch,
// autoscaling, drift-control and split-at-cap machinery as Pool.Serve, but
// driven one arrival at a time. Pool.Serve is implemented on top of it —
// Begin, Admit every request in arrival order, Close — which is exactly what
// makes a recorded live session replay bit-identically offline: the batch
// replay and the live session execute the same code in the same event order.
//
// A Live is not safe for concurrent use; callers (the gateway front door)
// serialize access. Arrivals must be admitted in non-decreasing simulated
// time. Engine failures (a misbehaving policy, a negative service time) are
// sticky: the session aborts its supervisors and every later call returns
// the error. Returned event slices are valid until the next Live call.
type Live struct {
	p   *Pool
	st  *poolRun
	lcs []*trace.LoopControl
	occ []*modelOccupier

	reqs []Request // admitted arrivals, admission order

	// Per-admission results, admission order.
	sojourn  []float64
	dispatch []float64
	service  []float64
	worker   []int
	outcome  []Outcome
	gens     []int

	queue  []qentry // whole admissions awaiting dispatch, admission order
	chunks []qentry // split chunks awaiting dispatch, FIFO
	splits map[int]*fleetSplit

	// Per-event scratch, reused so admission and dispatch allocate nothing:
	// dispatch candidates (queue indices and the policy's view of them),
	// the admission policy's per-tenant load copy, each model's earliest
	// queued arrival, and which models are placed on the dispatching worker.
	eligIdx    []int
	elig       []QueuedRequest
	tenantLoad []int
	modelMin   []float64
	placedHere []bool

	queuedByTenant []int
	queuedByModel  []int
	workByModel    []float64
	serviceByModel []float64 // served requests' service, summed in completion order
	lastEndByModel []float64 // each model's last completion
	modelSojourns  [][]float64
	tenantSojourns [][]float64

	// Elastic-pool state: drain marks workers the autoscaler removed from
	// every placement row (they finish in-flight work, then sit retired);
	// lives records each worker's add/retire times; active counts the
	// workers not draining. backlog is the autoscaler's window, a ring of
	// the Pending count at each of its last Window pacing ticks; ticks
	// counts the ticks taken so far.
	drain   []bool
	lives   []WorkerLife
	active  int
	backlog []int
	ticks   int

	met       *Metrics
	lastEnd   float64
	lastScale float64
	started   bool
	first     float64

	events []Event
	err    error
	done   bool
}

// Begin opens an incremental session: per-model drift control is armed
// (supervised models hold their run locks until Close or Abort), the
// admission policy is reset, and the pool's initial placement applies. Every
// Begin must be balanced by exactly one Close (success) or Abort (error or
// abandonment).
func (p *Pool) Begin() *Live {
	k := p.cfg.Queue.EffectiveWorkers()
	class := make([]int, k)
	copy(class, p.cfg.WorkerClasses)
	l := &Live{
		p: p,
		st: &poolRun{
			p:           p,
			asg:         p.initial.clone(),
			free:        make([]float64, k),
			busy:        make([]float64, k),
			tune:        make([]float64, k),
			served:      make([]int, k),
			class:       class,
			tuneByModel: make([]float64, len(p.models)),
		},
		lcs:            make([]*trace.LoopControl, len(p.models)),
		occ:            make([]*modelOccupier, len(p.models)),
		splits:         make(map[int]*fleetSplit),
		tenantLoad:     make([]int, len(p.tenants)),
		modelMin:       make([]float64, len(p.models)),
		placedHere:     make([]bool, len(p.models)),
		queuedByTenant: make([]int, len(p.tenants)),
		queuedByModel:  make([]int, len(p.models)),
		workByModel:    make([]float64, len(p.models)),
		serviceByModel: make([]float64, len(p.models)),
		lastEndByModel: make([]float64, len(p.models)),
		modelSojourns:  make([][]float64, len(p.models)),
		tenantSojourns: make([][]float64, len(p.tenants)),
		drain:          make([]bool, k),
		lives:          make([]WorkerLife, k),
		active:         k,
	}
	for w := 0; w < k; w++ {
		l.lives[w] = WorkerLife{Worker: w, Class: class[w], RetiredAt: math.NaN()}
	}
	if a := p.cfg.Autoscale; a != nil {
		l.backlog = make([]int, a.window())
	}
	for m := range p.models {
		if p.models[m].Supervisor != nil {
			l.lcs[m] = p.models[m].Supervisor.BeginRun()
		}
		l.occ[m] = &modelOccupier{run: l.st, model: m}
	}

	// A stateful dispatch policy (e.g. WeightedFair's deficit counters)
	// starts every session from the same state, so a reused Pool stays
	// deterministic across sessions. The embedding-cache tier resets the
	// same way: replaying a recorded session through a pool that already
	// served it live must re-warm the cache from the identical cold start.
	if r, ok := p.policy.(interface{ Reset() }); ok {
		r.Reset()
	}
	if p.cfg.Cache != nil {
		p.cfg.Cache.Reset()
	}

	met := &Metrics{
		Latency:   trace.NewLatencyHistogram(),
		Policy:    p.policy.Name(),
		Placement: p.cfg.Placement.String(),
		Models:    make([]GroupMetrics, len(p.models)),
		Tenants:   make([]GroupMetrics, len(p.tenants)),
	}
	for m := range met.Models {
		met.Models[m].Name = p.models[m].Name
		met.Models[m].Latency = trace.NewLatencyHistogram()
	}
	for t := range met.Tenants {
		met.Tenants[t].Name = p.tenants[t].Name
		met.Tenants[t].Latency = trace.NewLatencyHistogram()
	}
	l.met = met
	return l
}

// fail records a fatal engine error and aborts the session's supervisors.
func (l *Live) fail(err error) error {
	l.err = err
	if !l.done {
		l.done = true
		for _, lc := range l.lcs {
			if lc != nil {
				lc.Abort()
			}
		}
	}
	return err
}

// Abort ends the session without a Report, releasing the supervisors' run
// locks. Safe to call after a failure or a successful Close (no-op then).
func (l *Live) Abort() {
	if l.done {
		return
	}
	l.done = true
	for _, lc := range l.lcs {
		if lc != nil {
			lc.Abort()
		}
	}
}

// Admitted returns the number of requests admitted so far (including sheds).
func (l *Live) Admitted() int { return len(l.reqs) }

// reserve sizes the per-admission slices for n admissions, so a session
// whose length is known up front (Pool.Serve) never regrows them.
func (l *Live) reserve(n int) {
	l.reqs = make([]Request, 0, n)
	l.sojourn = make([]float64, 0, n)
	l.dispatch = make([]float64, 0, n)
	l.service = make([]float64, 0, n)
	l.worker = make([]int, 0, n)
	l.outcome = make([]Outcome, 0, n)
	l.gens = make([]int, 0, n)
}

// Err returns the sticky engine error, nil while the session is healthy.
// Validation rejections from Admit are not sticky and never show up here.
func (l *Live) Err() error { return l.err }

// Pending returns the number of admitted requests not yet resolved: whole
// requests still queued plus split requests with chunks in flight.
func (l *Live) Pending() int {
	return len(l.queue) + len(l.splits)
}

// validateRequest mirrors Pool.Serve's per-request validation with the same
// messages; i is the admission position used in them.
func (p *Pool) validateRequest(i int, r Request) error {
	switch {
	case r.Model < 0 || r.Model >= len(p.models):
		return fmt.Errorf("fleet: request %d targets unknown model %d (have %d)", i, r.Model, len(p.models))
	case r.Tenant < 0 || r.Tenant >= len(p.tenants):
		return fmt.Errorf("fleet: request %d belongs to unknown tenant %d (have %d)", i, r.Tenant, len(p.tenants))
	case r.Size <= 0:
		return fmt.Errorf("fleet: request %d has non-positive size %d", i, r.Size)
	case !(r.Deadline >= 0):
		return fmt.Errorf("fleet: request %d has negative or NaN deadline %g", i, r.Deadline)
	case math.IsNaN(r.Arrival) || math.IsInf(r.Arrival, 0):
		return fmt.Errorf("fleet: request %d has non-finite arrival %g", i, r.Arrival)
	}
	return nil
}

// Admit presents one arrival to the engine at its simulated arrival time and
// returns its admission id plus any events resolved while advancing to that
// time (completions of earlier requests, and possibly the shed of this one).
// Validation failures (unknown model/tenant, non-positive size, regressing
// arrival time) reject the request without poisoning the session; engine
// failures are sticky.
func (l *Live) Admit(r Request) (int, []Event, error) {
	if l.err != nil {
		return 0, nil, l.err
	}
	if l.done {
		return 0, nil, fmt.Errorf("fleet: session is closed")
	}
	pos := len(l.reqs)
	if err := l.p.validateRequest(pos, r); err != nil {
		return 0, nil, err
	}
	if l.started && r.Arrival < l.reqs[pos-1].Arrival {
		return 0, nil, fmt.Errorf("fleet: request %d arrives at t=%g before request %d at t=%g (live admissions must be in arrival order)",
			pos, r.Arrival, pos-1, l.reqs[pos-1].Arrival)
	}
	if !l.started {
		l.started = true
		l.first = r.Arrival
		l.lastScale = r.Arrival
		for w := range l.lives {
			l.lives[w].AddedAt = r.Arrival
		}
	}

	l.events = l.events[:0]
	now := r.Arrival
	if err := l.advanceUntil(now); err != nil {
		return 0, nil, l.fail(err)
	}

	// The autoscaler's pacing is evaluated at arrivals too. Admission does
	// not depend on the pool's shape, so a scale decision needs nothing
	// recomputed here.
	l.maybeAutoscale(now)

	// The model's drift control observes every arrival — before any queue
	// placement or shedding, exactly like the single-model engine — and
	// stamps the generation the request is admitted on.
	gen := 0
	if lc := l.lcs[r.Model]; lc != nil {
		g, err := lc.Admit(l.occ[r.Model], r.Size, now)
		if err != nil {
			return 0, nil, l.fail(err)
		}
		gen = g
	}

	l.reqs = append(l.reqs, r)
	l.sojourn = append(l.sojourn, math.NaN())
	l.dispatch = append(l.dispatch, math.NaN())
	l.service = append(l.service, math.NaN())
	l.worker = append(l.worker, -1)
	l.outcome = append(l.outcome, OutcomeServed)
	l.gens = append(l.gens, gen)

	qr := QueuedRequest{
		ID:       pos,
		Arrival:  now,
		Deadline: l.p.deadlineOf(r),
		Size:     r.Size,
		Model:    r.Model,
		Tenant:   r.Tenant,
		Priority: l.p.tenants[r.Tenant].Priority,
	}
	copy(l.tenantLoad, l.queuedByTenant)
	load := PoolLoad{
		Now:            now,
		Queued:         len(l.queue) + len(l.chunks),
		QueueDepth:     l.p.cfg.Queue.QueueDepth,
		QueuedByTenant: l.tenantLoad,
	}
	ok, out := l.p.policy.Admit(qr, load)
	if !ok {
		if !out.Shed() {
			return 0, nil, l.fail(fmt.Errorf("fleet: policy %s rejected a request with non-shed outcome %v", l.p.policy.Name(), out))
		}
		l.shed(pos, out, r.Model, r.Tenant, now)
		return pos, l.events, nil
	}
	if l.p.single != nil {
		if j := l.p.single.victim(l.queue, load); j >= 0 {
			v := l.queue[j]
			l.queue = append(l.queue[:j], l.queue[j+1:]...)
			l.queuedByTenant[v.tenant]--
			l.queuedByModel[v.model]--
			l.shed(v.id, OutcomeShedQueue, v.model, v.tenant, now)
		}
	}
	l.queue = append(l.queue, qentry{
		id:       pos,
		arrival:  now,
		deadline: qr.Deadline,
		size:     r.Size,
		model:    r.Model,
		tenant:   r.Tenant,
		prio:     qr.Priority,
		gen:      gen,
	})
	l.queuedByTenant[r.Tenant]++
	l.queuedByModel[r.Model]++
	l.observeDepth()
	if l.queuedByTenant[r.Tenant] > l.met.Tenants[r.Tenant].MaxQueued {
		l.met.Tenants[r.Tenant].MaxQueued = l.queuedByTenant[r.Tenant]
	}
	if l.queuedByModel[r.Model] > l.met.Models[r.Model].MaxQueued {
		l.met.Models[r.Model].MaxQueued = l.queuedByModel[r.Model]
	}
	return pos, l.events, nil
}

// Advance processes every dispatch event up to simulated time now and returns
// the resolved events. Arrivals later than now must not have been admitted
// yet; the front door guarantees this by stamping arrivals with a monotone
// simulated clock.
func (l *Live) Advance(now float64) ([]Event, error) {
	if l.err != nil {
		return nil, l.err
	}
	if l.done {
		return nil, fmt.Errorf("fleet: session is closed")
	}
	l.events = l.events[:0]
	if err := l.advanceUntil(now); err != nil {
		return nil, l.fail(err)
	}
	return l.events, nil
}

// NextEventTime returns the simulated time of the earliest pending dispatch,
// or +Inf when nothing is queued — the front door's timer target.
func (l *Live) NextEventTime() float64 {
	if l.err != nil || l.done {
		return math.Inf(1)
	}
	_, tDisp := l.nextDispatch()
	return tDisp
}

// Close drains every queued request, finalizes the session and returns its
// Report (per-request slices in admission order) together with the events
// resolved by the final drain.
func (l *Live) Close() (*Report, []Event, error) {
	return l.closeWith(l.reqs, nil)
}

// closeWith drains and finalizes; reqs and order map admission positions back
// to the caller's request indices (Pool.Serve's sorted view — nil order means
// admission order is the caller's order).
func (l *Live) closeWith(reqs []Request, order []int) (*Report, []Event, error) {
	if l.err != nil {
		return nil, nil, l.err
	}
	if l.done {
		return nil, nil, fmt.Errorf("fleet: session is closed")
	}
	l.events = l.events[:0]
	if err := l.advanceUntil(math.Inf(1)); err != nil {
		return nil, nil, l.fail(err)
	}
	if n := l.Pending(); n > 0 {
		// The final drain dispatches everything a placed worker can take, so
		// what is left belongs to a model with no worker.
		stuck := l.chunks
		if len(l.queue) > 0 {
			stuck = l.queue
		}
		return nil, nil, l.fail(fmt.Errorf("fleet: %d admitted requests never resolved: model %s has no placed worker",
			n, l.p.models[stuck[0].model].Name))
	}
	l.done = true

	n := len(l.reqs)
	met := l.met
	rep := &Report{
		Sojourn:     make([]float64, n),
		Outcomes:    make([]Outcome, n),
		Generations: make([]int, n),
		Dispatch:    make([]float64, n),
		Worker:      make([]int, n),
		Service:     make([]float64, n),
		Metrics:     met,
	}
	for pos := 0; pos < n; pos++ {
		idx := originalIndex(order, pos)
		rep.Sojourn[idx] = l.sojourn[pos]
		rep.Outcomes[idx] = l.outcome[pos]
		rep.Generations[idx] = l.gens[pos]
		rep.Dispatch[idx] = l.dispatch[pos]
		rep.Worker[idx] = l.worker[pos]
		rep.Service[idx] = l.service[pos]
	}

	// Pool-wide aggregates. The worker set may have grown past the configured
	// count under autoscaling, so size by the live state, not the config.
	k := len(l.st.free)
	if n > 0 {
		met.Makespan = l.lastEnd - l.first
		if met.Makespan < 0 {
			met.Makespan = 0
		}
	}
	met.Workers = make([]trace.WorkerStats, k)
	for w := 0; w < k; w++ {
		met.Workers[w] = trace.WorkerStats{
			Served:   l.st.served[w],
			Busy:     l.st.busy[w],
			TuneBusy: l.st.tune[w],
		}
		if met.Makespan > 0 {
			met.Workers[w].Utilization = (l.st.busy[w] + l.st.tune[w]) / met.Makespan
		}
	}
	if l.p.cfg.Autoscale != nil {
		met.WorkerLives = append([]WorkerLife(nil), l.lives...)
	}
	for m := range met.Models {
		groupStats(&met.Models[m], l.modelSojourns[m])
	}
	for t := range met.Tenants {
		groupStats(&met.Tenants[t], l.tenantSojourns[t])
	}
	if c := l.p.cfg.Cache; c != nil {
		met.Cache = c.Snapshot()
		for m := range met.Cache.Models {
			met.Cache.Models[m].Name = l.p.models[m].Name
		}
		for t := range met.Cache.Tenants {
			met.Cache.Tenants[t].Name = l.p.tenants[t].Name
		}
	}

	// Per-model single-model reports; supervised models finalize their
	// drift control into them (swap history, generation count, rollbacks)
	// and publish their metrics snapshots.
	rep.ModelReports = make([]*trace.Report, len(l.p.models))
	for m := range l.p.models {
		rep.ModelReports[m] = l.modelReport(m, reqs, rep)
		if l.lcs[m] != nil {
			l.lcs[m].Finalize(rep.ModelReports[m])
		}
	}
	return rep, l.events, nil
}

// observeDepth tracks peak shared-buffer occupancy (whole admissions plus
// queued split chunks) at the same points the single-model engine samples
// it: after an admission enters the queue and after a dispatch removes an
// entry — the latter is how a post-split peak (one removal, several chunk
// insertions) becomes visible.
func (l *Live) observeDepth() {
	if d := len(l.queue) + len(l.chunks); d > l.met.MaxQueueDepth {
		l.met.MaxQueueDepth = d
	}
}

// preemptQueuedChunks requeues every already-arrived split chunk at now: a
// scale-in moved placement out from under pending chunks, so their queued
// dispatches restart under the new shape. Each
// requeue emits an informational OutcomePreempted event and bumps
// Metrics.Preemptions; sojourn accounting is unaffected because a split's
// sojourn runs from its parent's original arrival (fleetSplit.arrival), not
// the chunks' requeued arrivals.
func (l *Live) preemptQueuedChunks(now float64) {
	for i := range l.chunks {
		c := &l.chunks[i]
		if c.arrival >= now {
			continue
		}
		c.arrival = now
		l.met.Preemptions++
		l.events = append(l.events, Event{
			ID: c.id, Outcome: OutcomePreempted, Generation: c.gen,
			Sojourn: math.NaN(), Dispatch: math.NaN(), Service: math.NaN(),
			Worker: -1, End: now,
		})
	}
}

// shed resolves one request as dropped, bumping the cause counters and
// emitting its event.
func (l *Live) shed(pos int, out Outcome, model, tenant int, now float64) {
	l.outcome[pos] = out
	met := l.met
	bump := func(g *GroupMetrics) {
		switch out {
		case OutcomeShedQueue:
			g.ShedQueue++
		case OutcomeShedQuota:
			g.ShedQuota++
		case OutcomeShedLoad:
			g.ShedLoad++
		case OutcomeShedDeadline:
			g.ShedDeadline++
		}
	}
	bump(&met.Models[model])
	bump(&met.Tenants[tenant])
	switch out {
	case OutcomeShedQueue:
		met.ShedQueue++
	case OutcomeShedQuota:
		met.ShedQuota++
	case OutcomeShedLoad:
		met.ShedLoad++
	case OutcomeShedDeadline:
		met.ShedDeadline++
	}
	l.events = append(l.events, Event{
		ID: pos, Outcome: out, Generation: l.gens[pos],
		Sojourn: math.NaN(), Dispatch: math.NaN(), Service: math.NaN(),
		Worker: -1, End: now,
	})
}

// nextDispatch computes the earliest possible dispatch: a worker's next start
// is bounded by its free time and by the earliest queued request or split
// chunk (by arrival) of any model placed on it. Ties between workers resolve
// by the placement strategy. Returns (-1, +Inf) when nothing is queued.
//
// One pass over the queue and the chunks finds each model's earliest
// arrival; the minima then fan out through the placement rows. A call costs
// O(queue + chunks + placed workers): drained and retired workers sit in no
// row, so the slots autoscaling leaves behind (ids are never reused) cost
// nothing. A worker placed for several models is offered once per row, with
// that model's minimum; its best offer is its true next start, and the
// candidate order — time, then betterWorker — is a strict total order, so
// the pick equals a scan of every worker in ascending id.
func (l *Live) nextDispatch() (int, float64) {
	minArr := l.modelMin
	for m := range minArr {
		minArr[m] = math.Inf(1)
	}
	for i := range l.queue {
		if e := &l.queue[i]; e.arrival < minArr[e.model] {
			minArr[e.model] = e.arrival
		}
	}
	for i := range l.chunks {
		if e := &l.chunks[i]; e.arrival < minArr[e.model] {
			minArr[e.model] = e.arrival
		}
	}
	bestW := -1
	tDisp := math.Inf(1)
	for m, row := range l.st.asg {
		if math.IsInf(minArr[m], 1) {
			continue
		}
		for _, w := range row {
			t := math.Max(l.st.free[w], minArr[m])
			if t < tDisp || (t == tDisp && l.st.betterWorker(w, bestW)) {
				bestW, tDisp = w, t
			}
		}
	}
	return bestW, tDisp
}

// advanceUntil processes every dispatch event with dispatch time <= bound.
// Ties with an arrival dispatch first — the caller admits the arrival only
// after advancing to its time — so a slot freed at time t is visible to an
// arrival at time t, matching the single-model engine.
func (l *Live) advanceUntil(bound float64) error {
	for {
		more, err := l.step(bound)
		if err != nil || !more {
			return err
		}
	}
}

// step takes the next engine step at or before bound: a scale decision due
// at the next dispatch time, or else the dispatch itself. It reports false
// when no dispatch is due by bound.
func (l *Live) step(bound float64) (bool, error) {
	bestW, tDisp := l.nextDispatch()
	if bestW == -1 || tDisp > bound {
		return false, nil
	}
	// The autoscaler's pacing is evaluated at dispatch events too —
	// otherwise it would fall silent the moment arrivals stop (drain phase)
	// or thin out. A scale decision reshapes the worker set, so the
	// candidate computed above must be recomputed; lastScale has advanced,
	// so this cannot loop.
	if l.maybeAutoscale(tDisp) {
		return true, nil
	}
	return true, l.dispatchAt(bestW, tDisp)
}

// dispatchAt executes one dispatch event on worker bestW at time tDisp:
// split chunks placed on the worker go first, then the admission policy
// picks among the queued requests that have arrived.
func (l *Live) dispatchAt(bestW int, tDisp float64) error {
	p := l.p
	met := l.met

	// Which models may run on bestW, computed once per event from the
	// placement rows; the scans below test it instead of searching a row
	// per queue entry.
	here := l.placedHere
	for m, row := range l.st.asg {
		here[m] = false
		for _, w := range row {
			if w == bestW {
				here[m] = true
				break
			}
		}
	}

	// Split chunks placed on this worker dispatch ahead of any policy
	// pick — a split request was already chosen by the policy once, and
	// finishing it promptly is the point of splitting (the single-model
	// engine expresses the same rule by inserting chunks at the queue
	// front). Chunks dispatch in split order.
	ci := -1
	for i := range l.chunks {
		if l.chunks[i].arrival <= tDisp && here[l.chunks[i].model] {
			ci = i
			break
		}
	}
	if ci >= 0 && p.cfg.Preempt && l.hasUrgentWhole(here, tDisp, l.chunks[ci].prio) {
		// Chunk-boundary preemption: a strictly higher-priority whole request
		// is waiting for this worker, so the head chunk yields the slot — its
		// arrival moves to now (the requeue) and the policy picks instead.
		// The split's sojourn clock (fleetSplit.arrival) does not move.
		c := &l.chunks[ci]
		c.arrival = tDisp
		met.Preemptions++
		l.events = append(l.events, Event{
			ID: c.id, Outcome: OutcomePreempted, Generation: c.gen,
			Sojourn: math.NaN(), Dispatch: math.NaN(), Service: math.NaN(),
			Worker: -1, End: tDisp,
		})
		ci = -1
	}
	if ci >= 0 {
		e := l.chunks[ci]
		l.chunks = append(l.chunks[:ci], l.chunks[ci+1:]...)
		l.observeDepth()

		sv, err := l.resolveAt(e, tDisp, bestW)
		if err != nil {
			return err
		}

		end := tDisp + sv
		l.st.free[bestW] = end
		l.st.busy[bestW] += sv
		l.st.served[bestW]++
		l.workByModel[e.model] += sv
		sp := l.splits[e.id]
		sp.remaining--
		sp.service += sv
		sp.worker = bestW
		if math.IsNaN(sp.firstDisp) {
			sp.firstDisp = tDisp
		}
		if end > sp.end {
			sp.end = end
		}
		if sp.remaining == 0 {
			l.complete(&e, OutcomeSplit, sp.size, sp.arrival, sp.firstDisp, sp.service, sp.worker, sp.end)
			delete(l.splits, e.id)
		}
		return nil
	}

	// Dispatch on bestW at tDisp: the policy picks among the queued
	// requests that are placed on this worker and have arrived.
	l.eligIdx = l.eligIdx[:0]
	l.elig = l.elig[:0]
	for i := range l.queue {
		if e := &l.queue[i]; e.arrival <= tDisp && here[e.model] {
			l.eligIdx = append(l.eligIdx, i)
			l.elig = append(l.elig, QueuedRequest{
				ID: e.id, Arrival: e.arrival, Deadline: e.deadline,
				Size: e.size, Model: e.model, Tenant: e.tenant, Priority: e.prio,
			})
		}
	}
	elig := l.elig
	pick := p.policy.Next(elig, tDisp)
	if pick < 0 || pick >= len(elig) {
		return fmt.Errorf("fleet: policy %s picked out-of-range candidate %d of %d", p.policy.Name(), pick, len(elig))
	}
	qi := l.eligIdx[pick]
	e := l.queue[qi]
	l.queue = append(l.queue[:qi], l.queue[qi+1:]...)
	l.queuedByTenant[e.tenant]--
	l.queuedByModel[e.model]--
	l.observeDepth()

	sv, err := l.resolveAt(e, tDisp, bestW)
	if err != nil {
		return err
	}

	switch {
	case p.cfg.Queue.Policy == trace.DegradeShed && tDisp+sv > e.deadline:
		l.shed(e.id, OutcomeShedDeadline, e.model, e.tenant, tDisp)
		return nil
	case p.cfg.Queue.Policy == trace.DegradeSplitTail && p.cfg.Queue.IsTail(e.size) && tDisp > e.deadline:
		// The tail request cannot even start before its deadline.
		l.shed(e.id, OutcomeShedDeadline, e.model, e.tenant, tDisp)
		return nil
	case p.cfg.Queue.Policy == trace.DegradeSplitTail && p.cfg.Queue.IsTail(e.size) && tDisp+sv > e.deadline:
		// Split-at-cap fallback, same semantics as the single-model
		// engine: the tail request re-enters dispatch as capped chunks
		// that route independently (chunks of one request can run on
		// several workers at once) and dispatch ahead of policy picks.
		// Chunks inherit the parent's generation: a split request is
		// still one admission and finishes on the schedule set it
		// arrived under.
		cs := p.cfg.Queue.ChunkSizes(e.size)
		l.splits[e.id] = &fleetSplit{remaining: len(cs), size: e.size, arrival: e.arrival, firstDisp: math.NaN()}
		for _, c := range cs {
			// Chunks carry the parent's priority so the preemption gate can
			// compare them against waiting whole requests.
			l.chunks = append(l.chunks, qentry{
				id: e.id, arrival: e.arrival, deadline: e.deadline,
				size: c, model: e.model, tenant: e.tenant, prio: e.prio, gen: e.gen,
			})
		}
		return nil
	}

	end := tDisp + sv
	l.st.free[bestW] = end
	l.st.busy[bestW] += sv
	l.st.served[bestW]++
	l.workByModel[e.model] += sv
	l.complete(&e, OutcomeServed, e.size, e.arrival, tDisp, sv, bestW, end)
	return nil
}

// complete books admission e's completion: a whole request served, or a
// split request whose last chunk ended (outcome OutcomeSplit). size is the
// full request size and arrival the original arrival; dispatch, service and
// w are the request's (a split's first dispatch, summed service and last
// chunk's worker), and end is when it finished.
func (l *Live) complete(e *qentry, outcome Outcome, size int, arrival, dispatch, service float64, w int, end float64) {
	met := l.met
	soj := end - arrival
	l.sojourn[e.id] = soj
	l.outcome[e.id] = outcome
	l.dispatch[e.id] = dispatch
	l.worker[e.id] = w
	l.service[e.id] = service
	split := 0
	if outcome == OutcomeSplit {
		split = 1
	}
	late := end > e.deadline
	met.Served++
	met.SplitServed += split
	met.Latency.Observe(soj)
	if late {
		met.Timeouts++
	}
	for _, g := range [...]*GroupMetrics{&met.Models[e.model], &met.Tenants[e.tenant]} {
		g.Served++
		g.SplitServed += split
		g.Latency.Observe(soj)
		if late {
			g.Timeouts++
		}
	}
	l.modelSojourns[e.model] = append(l.modelSojourns[e.model], soj)
	l.tenantSojourns[e.tenant] = append(l.tenantSojourns[e.tenant], soj)
	if end > l.lastEnd {
		l.lastEnd = end
	}
	l.serviceByModel[e.model] += service
	if end > l.lastEndByModel[e.model] {
		l.lastEndByModel[e.model] = end
	}
	if l.lcs[e.model] != nil {
		l.lcs[e.model].Observe(size, e.gen, end, soj)
	}
	l.events = append(l.events, Event{
		ID: e.id, Outcome: outcome, Generation: e.gen,
		Sojourn: soj, Dispatch: dispatch, Service: service,
		Worker: w, End: end,
	})
}

// hasUrgentWhole reports whether a whole queued request with strictly higher
// priority than prio has arrived and belongs to a model in here, the
// dispatching worker's placement mask — the condition under which a waiting
// split chunk yields its dispatch slot (Config.Preempt). One pass over the
// queue, O(queue), with no placement-row search per entry.
func (l *Live) hasUrgentWhole(here []bool, tDisp float64, prio int) bool {
	for i := range l.queue {
		if e := &l.queue[i]; e.prio > prio && e.arrival <= tDisp && here[e.model] {
			return true
		}
	}
	return false
}

// resolveAt resolves one dispatch's service time on worker w and, when the
// pool serves through an embedding-cache tier, charges the batch's cold
// traffic on top. This is the tier's single mutation point: every dispatch
// event — whole request or split chunk, batch replay or live gateway — passes
// through here in the same order, so cache state evolution is part of the
// deterministic replay contract. The device-class multiplier applies to the
// kernel time only — the cache penalty models PCIe fetches, which the class
// of the compute die does not change — and lands before the degradation
// policy's deadline check: a cold burst can push a request over its deadline
// exactly like a slow kernel can.
func (l *Live) resolveAt(e qentry, tDisp float64, w int) (float64, error) {
	sv, err := l.resolve(e)
	if err != nil {
		return 0, err
	}
	if s := l.p.classScale(e.model, l.st.class[w]); s != 1 {
		sv *= s
	}
	if c := l.p.cfg.Cache; c != nil {
		sv += c.Dispatch(e.model, e.tenant, tDisp, e.size)
	}
	return sv, nil
}

// resolve returns one queue entry's service time under its admission
// generation (supervised models) or the model's fixed service.
func (l *Live) resolve(e qentry) (float64, error) {
	var sv float64
	var err error
	if l.lcs[e.model] != nil {
		sv, err = l.lcs[e.model].Resolve(e.gen, e.arrival, e.size)
	} else {
		sv, err = l.p.models[e.model].Service(e.arrival, e.size)
	}
	if err == nil && sv < 0 {
		err = fmt.Errorf("fleet: negative service time %g for size %d", sv, e.size)
	}
	if err != nil {
		return 0, fmt.Errorf("fleet: model %s: %w", l.p.models[e.model].Name, err)
	}
	return sv, nil
}
