// Package fleet serves several independently tuned models and several
// tenant classes over one shared set of simulated GPU workers — the
// deployment shape of production recommendation fleets, where interactive
// ranking, batch re-scoring and experimental models co-locate on the same
// accelerators. It owns the three concerns single-model serving
// (internal/trace) does not have:
//
//   - placement: which workers each model may run on (packed, spread or
//     dedicated, with optional per-model reserved workers);
//   - admission: which arrival enters the shared queue and which queued
//     request dispatches next (pluggable AdmissionPolicy; the default is
//     strict priority classes with earliest-deadline-first dispatch within
//     a class, per-tenant queue quotas and load-aware early shedding, and
//     WeightedFair replaces strict priority with deficit-round-robin so no
//     positively weighted class can be starved);
//   - accounting: per-model and per-tenant metrics, plus the cross-model
//     interference view (sojourn inflation against each model served alone
//     on its own workers).
//
// Supervised models keep their full continuous-serving semantics — drift
// detection, background re-tunes booked on their placed workers, hot-swaps,
// canary rollbacks — through trace.LoopControl, the per-admission drift
// control. ServeSingle is the supervised single-model serving loop: a
// one-model, one-tenant pool under the single-model engine's admission rule.
// Like the single-model engine, the replay is exact and deterministic: the
// same stream, models, tenants and configuration always produce the same
// Report.
package fleet

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/trace"
)

// Pool serves a fleet of models and tenants over shared simulated GPU
// workers. Create it with NewPool, then replay streams with Serve. A Pool is
// safe to reuse across Serve calls; calls are serialized per supervised
// model by the supervisors' own run locks.
type Pool struct {
	cfg     Config
	models  []Model
	tenants []TenantSpec
	policy  AdmissionPolicy
	initial Assignment
	// reserved is the count of exclusively reserved workers under
	// packed/spread placement: worker ids [0, reserved) belong to exactly one
	// model each (assign carves them lowest-index-first in model order). The
	// autoscaler never drains them.
	reserved int
	// reserves holds each model's Config.Reserve floor (0 for every model
	// without one) for tune placement.
	reserves []int
	// single is the single-model admission rule when it is the policy, nil
	// otherwise: Live.Admit asks it for a queued request to evict.
	single *singleModelFIFO
}

// NewPool validates the configuration and builds the pool.
func NewPool(cfg Config, models []Model, tenants []TenantSpec) (*Pool, error) {
	if err := cfg.Validate(len(models), len(tenants)); err != nil {
		return nil, err
	}
	seenSv := make(map[*trace.Supervisor]string)
	maxClass := 0
	for i := range models {
		if err := models[i].Validate(); err != nil {
			return nil, err
		}
		if sv := models[i].Supervisor; sv != nil {
			if prev, dup := seenSv[sv]; dup {
				return nil, fmt.Errorf("fleet: models %s and %s share one supervisor; each supervised model needs its own", prev, models[i].Name)
			}
			seenSv[sv] = models[i].Name
		}
		if len(models[i].ClassScale) > maxClass {
			maxClass = len(models[i].ClassScale)
		}
	}
	if len(cfg.ClassNames) > 0 && maxClass > len(cfg.ClassNames) {
		return nil, fmt.Errorf("fleet: a model's ClassScale covers %d classes, pool names only %d", maxClass, len(cfg.ClassNames))
	}
	for i := range tenants {
		if err := tenants[i].Validate(); err != nil {
			return nil, err
		}
	}
	reserves := make([]int, len(models))
	totalRes := 0
	for m, r := range cfg.Reserve {
		reserves[m] = r
		totalRes += r
	}
	policy := cfg.Admission
	if policy == nil {
		policy = NewPriorityEDF(tenants, cfg.ShedFraction)
	}
	var single *singleModelFIFO
	if s, ok := policy.(singleModelFIFO); ok {
		single = &s
	}
	return &Pool{
		cfg:      cfg,
		models:   append([]Model(nil), models...),
		tenants:  append([]TenantSpec(nil), tenants...),
		policy:   policy,
		initial:  assign(cfg.Placement, len(models), cfg.Queue.EffectiveWorkers(), reserves),
		reserved: totalRes,
		reserves: reserves,
		single:   single,
	}, nil
}

// classScale returns model m's service-time multiplier on a worker of the
// given class; 1 for classes past the model's ClassScale.
func (p *Pool) classScale(m, class int) float64 {
	if cs := p.models[m].ClassScale; class < len(cs) {
		return cs[class]
	}
	return 1
}

// Config returns the pool configuration.
func (p *Pool) Config() Config { return p.cfg }

// Policy returns the admission policy shaping the pool.
func (p *Pool) Policy() AdmissionPolicy { return p.policy }

// InitialAssignment returns a copy of the strategy's initial model-to-worker
// assignment.
func (p *Pool) InitialAssignment() Assignment { return p.initial.clone() }

// qentry is one queued admission.
type qentry struct {
	id       int // admission id = sorted stream position
	arrival  float64
	deadline float64
	size     int
	model    int
	tenant   int
	prio     int
	gen      int
}

// fleetSplit tracks an in-flight split request until its last chunk lands.
type fleetSplit struct {
	remaining int
	size      int     // the parent request's full size
	arrival   float64 // the parent request's arrival (chunk arrivals move on preemption)
	end       float64 // latest chunk completion so far
	service   float64 // summed chunk service time
	firstDisp float64 // first chunk's dispatch time
	worker    int     // worker of the last-dispatched chunk
}

// poolRun is the mutable state of one replay.
type poolRun struct {
	p   *Pool
	asg Assignment

	free, busy, tune []float64 // per worker
	served           []int     // per worker
	class            []int     // per worker device class (Config.WorkerClasses)
	tuneByModel      []float64
}

// modelOccupier books one model's background work (its re-tunes) on the
// least-loaded worker currently placed for that model, implementing
// trace.Occupier.
type modelOccupier struct {
	run   *poolRun
	model int
}

func (o *modelOccupier) Occupy(now, dur float64) (worker int, start, end float64) {
	st := o.run
	workers := st.asg[o.model]
	// A model with reserved workers books its tunes on them first: the point
	// of a reservation is a dedicated spare, so background work lands there
	// instead of contending on the shared pool.
	if st.p.reserves[o.model] > 0 {
		if excl := st.exclusiveWorkers(o.model); len(excl) > 0 {
			workers = excl
		}
	}
	best := workers[0]
	for _, w := range workers[1:] {
		if st.free[w] < st.free[best] {
			best = w
		}
	}
	start = st.free[best]
	if now > start {
		start = now
	}
	end = start + dur
	st.free[best] = end
	st.tune[best] += dur
	st.tuneByModel[o.model] += dur
	return best, start, end
}

// exclusiveWorkers returns the workers in model m's current placement that
// appear in no other model's row — its reserved spares under the live
// assignment (the autoscaler never drains a reserved worker, so the floor
// holds).
func (st *poolRun) exclusiveWorkers(m int) []int {
	var out []int
	for _, w := range st.asg[m] {
		shared := false
		for n := range st.asg {
			if n == m {
				continue
			}
			if placedOn(st.asg, n, w) {
				shared = true
				break
			}
		}
		if !shared {
			out = append(out, w)
		}
	}
	return out
}

// arrivalOrder mirrors trace.arrivalOrder for fleet streams: a stable
// arrival sort plus the sorted-position -> caller-index mapping (nil when
// already sorted).
func arrivalOrder(reqs []Request) ([]Request, []int) {
	sorted := true
	for i := 1; i < len(reqs); i++ {
		if reqs[i].Arrival < reqs[i-1].Arrival {
			sorted = false
			break
		}
	}
	if sorted {
		return reqs, nil
	}
	order := make([]int, len(reqs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return reqs[order[a]].Arrival < reqs[order[b]].Arrival
	})
	out := make([]Request, len(reqs))
	for pos, idx := range order {
		out[pos] = reqs[idx]
	}
	return out, order
}

func originalIndex(order []int, pos int) int {
	if order == nil {
		return pos
	}
	return order[pos]
}

// deadlineOf resolves a request's absolute deadline: its own, then the
// tenant default, then the pool default; +Inf when none applies.
func (p *Pool) deadlineOf(r Request) float64 {
	d := r.Deadline
	if d == 0 {
		d = p.tenants[r.Tenant].Deadline
	}
	if d == 0 {
		d = p.cfg.Queue.Deadline
	}
	if d == 0 {
		return math.Inf(1)
	}
	return r.Arrival + d
}

// betterWorker reports whether worker w beats worker best for a dispatch at
// equal earliest-start time, under the pool's placement strategy: packed and
// dedicated consolidate onto the lowest index, spread balances onto the
// least-occupied worker.
func (st *poolRun) betterWorker(w, best int) bool {
	if st.p.cfg.Placement == PlacementSpread {
		ow, ob := st.busy[w]+st.tune[w], st.busy[best]+st.tune[best]
		if ow != ob {
			return ow < ob
		}
	}
	return w < best
}

// Serve replays the fleet stream and returns the exact virtual-time Report.
// Out-of-order input is sorted on entry; all per-request slices stay aligned
// with the caller's indices. Supervised models' drift control runs inside
// the replay (their swap histories land in ModelReports), and each
// supervisor's metrics snapshot is installed.
//
// Serve is a thin batch driver over the incremental Live engine: Begin,
// Admit every request in arrival order, Close. A live gateway session runs
// the identical code path one arrival at a time, which is what makes a
// recorded session replay bit-identically through Serve.
func (p *Pool) Serve(reqs []Request) (*Report, error) {
	if len(reqs) == 0 {
		return nil, fmt.Errorf("fleet: empty request stream")
	}
	for i, r := range reqs {
		if err := p.validateRequest(i, r); err != nil {
			return nil, err
		}
	}
	sorted, order := arrivalOrder(reqs)
	l := p.Begin()
	l.reserve(len(sorted))
	for i := range sorted {
		if _, _, err := l.Admit(sorted[i]); err != nil {
			l.Abort()
			return nil, err
		}
	}
	rep, _, err := l.closeWith(reqs, order)
	if err != nil {
		l.Abort()
		return nil, err
	}
	return rep, nil
}

// ServeSingle serves one model's request stream on a one-model, one-tenant
// pool shaped by q and returns the model's report. The pool runs the
// single-model engine's rules: FIFO dispatch to the earliest-starting worker
// (lowest index on ties), per-request deadlines, split-at-cap degradation
// and, under DegradeSplitTail, a queue bound that sheds arriving tails and
// evicts a queued tail for a normal arrival. A supervised model keeps its
// drift detection, background re-tunes, hot-swaps and canary rollbacks, and
// its supervisor's metrics snapshot is installed. The report matches
// trace.Server's over the same static service bit for bit, except for the
// queue-depth series, which the pool does not record. Out-of-order input is
// sorted on entry; per-request slices stay aligned with the caller's
// indices.
func ServeSingle(q trace.QueuePolicy, m Model, reqs []trace.Request) (*trace.Report, error) {
	p, err := NewPool(Config{Queue: q, Admission: singleModelFIFO{q}}, []Model{m}, []TenantSpec{{Name: m.Name}})
	if err != nil {
		return nil, err
	}
	stream := make([]Request, len(reqs))
	for i, r := range reqs {
		stream[i] = Request{Arrival: r.Arrival, Size: r.Size, Deadline: r.Deadline}
	}
	rep, err := p.Serve(stream)
	if err != nil {
		return nil, err
	}
	return rep.ModelReports[0], nil
}

// placedOn reports whether model m may run on worker w under asg.
func placedOn(asg Assignment, m, w int) bool {
	for _, x := range asg[m] {
		if x == w {
			return true
		}
	}
	return false
}

// traceOutcome maps each final pool outcome onto the single-model engine's;
// shed causes carry through one for one.
var traceOutcome = [...]trace.Outcome{
	OutcomeServed:       trace.OutcomeServed,
	OutcomeShedQueue:    trace.OutcomeShedQueue,
	OutcomeShedQuota:    trace.OutcomeShedQuota,
	OutcomeShedLoad:     trace.OutcomeShedLoad,
	OutcomeShedDeadline: trace.OutcomeShedDeadline,
	OutcomeSplit:        trace.OutcomeSplit,
}

// modelReport builds model m's single-model view of a fleet run: its own
// requests in caller order, with sojourns, outcomes and generation stamps,
// and a trace.Metrics whose counters, histogram and percentiles are the
// model's GroupMetrics (finalized first) and whose makespan runs from the
// model's first arrival to its last completion. A one-model pool's view also
// carries the pool's worker stats, peak queue depth and serving utilization,
// which makes it the whole single-model engine report.
func (l *Live) modelReport(m int, reqs []Request, rep *Report) *trace.Report {
	g := &l.met.Models[m]
	tm := &trace.Metrics{
		Served:        g.Served,
		SplitServed:   g.SplitServed,
		Timeouts:      g.Timeouts,
		DeadlineSheds: g.ShedDeadline,
		QueueSheds:    g.ShedQueue,
		QuotaSheds:    g.ShedQuota,
		LoadSheds:     g.ShedLoad,
		Latency:       g.Latency,
		TuneBusy:      l.st.tuneByModel[m],
	}
	out := &trace.Report{
		Result:  trace.Result{Served: g.Served, P50: g.P50, P95: g.P95, P99: g.P99},
		Metrics: tm,
	}
	first := math.Inf(1)
	for i, r := range reqs {
		if r.Model != m {
			continue
		}
		first = math.Min(first, r.Arrival)
		out.Sojourn = append(out.Sojourn, rep.Sojourn[i])
		out.Outcomes = append(out.Outcomes, traceOutcome[rep.Outcomes[i]])
		out.Generations = append(out.Generations, rep.Generations[i])
	}
	if g.Served > 0 {
		out.MeanService = l.serviceByModel[m] / float64(g.Served)
	}
	// Like the single-model engine, a model that served nothing spans 0.
	if tm.Makespan = l.lastEndByModel[m] - first; tm.Makespan < 0 {
		tm.Makespan = 0
	}
	if len(l.p.models) == 1 {
		tm.Workers = append([]trace.WorkerStats(nil), l.met.Workers...)
		tm.MaxQueueDepth = l.met.MaxQueueDepth
		if tm.Makespan > 0 {
			out.Utilization = l.workByModel[m] / (tm.Makespan * float64(len(l.st.free)))
		}
	}
	return out
}

// Interference quantifies cross-model contention in a fleet run: for each
// model, the ratio of its mean served sojourn in rep to the mean sojourn of
// the same requests — with the exact service times the fleet run resolved —
// replayed alone by least-loaded dispatch on the model's initially assigned
// workers. A ratio near 1 means co-location cost the model nothing
// (dedicated placement should sit here); above 1 is the sojourn inflation
// its neighbors caused. NaN for a model that served nothing.
func (p *Pool) Interference(reqs []Request, rep *Report) ([]float64, error) {
	if len(rep.Sojourn) != len(reqs) || len(rep.Service) != len(reqs) {
		return nil, fmt.Errorf("fleet: report does not match the request stream (%d sojourns, %d requests)", len(rep.Sojourn), len(reqs))
	}
	// Arrival order over caller indices, matching the replay.
	idx := make([]int, len(reqs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return reqs[idx[a]].Arrival < reqs[idx[b]].Arrival })

	out := make([]float64, len(p.models))
	for m := range p.models {
		kM := len(p.initial[m])
		free := make([]float64, kM)
		var fleetSum, soloSum float64
		count := 0
		for _, i := range idx {
			r := reqs[i]
			if r.Model != m || rep.Outcomes[i] != OutcomeServed {
				continue
			}
			best := 0
			for g := 1; g < kM; g++ {
				if free[g] < free[best] {
					best = g
				}
			}
			start := math.Max(r.Arrival, free[best])
			free[best] = start + rep.Service[i]
			soloSum += free[best] - r.Arrival
			fleetSum += rep.Sojourn[i]
			count++
		}
		if count == 0 || soloSum == 0 {
			out[m] = math.NaN()
			continue
		}
		out[m] = fleetSum / soloSum
	}
	return out, nil
}
