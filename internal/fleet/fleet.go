// Package fleet serves several independently tuned models and several
// tenant classes over one shared set of simulated GPU workers — the
// deployment shape of production recommendation fleets, where interactive
// ranking, batch re-scoring and experimental models co-locate on the same
// accelerators. It owns the three concerns single-model serving
// (internal/trace) does not have:
//
//   - placement: which workers each model may run on (packed, spread or
//     dedicated, with a load-aware rebalancing hook);
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
// canary rollbacks — through trace.LoopControl, the per-admission control
// extracted from trace.Supervisor.Run. Like the single-model engine, the
// replay is exact and deterministic: the same stream, models, tenants and
// configuration always produce the same Report.
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
	// reserves caches each model's Reserve floor for rebalance validation.
	reserves []int
}

// NewPool validates the configuration and builds the pool.
func NewPool(cfg Config, models []Model, tenants []TenantSpec) (*Pool, error) {
	if err := cfg.Validate(len(models), len(tenants)); err != nil {
		return nil, err
	}
	seenSv := make(map[*trace.Supervisor]string)
	reserves := make([]int, len(models))
	totalRes := 0
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
		if models[i].Reserve > 0 && cfg.Placement == PlacementDedicated {
			return nil, fmt.Errorf("fleet: model %s: Reserve needs packed or spread placement (dedicated already partitions the pool)", models[i].Name)
		}
		reserves[i] = models[i].Reserve
		totalRes += models[i].Reserve
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
	initial, err := assign(cfg.Placement, len(models), cfg.Queue.EffectiveWorkers(), reserves)
	if err != nil {
		return nil, err
	}
	policy := cfg.Admission
	if policy == nil {
		policy = NewPriorityEDF(tenants, cfg.ShedFraction)
	}
	if cfg.Placement == PlacementDedicated {
		totalRes = 0
	}
	return &Pool{
		cfg:      cfg,
		models:   append([]Model(nil), models...),
		tenants:  append([]TenantSpec(nil), tenants...),
		policy:   policy,
		initial:  initial,
		reserved: totalRes,
		reserves: reserves,
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
// assignment (a rebalance may reshape the rows, but validateReserves keeps
// the floor).
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
// supervisor's metrics snapshot is installed as if Run had been called.
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

// placedOn reports whether model m may run on worker w under asg.
func placedOn(asg Assignment, m, w int) bool {
	for _, x := range asg[m] {
		if x == w {
			return true
		}
	}
	return false
}

// modelReport builds model m's single-model view of a fleet run: its own
// requests in caller order, with sojourns, outcomes (shed causes carried
// through one-for-one), generation stamps and a trace.Metrics carrying the
// model's latency histogram and tune time.
func (p *Pool) modelReport(m int, reqs []Request, rep *Report, tuneBusy float64) *trace.Report {
	var sojourns []float64
	var outcomes []trace.Outcome
	var gens []int
	tm := &trace.Metrics{Latency: trace.NewLatencyHistogram(), TuneBusy: tuneBusy}
	firstArr, lastEnd := math.Inf(1), math.Inf(-1)
	var served []float64
	var totalService float64
	for i, r := range reqs {
		if r.Model != m {
			continue
		}
		sojourns = append(sojourns, rep.Sojourn[i])
		gens = append(gens, rep.Generations[i])
		if r.Arrival < firstArr {
			firstArr = r.Arrival
		}
		switch rep.Outcomes[i] {
		case OutcomeServed, OutcomeSplit:
			end := rep.Dispatch[i] + rep.Service[i]
			if rep.Outcomes[i] == OutcomeSplit {
				outcomes = append(outcomes, trace.OutcomeSplit)
				tm.SplitServed++
				// A split's chunks interleave with other work, so its end is
				// not dispatch+service; the sojourn carries it exactly.
				end = r.Arrival + rep.Sojourn[i]
			} else {
				outcomes = append(outcomes, trace.OutcomeServed)
			}
			tm.Served++
			tm.Latency.Observe(rep.Sojourn[i])
			served = append(served, rep.Sojourn[i])
			totalService += rep.Service[i]
			if end > lastEnd {
				lastEnd = end
			}
			if end > p.deadlineOf(r) {
				tm.Timeouts++
			}
		case OutcomeShedDeadline:
			outcomes = append(outcomes, trace.OutcomeShedDeadline)
			tm.DeadlineSheds++
		case OutcomeShedQuota:
			// Shed causes survive the translation one-for-one: a per-model
			// trace view must not misreport why requests were dropped.
			outcomes = append(outcomes, trace.OutcomeShedQuota)
			tm.QuotaSheds++
		case OutcomeShedLoad:
			outcomes = append(outcomes, trace.OutcomeShedLoad)
			tm.LoadSheds++
		default:
			outcomes = append(outcomes, trace.OutcomeShedQueue)
			tm.QueueSheds++
		}
	}
	var q trace.Quantiler
	p50, p95, p99 := q.P50P95P99(served)
	out := &trace.Report{
		Result: trace.Result{
			Sojourn: sojourns,
			Served:  len(served),
			P50:     p50,
			P95:     p95,
			P99:     p99,
		},
		Outcomes:    outcomes,
		Generations: gens,
		Metrics:     tm,
	}
	if len(served) > 0 {
		out.MeanService = totalService / float64(len(served))
	}
	if !math.IsInf(firstArr, 1) && !math.IsInf(lastEnd, -1) {
		tm.Makespan = lastEnd - firstArr
		if tm.Makespan < 0 {
			tm.Makespan = 0
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
