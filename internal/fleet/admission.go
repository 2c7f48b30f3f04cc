package fleet

import (
	"fmt"
	"math"

	"repro/internal/trace"
)

// Outcome records how the pool resolved one request.
type Outcome uint8

const (
	// OutcomeServed: dispatched and served (possibly late; see Timeouts).
	OutcomeServed Outcome = iota
	// OutcomeShedQueue: dropped on arrival at a full shared admission queue.
	OutcomeShedQueue
	// OutcomeShedQuota: dropped on arrival because the tenant's queue quota
	// was exhausted.
	OutcomeShedQuota
	// OutcomeShedLoad: dropped on arrival by load-aware early shedding — the
	// queue was near its bound and the tenant is below the pool's highest
	// priority class.
	OutcomeShedLoad
	// OutcomeShedDeadline: dropped at dispatch because the deadline could not
	// be met — under DegradeShed for any size, under DegradeSplitTail for a
	// tail request that cannot even start before its deadline.
	OutcomeShedDeadline
	// OutcomeSplit: a long-tail request served through the split-at-cap
	// degradation fallback (see trace.DegradeSplitTail); its chunks all
	// completed.
	OutcomeSplit
	// OutcomePreempted: an informational per-chunk resolution under
	// Config.Preempt — a queued split chunk lost its dispatch-ahead right to
	// a strictly higher-priority waiting request (or to an applied rebalance
	// / scale-in decision) and was requeued at the preemption time. It is
	// never a request's final outcome: the parent request still resolves as
	// OutcomeSplit (or a shed), with its sojourn measured from the original
	// arrival. Preempt events surface only in the live event stream and
	// Metrics.Preemptions; the gateway keeps them out of session logs.
	OutcomePreempted
)

func (o Outcome) String() string {
	switch o {
	case OutcomeServed:
		return "served"
	case OutcomeShedQueue:
		return "shed-queue"
	case OutcomeShedQuota:
		return "shed-quota"
	case OutcomeShedLoad:
		return "shed-load"
	case OutcomeShedDeadline:
		return "shed-deadline"
	case OutcomeSplit:
		return "split"
	case OutcomePreempted:
		return "preempted"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Shed reports whether the request was dropped without service.
func (o Outcome) Shed() bool {
	switch o {
	case OutcomeShedQueue, OutcomeShedQuota, OutcomeShedLoad, OutcomeShedDeadline:
		return true
	}
	return false
}

// QueuedRequest is the admission policy's view of one request: arrival,
// absolute deadline, and its model/tenant/priority tags. ID is the admission
// sequence number (arrival order), the deterministic last-resort tie-break.
type QueuedRequest struct {
	ID       int
	Arrival  float64
	Deadline float64 // absolute completion deadline; +Inf if none
	Size     int
	Model    int
	Tenant   int
	Priority int
}

// PoolLoad is the queue-occupancy snapshot an admission decision sees.
type PoolLoad struct {
	// Now is the arrival's virtual time.
	Now float64
	// Queued is the total number of queued (admitted, undispatched)
	// requests, excluding the arrival under decision. Split chunks awaiting
	// dispatch count too: they occupy the shared buffer exactly like whole
	// requests, matching the single-model engine's queue-bound accounting.
	Queued int
	// QueueDepth is the configured shared bound (0 = unbounded).
	QueueDepth int
	// QueuedByTenant counts queued requests per tenant.
	QueuedByTenant []int
}

// AdmissionPolicy decides who enters the shared queue and who dispatches
// next. Implementations must be deterministic — the pool replay is exact,
// and a nondeterministic policy would break reproducibility — and must not
// retain the slices they are handed.
type AdmissionPolicy interface {
	// Name labels the policy in reports.
	Name() string
	// Admit decides whether an arriving request enters the queue; on
	// rejection it returns the shed outcome to record (one of
	// OutcomeShedQueue, OutcomeShedQuota, OutcomeShedLoad).
	Admit(r QueuedRequest, load PoolLoad) (bool, Outcome)
	// Next selects which eligible queued request dispatches on a freed
	// worker, as an index into eligible. eligible is non-empty, ordered by
	// admission (ID ascending), and every entry has Arrival <= the dispatch
	// time.
	Next(eligible []QueuedRequest, now float64) int
}

// PriorityEDF is the default admission policy: strict priority classes with
// earliest-deadline-first dispatch within a class, per-tenant queue quotas,
// and optional load-aware early shedding of below-top-priority arrivals.
//
// Dispatch order: the highest Priority among eligible requests wins; within
// that class the earliest absolute deadline wins; deadline ties fall back to
// arrival time, then admission ID — so the policy degrades to FIFO when no
// deadlines are configured, and is total and deterministic always.
type PriorityEDF struct {
	tenants      []TenantSpec
	shedFraction float64
	maxPriority  int
}

// NewPriorityEDF builds the default policy over the pool's tenants.
// shedFraction arms load-aware early shedding (see Config.ShedFraction);
// 0 disables it.
func NewPriorityEDF(tenants []TenantSpec, shedFraction float64) *PriorityEDF {
	maxPrio := math.MinInt
	for _, t := range tenants {
		if t.Priority > maxPrio {
			maxPrio = t.Priority
		}
	}
	return &PriorityEDF{
		tenants:      append([]TenantSpec(nil), tenants...),
		shedFraction: shedFraction,
		maxPriority:  maxPrio,
	}
}

// Name implements AdmissionPolicy.
func (p *PriorityEDF) Name() string { return "priority-edf" }

// Admit implements AdmissionPolicy: tenant quota first (the tenant's own
// budget is the tightest bound), then load-aware early shedding, then the
// shared queue bound.
func (p *PriorityEDF) Admit(r QueuedRequest, load PoolLoad) (bool, Outcome) {
	if q := p.tenants[r.Tenant].Quota; q > 0 && load.QueuedByTenant[r.Tenant] >= q {
		return false, OutcomeShedQuota
	}
	if load.QueueDepth > 0 {
		if p.shedFraction > 0 && r.Priority < p.maxPriority &&
			float64(load.Queued) >= p.shedFraction*float64(load.QueueDepth) {
			return false, OutcomeShedLoad
		}
		if load.Queued >= load.QueueDepth {
			return false, OutcomeShedQueue
		}
	}
	return true, OutcomeServed
}

// Next implements AdmissionPolicy: EDF within the highest eligible priority
// class.
func (p *PriorityEDF) Next(eligible []QueuedRequest, _ float64) int {
	best := 0
	for i := 1; i < len(eligible); i++ {
		if edfBefore(eligible[i], eligible[best]) {
			best = i
		}
	}
	return best
}

// edfBefore reports whether a dispatches strictly before b under
// priority-then-EDF ordering.
func edfBefore(a, b QueuedRequest) bool {
	if a.Priority != b.Priority {
		return a.Priority > b.Priority
	}
	if a.Deadline != b.Deadline {
		return a.Deadline < b.Deadline
	}
	if a.Arrival != b.Arrival {
		return a.Arrival < b.Arrival
	}
	return a.ID < b.ID
}

// FIFO is the contrast policy: admission respects only the shared queue
// bound (no quotas, no early shedding) and dispatch is strict arrival order
// across all tenants — what a priority-blind pool would do. Useful as the
// baseline that shows what PriorityEDF buys the latency-critical tenant.
type FIFO struct{}

// Name implements AdmissionPolicy.
func (FIFO) Name() string { return "fifo" }

// Admit implements AdmissionPolicy.
func (FIFO) Admit(_ QueuedRequest, load PoolLoad) (bool, Outcome) {
	if load.QueueDepth > 0 && load.Queued >= load.QueueDepth {
		return false, OutcomeShedQueue
	}
	return true, OutcomeServed
}

// Next implements AdmissionPolicy: eligible is ordered by admission ID, so
// the head is the FIFO choice.
func (FIFO) Next([]QueuedRequest, float64) int { return 0 }

// singleModelFIFO is the single-model engine's admission rule, which only
// ServeSingle installs: FIFO dispatch, and a full queue sheds the arrival —
// except under DegradeSplitTail, where only an arriving long-tail request is
// shed. A normal arrival is admitted anyway, and Live.Admit evicts the
// victim to make room for it; with none queued the bound is soft, so a burst
// of batch traffic never drops an interactive request.
type singleModelFIFO struct{ q trace.QueuePolicy }

// Name implements AdmissionPolicy.
func (singleModelFIFO) Name() string { return "fifo" }

// Admit implements AdmissionPolicy.
func (s singleModelFIFO) Admit(r QueuedRequest, load PoolLoad) (bool, Outcome) {
	if load.QueueDepth > 0 && load.Queued >= load.QueueDepth &&
		(s.q.Policy != trace.DegradeSplitTail || s.q.IsTail(r.Size)) {
		return false, OutcomeShedQueue
	}
	return true, OutcomeServed
}

// Next implements AdmissionPolicy.
func (singleModelFIFO) Next([]QueuedRequest, float64) int { return 0 }

// victim returns the index of the queued request to shed so that an arrival
// Admit let into a full queue has room, or -1 for none: the youngest whole
// tail request. queue holds whole requests in admission order.
func (s singleModelFIFO) victim(queue []qentry, load PoolLoad) int {
	if load.QueueDepth == 0 || load.Queued < load.QueueDepth {
		return -1
	}
	for j := len(queue) - 1; j >= 0; j-- {
		if s.q.IsTail(queue[j].size) {
			return j
		}
	}
	return -1
}

// ParsePolicy maps a policy name to its implementation over the given
// tenants — the flag-parsing entry used by recflex-serve's -policy flag.
// weights configures the weighted-fair policy's per-priority-class dispatch
// weights (see WeightedFairConfig.Weights) and is ignored by the others.
func ParsePolicy(name string, tenants []TenantSpec, shedFraction float64, weights map[int]float64) (AdmissionPolicy, error) {
	switch name {
	case "priority-edf", "priority", "edf":
		return NewPriorityEDF(tenants, shedFraction), nil
	case "weighted-fair", "wfq", "drr":
		return NewWeightedFair(tenants, WeightedFairConfig{Weights: weights, ShedFraction: shedFraction})
	case "fifo":
		return FIFO{}, nil
	}
	return nil, fmt.Errorf("fleet: unknown admission policy %q (want priority-edf, weighted-fair or fifo)", name)
}
