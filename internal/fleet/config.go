package fleet

import (
	"fmt"
	"math"

	"repro/internal/emcache"
	"repro/internal/trace"
)

// TenantSpec describes one traffic class sharing the pool: its admission
// priority, queue quota and default latency deadline. Tenants are the
// serving-side counterpart of the paper's feature heterogeneity — production
// recommendation fleets co-locate interactive ranking traffic with batch
// re-scoring on the same accelerators, and the admission policy is what
// keeps the former's tail latency intact.
type TenantSpec struct {
	// Name labels the tenant in metrics and reports.
	Name string
	// Priority orders dispatch: a higher value dispatches strictly before
	// any lower one (see PriorityEDF). Equal priorities form one class.
	Priority int
	// Quota bounds the tenant's queued (admitted, not yet dispatched)
	// requests; an arrival past it is shed with OutcomeShedQuota. 0 means
	// unlimited.
	Quota int
	// Deadline is the default per-request completion deadline in seconds
	// for this tenant's requests; 0 falls back to the pool's default.
	// Deadlines drive EDF ordering within a priority class and the
	// DegradeShed policy's dispatch-time shedding.
	Deadline float64
}

// Validate checks one tenant spec.
func (t *TenantSpec) Validate() error {
	switch {
	case t.Name == "":
		return fmt.Errorf("fleet: tenant name must be non-empty")
	case t.Quota < 0:
		return fmt.Errorf("fleet: tenant %s: Quota must be >= 0, got %d", t.Name, t.Quota)
	case t.Deadline < 0:
		return fmt.Errorf("fleet: tenant %s: Deadline must be >= 0, got %g", t.Name, t.Deadline)
	}
	return nil
}

// Model is one served model on the pool: either a static service (Service
// set — the schedules never change) or a supervised one (Supervisor set —
// the model keeps its own drift detection, background re-tunes, hot-swaps
// and canary rollbacks while sharing pool capacity). Exactly one of the two
// must be set.
type Model struct {
	// Name labels the model in metrics and reports.
	Name string
	// Service is the model's fixed schedule set (generation 0 forever).
	Service trace.TimedServiceFunc
	// Supervisor owns the model's continuous-serving control. The pool
	// holds its run lock for the duration of Serve, so generations stay
	// monotone on the supervisor's LiveSet exactly as under
	// trace.Supervisor.Run.
	Supervisor *trace.Supervisor
	// Reserve is the model's exclusive worker floor under packed or spread
	// placement: assign() carves this many of the lowest-indexed workers out
	// of the shared set for this model alone, rebalance assignments must keep
	// at least Reserve workers exclusive to the model, the autoscaler never
	// drains a reserved worker, and the model's background re-tunes prefer
	// its reserved workers — the "tune on a dedicated spare" discipline.
	// 0 means no reservation. Rejected under dedicated placement, where every
	// worker is already exclusive.
	Reserve int
	// ClassScale is the model's per-worker-class service-time multiplier: a
	// dispatch on a worker of class c runs the resolved service time times
	// ClassScale[c] (missing entries and nil default to 1). This is how a
	// pool mixes V100-class and A100-class workers: the caller measures the
	// scale per device class (core/experiments probe each class's tuned
	// schedule), so a schedule tuned for one SM/DRAM shape honestly runs at
	// that shape's speed and nowhere else. The scale applies to the model's
	// resolved service only — an embedding-cache tier's PCIe penalty is
	// transfer-bound and stays class-independent.
	ClassScale []float64
}

// Validate checks one model spec.
func (m *Model) Validate() error {
	switch {
	case m.Name == "":
		return fmt.Errorf("fleet: model name must be non-empty")
	case m.Service == nil && m.Supervisor == nil:
		return fmt.Errorf("fleet: model %s: one of Service or Supervisor must be set", m.Name)
	case m.Service != nil && m.Supervisor != nil:
		return fmt.Errorf("fleet: model %s: Service and Supervisor are mutually exclusive", m.Name)
	case m.Reserve < 0:
		return fmt.Errorf("fleet: model %s: Reserve must be >= 0, got %d", m.Name, m.Reserve)
	}
	for c, s := range m.ClassScale {
		if !(s > 0) || math.IsInf(s, 1) {
			return fmt.Errorf("fleet: model %s: ClassScale[%d] must be positive and finite, got %g", m.Name, c, s)
		}
	}
	return nil
}

// Config shapes the pool.
type Config struct {
	// Queue is the shared queue policy: Workers is the pool size,
	// QueueDepth the shared admission-queue bound, Deadline the pool-wide
	// default, Policy the degradation policy, SplitCap the long-tail split
	// threshold. Under DegradeSplitTail with SplitCap > 0 the pool applies
	// the single-model engine's split-at-cap fallback at dispatch time: a
	// tail request that would miss its deadline as one kernel is split into
	// capped chunks that dispatch ahead of the policy's picks (a split
	// request was already chosen once; finishing it promptly is the point).
	// Unlike the single-model engine, a full queue stays entirely the
	// admission policy's decision — there is no tail eviction or soft bound;
	// chunks do count toward the policy's queue-occupancy view.
	Queue trace.QueuePolicy
	// Placement assigns models to workers (see Strategy).
	Placement Strategy
	// Admission decides who enters the queue and who dispatches next; nil
	// means NewPriorityEDF over the pool's tenants with ShedFraction.
	Admission AdmissionPolicy
	// ShedFraction arms load-aware early shedding in the default admission
	// policy: once queue occupancy reaches this fraction of QueueDepth, an
	// arrival from any tenant below the pool's highest priority class is
	// shed (OutcomeShedLoad), keeping the remaining headroom for the
	// latency-critical class. 0 disables; requires a bounded queue to have
	// any effect. Ignored when a custom Admission policy is supplied.
	ShedFraction float64
	// RebalanceEvery invokes the Rebalance hook at the first arrival at
	// least this many virtual seconds after the previous invocation; 0
	// disables rebalancing.
	RebalanceEvery float64
	// Rebalance is the load-aware placement hook (nil = keep the initial
	// assignment). Mutually exclusive with Autoscale: the autoscaler owns
	// the pool's shape when armed.
	Rebalance RebalanceFunc
	// Preempt arms chunk-boundary preemption: a queued split chunk normally
	// dispatches ahead of any policy pick, but with Preempt set it yields
	// when a strictly higher-priority whole request is waiting on the same
	// worker — the chunk requeues at the preemption time (an OutcomePreempted
	// event per chunk, counted in Metrics.Preemptions) and the policy picks
	// instead. An applied rebalance or scale-in likewise requeues every
	// queued chunk, modeling the migration cost. The parent request's final
	// outcome and sojourn accounting are unchanged: preemption only delays
	// its remaining chunks. With a single priority class preemption never
	// fires and replay is bit-identical to a preemption-free pool.
	Preempt bool
	// WorkerClasses assigns each initial worker a device-class index (one
	// entry per Queue.EffectiveWorkers() worker); nil means every worker is
	// class 0. The class selects each model's ClassScale entry at dispatch —
	// this is how the pool mixes simulated V100-class and A100-class devices.
	WorkerClasses []int
	// ClassNames optionally labels the worker classes (e.g. "V100", "A100")
	// for reports. When set, every class index referenced by WorkerClasses,
	// Autoscale.Class or a model's ClassScale must be within it.
	ClassNames []string
	// Autoscale, when set, lets the pool grow and shrink between
	// Autoscale.Min and Autoscale.Max workers from the same windowed demand
	// signal RebalanceByLoad consumes, with scale-out lag and
	// drain-before-remove semantics. Restricted to packed/spread placement.
	Autoscale *AutoscaleConfig
	// Cache, when set, is the shared embedding-cache tier every dispatched
	// request consults and mutates: cold rows are charged to the request's
	// service time through the PCIe fault model, fills warm the tier, and
	// the tier's heat tracker may re-allocate the budget online. The tier
	// must be built for exactly this pool's model and tenant counts. Cache
	// state evolves only at dispatch events and Begin resets it, so batch
	// replay, the live gateway and session replay stay bit-identical on a
	// reused pool.
	Cache *emcache.Tier
}

// Validate checks the pool configuration against the given model and tenant
// counts.
func (c *Config) Validate(models, tenants int) error {
	if err := c.Queue.Validate(); err != nil {
		return err
	}
	switch {
	case models <= 0:
		return fmt.Errorf("fleet: need at least one model")
	case tenants <= 0:
		return fmt.Errorf("fleet: need at least one tenant")
	case c.Placement < PlacementPacked || c.Placement > PlacementDedicated:
		return fmt.Errorf("fleet: unknown placement strategy %d", int(c.Placement))
	case c.ShedFraction < 0 || c.ShedFraction > 1:
		return fmt.Errorf("fleet: ShedFraction %g outside [0,1]", c.ShedFraction)
	case c.ShedFraction > 0 && c.Queue.QueueDepth == 0:
		// Load-aware shedding triggers at ShedFraction * QueueDepth queued
		// requests; over an unbounded queue the threshold is 0 * anything and
		// the feature silently never fires. Reject the dead combination
		// instead of letting it masquerade as protection.
		return fmt.Errorf("fleet: ShedFraction %g requires a bounded queue (QueueDepth > 0): load-aware shedding never fires over an unbounded queue", c.ShedFraction)
	case c.RebalanceEvery < 0:
		return fmt.Errorf("fleet: RebalanceEvery must be >= 0, got %g", c.RebalanceEvery)
	}
	if c.Placement == PlacementDedicated && c.Queue.EffectiveWorkers() < models {
		return fmt.Errorf("fleet: dedicated placement needs at least one worker per model (%d workers, %d models)",
			c.Queue.EffectiveWorkers(), models)
	}
	if c.Cache != nil {
		if c.Cache.Models() != models {
			return fmt.Errorf("fleet: cache tier built for %d models, pool has %d", c.Cache.Models(), models)
		}
		if c.Cache.Tenants() != tenants {
			return fmt.Errorf("fleet: cache tier built for %d tenants, pool has %d", c.Cache.Tenants(), tenants)
		}
	}
	if len(c.WorkerClasses) != 0 && len(c.WorkerClasses) != c.Queue.EffectiveWorkers() {
		return fmt.Errorf("fleet: WorkerClasses has %d entries for %d workers (must cover every worker or be nil)",
			len(c.WorkerClasses), c.Queue.EffectiveWorkers())
	}
	for w, cls := range c.WorkerClasses {
		if cls < 0 {
			return fmt.Errorf("fleet: WorkerClasses[%d] is negative (%d)", w, cls)
		}
		if len(c.ClassNames) > 0 && cls >= len(c.ClassNames) {
			return fmt.Errorf("fleet: WorkerClasses[%d] = %d outside the %d named classes", w, cls, len(c.ClassNames))
		}
	}
	if c.Autoscale != nil {
		if c.Placement == PlacementDedicated {
			return fmt.Errorf("fleet: Autoscale requires packed or spread placement (a dedicated partition has no shared workers to grow)")
		}
		if c.Rebalance != nil {
			return fmt.Errorf("fleet: Autoscale and Rebalance are mutually exclusive (the autoscaler owns the pool's shape)")
		}
		if err := c.Autoscale.Validate(c.Queue.EffectiveWorkers()); err != nil {
			return err
		}
		if len(c.ClassNames) > 0 && c.Autoscale.Class >= len(c.ClassNames) {
			return fmt.Errorf("fleet: Autoscale.Class %d outside the %d named classes", c.Autoscale.Class, len(c.ClassNames))
		}
	}
	return nil
}

// Request is one inference request in a fleet stream: a trace.Request tagged
// with the model it targets and the tenant it belongs to.
type Request struct {
	// Arrival is the arrival time in seconds from stream start.
	Arrival float64
	// Size is the batch size (samples).
	Size int
	// Deadline is an optional per-request completion deadline in seconds
	// after Arrival; 0 falls back to the tenant default, then the pool
	// default.
	Deadline float64
	// Model indexes the pool's model list.
	Model int
	// Tenant indexes the pool's tenant list.
	Tenant int
}

// Stream tags one single-model request trace with its model and tenant, for
// Merge.
type Stream struct {
	Model, Tenant int
	Reqs          []trace.Request
}

// Merge combines per-(model, tenant) request streams into one
// arrival-ordered fleet stream. The merge is stable: simultaneous arrivals
// keep their stream order, so a merged trace is a deterministic function of
// its inputs.
func Merge(streams ...Stream) []Request {
	var out []Request
	for _, s := range streams {
		for _, r := range s.Reqs {
			out = append(out, Request{
				Arrival:  r.Arrival,
				Size:     r.Size,
				Deadline: r.Deadline,
				Model:    s.Model,
				Tenant:   s.Tenant,
			})
		}
	}
	sortRequests(out)
	return out
}
