package trace

import (
	"fmt"
	"math"
)

// DegradePolicy selects what the serving engine does with a request whose
// deadline cannot be met at dispatch time.
type DegradePolicy int

const (
	// DegradeSplitTail is the default serving policy. An unsplit long-tail
	// request (Size > SplitCap) that would miss its deadline as one kernel
	// is split at the cap into chunks — the split-at-cap fallback. Each
	// chunk re-enters least-loaded dispatch as its own unit of work, reusing
	// the fused kernel's runtime thread mapping at the (well-tuned) capped
	// size, so a 2,560-sample DeepRecSys-style request degrades into five
	// 512-sample kernels instead of monopolizing one GPU. Requests at or
	// below the cap are never shed: they are served even if late (counted
	// as Timeouts). A tail request is shed only when it cannot even start
	// before its deadline, or when it must make room in a full admission
	// queue.
	DegradeSplitTail DegradePolicy = iota
	// DegradeServe serves every admitted request to completion; deadline
	// misses are only counted (Timeouts), never acted on.
	DegradeServe
	// DegradeShed sheds any request that would complete after its deadline,
	// regardless of size.
	DegradeShed
)

func (p DegradePolicy) String() string {
	switch p {
	case DegradeSplitTail:
		return "split-tail"
	case DegradeServe:
		return "serve-all"
	case DegradeShed:
		return "shed"
	default:
		return fmt.Sprintf("DegradePolicy(%d)", int(p))
	}
}

// ParseDegradePolicy maps a policy's String form back to its value — the
// flag-parsing inverse used by recflex-serve's -degrade flag.
func ParseDegradePolicy(s string) (DegradePolicy, error) {
	switch s {
	case "split-tail", "split":
		return DegradeSplitTail, nil
	case "serve-all", "serve":
		return DegradeServe, nil
	case "shed":
		return DegradeShed, nil
	}
	return 0, fmt.Errorf("trace: unknown degrade policy %q (want split-tail, serve-all or shed)", s)
}

// QueuePolicy is the queue-shaping half of a serving configuration: worker
// count, admission-queue bound, default deadline, degradation policy and
// split threshold. It is the single home of the queue-policy constants and
// validation shared by the single-model ServerConfig and the multi-model
// fleet pool configuration — both compose it rather than re-declaring (and
// re-validating) the same fields.
type QueuePolicy struct {
	// Workers is the number of simulated GPUs (k in M/G/k); 0 means 1.
	Workers int
	// QueueDepth bounds the admission queue; 0 means unbounded.
	QueueDepth int
	// Deadline is the default per-request completion deadline in seconds
	// after arrival; 0 disables deadlines.
	Deadline float64
	// Policy is the degradation policy (default DegradeSplitTail).
	Policy DegradePolicy
	// SplitCap is the size above which a request counts as an unsplit
	// long-tail batch; 0 disables splitting and tail special-casing.
	SplitCap int
}

// Validate checks the queue policy.
func (p *QueuePolicy) Validate() error {
	switch {
	case p.Workers < 0:
		return fmt.Errorf("trace: Workers must be >= 0, got %d", p.Workers)
	case p.QueueDepth < 0:
		return fmt.Errorf("trace: QueueDepth must be >= 0, got %d", p.QueueDepth)
	case !(p.Deadline >= 0):
		return fmt.Errorf("trace: Deadline must be >= 0, got %g", p.Deadline)
	case p.SplitCap < 0:
		return fmt.Errorf("trace: SplitCap must be >= 0, got %d", p.SplitCap)
	case p.Policy < DegradeSplitTail || p.Policy > DegradeShed:
		return fmt.Errorf("trace: unknown policy %d", int(p.Policy))
	}
	return nil
}

// EffectiveWorkers returns the worker count with the zero-value default
// applied (0 means one simulated GPU).
func (p *QueuePolicy) EffectiveWorkers() int {
	if p.Workers == 0 {
		return 1
	}
	return p.Workers
}

// IsTail reports whether a request of this size is an unsplit long-tail
// batch under the configured cap — the precondition for the DegradeSplitTail
// fallback. False whenever SplitCap is 0 (splitting disabled).
func (p *QueuePolicy) IsTail(size int) bool {
	return p.SplitCap > 0 && size > p.SplitCap
}

// ChunkSizes returns the split-at-cap decomposition of a tail size: SplitCap
// repeated, plus the remainder. Both the single-model engine and the fleet
// pool dispatch these chunks as independent units of work.
func (p *QueuePolicy) ChunkSizes(size int) []int {
	cap := p.SplitCap
	var out []int
	for size > cap {
		out = append(out, cap)
		size -= cap
	}
	if size > 0 {
		out = append(out, size)
	}
	return out
}

// DeadlineFor resolves a request's absolute completion deadline under this
// policy: the request's own deadline when set, otherwise the policy default;
// +Inf when neither applies.
func (p *QueuePolicy) DeadlineFor(r Request) float64 {
	d := r.Deadline
	if d == 0 {
		d = p.Deadline
	}
	if d == 0 {
		return math.Inf(1)
	}
	return r.Arrival + d
}
