// Package trace implements an online-serving substrate around the embedding
// systems: a request-stream generator (Poisson arrivals, serving-sized
// batches, DeepRecSys-style unsplit long-tail requests) and a FIFO
// single-GPU queueing simulator that turns per-batch kernel times into
// end-to-end request latencies with tail percentiles. The paper's §VI-D
// discusses exactly this setting when motivating runtime thread mapping;
// this package lets the repository evaluate it as a served workload rather
// than isolated kernels.
package trace

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
)

// Request is one inference request in the stream.
type Request struct {
	// Arrival is the arrival time in seconds from stream start.
	Arrival float64
	// Size is the batch size (samples).
	Size int
	// Deadline is an optional per-request completion deadline in seconds
	// after Arrival. Zero means "use the server's default deadline" (or no
	// deadline at all for the closed-form Serve/ServeMultiGPU replays, which
	// never shed).
	Deadline float64
}

// GeneratorConfig shapes the request stream.
type GeneratorConfig struct {
	// QPS is the mean arrival rate (Poisson).
	QPS float64
	// MaxBatch caps normal request sizes (the serving system's split
	// threshold, 512 in the paper).
	MaxBatch int
	// TailProb is the probability a request is an unsplit long-tail batch.
	TailProb float64
	// TailSize is the long-tail batch size (2,560 in the paper).
	TailSize int
	// Seed makes the stream reproducible.
	Seed int64
}

// MinBatch is the smallest serving batch size the generator emits. Serving
// systems batch at least a warp's worth of samples; the generator floors the
// size distribution here, so MaxBatch below this floor cannot be honored.
const MinBatch = 16

// Validate checks the generator configuration.
func (c *GeneratorConfig) Validate() error {
	switch {
	case !(c.QPS > 0):
		return fmt.Errorf("trace: QPS must be positive, got %g", c.QPS)
	case c.MaxBatch <= 0:
		return fmt.Errorf("trace: MaxBatch must be positive, got %d", c.MaxBatch)
	case c.MaxBatch < MinBatch:
		return fmt.Errorf("trace: MaxBatch %d below the generator floor MinBatch=%d", c.MaxBatch, MinBatch)
	case !(c.TailProb >= 0 && c.TailProb <= 1):
		return fmt.Errorf("trace: TailProb %g outside [0,1]", c.TailProb)
	case c.TailProb > 0 && c.TailSize <= 0:
		return fmt.Errorf("trace: TailSize must be positive when TailProb > 0")
	}
	return nil
}

// Generate produces n requests with exponential inter-arrival times and
// serving-sized batches.
func Generate(n int, cfg GeneratorConfig) ([]Request, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("trace: n must be positive, got %d", n)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	reqs := make([]Request, n)
	now := 0.0
	for i := range reqs {
		now += rng.ExpFloat64() / cfg.QPS
		// Cap before flooring so MaxBatch is always honored; Validate has
		// already rejected MaxBatch < MinBatch, so the floor cannot undo the
		// cap.
		size := int(rng.NormFloat64()*96 + 256)
		if size > cfg.MaxBatch {
			size = cfg.MaxBatch
		}
		if size < MinBatch {
			size = MinBatch
		}
		if cfg.TailProb > 0 && rng.Float64() < cfg.TailProb {
			size = cfg.TailSize
		}
		reqs[i] = Request{Arrival: now, Size: size}
	}
	return reqs, nil
}

// ServiceFunc returns the GPU service time of a request of the given size.
type ServiceFunc func(size int) (float64, error)

// arrivalOrder validates reqs and returns them sorted by arrival time
// together with a mapping from sorted position to original index, so results
// can be reported in the caller's order. FIFO queueing math silently produces
// negative waits on out-of-order input, and a non-finite arrival or a
// non-positive size would index past the engine's scratch, so every serve
// entry point normalizes through here: one pass rejects a malformed request
// (the rules fleet.Live.Admit applies) and detects order. When the input is
// already sorted (the common case — Generate emits monotone arrivals) the
// input slice itself and a nil mapping are returned and no allocation
// happens. The sort is stable: simultaneous arrivals keep their input order.
func arrivalOrder(reqs []Request) ([]Request, []int, error) {
	sorted := true
	for i, r := range reqs {
		switch {
		case math.IsNaN(r.Arrival) || math.IsInf(r.Arrival, 0):
			return nil, nil, fmt.Errorf("trace: request %d has non-finite arrival %g", i, r.Arrival)
		case r.Size <= 0:
			return nil, nil, fmt.Errorf("trace: request %d has non-positive size %d", i, r.Size)
		case !(r.Deadline >= 0):
			return nil, nil, fmt.Errorf("trace: request %d has negative or NaN deadline %g", i, r.Deadline)
		case i > 0 && r.Arrival < reqs[i-1].Arrival:
			sorted = false
		}
	}
	if sorted {
		return reqs, nil, nil
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
	return out, order, nil
}

// originalIndex maps a sorted position back to the caller's index.
func originalIndex(order []int, pos int) int {
	if order == nil {
		return pos
	}
	return order[pos]
}

// Result summarizes one served trace.
type Result struct {
	// Sojourn[i] is request i's end-to-end latency (queueing + service).
	Sojourn []float64
	// Served is the number of completed requests the percentiles are computed
	// over. When it is 0 (everything shed), P50/P95/P99 are clamped to 0
	// rather than NaN; check Served to tell "no data" from a real zero.
	Served int
	// P50, P95 and P99 are sojourn percentiles in seconds over served
	// requests.
	P50, P95, P99 float64
	// MeanService is the average service time.
	MeanService float64
	// Utilization is busy time over makespan.
	Utilization float64
}

// Serve runs the request stream through a single-GPU FIFO queue. Requests
// are served in arrival order; out-of-order input is sorted on entry (stable,
// without mutating the caller's slice) and Sojourn stays aligned with the
// caller's indices.
func Serve(reqs []Request, service ServiceFunc) (*Result, error) {
	if len(reqs) == 0 {
		return nil, fmt.Errorf("trace: empty request stream")
	}
	reqs, order, err := arrivalOrder(reqs)
	if err != nil {
		return nil, err
	}
	res := &Result{Sojourn: make([]float64, len(reqs))}
	free := 0.0
	busy := 0.0
	var totalService float64
	for i, r := range reqs {
		s, err := service(r.Size)
		if err != nil {
			return nil, fmt.Errorf("trace: request %d (size %d): %w", i, r.Size, err)
		}
		if s < 0 {
			return nil, fmt.Errorf("trace: negative service time %g for request %d", s, i)
		}
		start := math.Max(r.Arrival, free)
		free = start + s
		res.Sojourn[originalIndex(order, i)] = free - r.Arrival
		busy += s
		totalService += s
	}
	var q Quantiler
	res.Served = len(reqs)
	res.P50, res.P95, res.P99 = q.P50P95P99(res.Sojourn)
	res.MeanService = totalService / float64(len(reqs))
	makespan := free - reqs[0].Arrival
	if makespan > 0 {
		res.Utilization = busy / makespan
	}
	return res, nil
}

// Percentile returns the p-quantile (0 <= p <= 1) of values by nearest-rank
// on a sorted copy. An empty sample yields 0, not NaN, matching
// Quantiler.P50P95P99 — NaN here used to leak into Metrics.String and JSON
// reports (where NaN is unencodable) whenever a trace shed everything.
func Percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx]
}

// ServeMultiGPU runs the request stream through k identical GPUs with
// least-loaded dispatch (each request goes to the server that frees up
// first — the standard M/G/k router of inference serving tiers). Like Serve
// it normalizes out-of-order input through arrivalOrder.
func ServeMultiGPU(reqs []Request, k int, service ServiceFunc) (*Result, error) {
	if len(reqs) == 0 {
		return nil, fmt.Errorf("trace: empty request stream")
	}
	if k <= 0 {
		return nil, fmt.Errorf("trace: need at least one GPU, got %d", k)
	}
	reqs, order, err := arrivalOrder(reqs)
	if err != nil {
		return nil, err
	}
	free := make([]float64, k)
	res := &Result{Sojourn: make([]float64, len(reqs))}
	var busy, totalService, makespanEnd float64
	for i, r := range reqs {
		// Least-loaded: the earliest-free server.
		best := 0
		for g := 1; g < k; g++ {
			if free[g] < free[best] {
				best = g
			}
		}
		s, err := service(r.Size)
		if err != nil {
			return nil, fmt.Errorf("trace: request %d (size %d): %w", i, r.Size, err)
		}
		if s < 0 {
			return nil, fmt.Errorf("trace: negative service time %g for request %d", s, i)
		}
		start := math.Max(r.Arrival, free[best])
		free[best] = start + s
		if free[best] > makespanEnd {
			makespanEnd = free[best]
		}
		res.Sojourn[originalIndex(order, i)] = free[best] - r.Arrival
		busy += s
		totalService += s
	}
	var q Quantiler
	res.Served = len(reqs)
	res.P50, res.P95, res.P99 = q.P50P95P99(res.Sojourn)
	res.MeanService = totalService / float64(len(reqs))
	if span := makespanEnd - reqs[0].Arrival; span > 0 {
		res.Utilization = busy / (span * float64(k))
	}
	return res, nil
}

// MemoService caches service times by batch size, so repeated sizes in a
// trace do not re-run the (expensive) kernel simulation. The returned
// ServiceFunc is safe for concurrent use from the Server's worker pool:
// lookups are guarded by a mutex and each size's inner simulation runs at
// most once (singleflight), with concurrent callers for that size blocking
// on its completion. Distinct sizes simulate in parallel. Errors are
// memoized alongside successes — a failing kernel simulation is
// deterministic here, so retrying it would only repeat the failure.
func MemoService(inner ServiceFunc) ServiceFunc {
	type entry struct {
		once sync.Once
		s    float64
		err  error
	}
	var mu sync.Mutex
	memo := make(map[int]*entry)
	return func(size int) (float64, error) {
		mu.Lock()
		e := memo[size]
		if e == nil {
			e = &entry{}
			memo[size] = e
		}
		mu.Unlock()
		e.once.Do(func() { e.s, e.err = inner(size) })
		return e.s, e.err
	}
}
