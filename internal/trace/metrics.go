package trace

import (
	"fmt"
	"math"
	"strings"
	"sync"
)

// Histogram is a log-spaced latency histogram. Buckets cover [Min, Max) in
// geometrically equal steps, with implicit underflow and overflow buckets at
// the ends, so a single configuration spans microsecond kernel times and
// second-scale queueing collapse without losing resolution at either end.
type Histogram struct {
	// Min and Max bound the log-spaced range in seconds.
	Min, Max float64
	// Counts has one entry per bucket plus underflow (first) and overflow
	// (last).
	Counts []int64
	// Total is the number of observations.
	Total int64
	// Sum is the sum of observed values (for the mean).
	Sum float64
	// LowValue / HighValue track the exact observed extremes.
	LowValue, HighValue float64

	// logRange caches log(Max/Min) so the per-observation bucket lookup costs
	// one log, not two. Zero on histograms not built by NewHistogram (e.g.
	// decoded ones); bucketOf falls back to computing it on demand.
	logRange float64

	// bounds[i] is the exact smallest in-range value belonging to bucket i+1,
	// precomputed so the per-observation lookup is a short binary search with
	// no logarithm at all. The thresholds are found by bit-level binary search
	// against the log formula itself, so search and formula agree on every
	// float64 — including values one ulp either side of a boundary. Nil on
	// histograms not built by NewHistogram; bucketOf falls back to the log.
	bounds []float64
}

// NewHistogram creates a histogram with n log-spaced buckets between min and
// max seconds. It panics on invalid bounds — histogram shape is a programming
// decision, not an input.
func NewHistogram(min, max float64, n int) *Histogram {
	if !(min > 0) || !(max > min) || n <= 0 {
		panic(fmt.Sprintf("trace: invalid histogram shape min=%g max=%g n=%d", min, max, n))
	}
	return &Histogram{
		Min:       min,
		Max:       max,
		Counts:    make([]int64, n+2),
		LowValue:  math.Inf(1),
		HighValue: math.Inf(-1),
		logRange:  math.Log(max / min),
		bounds:    cachedBucketBounds(min, max, n),
	}
}

// NewLatencyHistogram creates the latency histogram both serving engines
// record into: 28 log-spaced buckets from 1us to 10s.
func NewLatencyHistogram() *Histogram { return NewHistogram(1e-6, 10, 28) }

// histShape keys the process-wide bucket-boundary cache. Serving runs create
// one histogram per replay but use a handful of shapes, so the boundary table
// is computed once per shape per process.
type histShape struct {
	min, max float64
	n        int
}

var boundsCache sync.Map // histShape -> []float64

func cachedBucketBounds(min, max float64, n int) []float64 {
	key := histShape{min, max, n}
	if b, ok := boundsCache.Load(key); ok {
		return b.([]float64)
	}
	b := newBucketBounds(min, max, n)
	boundsCache.Store(key, b)
	return b
}

// newBucketBounds computes, for each interior bucket edge, the exact smallest
// float64 that the log formula assigns to the bucket above it. Each threshold
// is found by binary search over the float bit space (positive float64s order
// identically as bits), evaluating the same clamped formula bucketOf would
// use — so the table reproduces the formula bit for bit without assuming
// anything about where log's rounding lands.
func newBucketBounds(min, max float64, n int) []float64 {
	lr := math.Log(max / min)
	raw := func(v float64) int {
		i := int(math.Log(v/min) / lr * float64(n))
		if i < 0 {
			i = 0
		}
		if i >= n {
			i = n - 1
		}
		return i
	}
	bounds := make([]float64, n-1)
	for i := range bounds {
		lo, hi := math.Float64bits(min), math.Float64bits(max)
		for lo < hi {
			mid := lo + (hi-lo)/2
			if raw(math.Float64frombits(mid)) >= i+1 {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		bounds[i] = math.Float64frombits(lo)
	}
	return bounds
}

// buckets returns the number of in-range buckets.
func (h *Histogram) buckets() int { return len(h.Counts) - 2 }

// Observe records one latency.
func (h *Histogram) Observe(v float64) {
	h.Total++
	h.Sum += v
	if v < h.LowValue {
		h.LowValue = v
	}
	if v > h.HighValue {
		h.HighValue = v
	}
	h.Counts[h.bucketOf(v)]++
}

// bucketOf maps a value to its slot in Counts (0 = underflow, len-1 =
// overflow).
func (h *Histogram) bucketOf(v float64) int {
	if v < h.Min {
		return 0
	}
	if v >= h.Max {
		return len(h.Counts) - 1
	}
	if b := h.bounds; b != nil {
		// Rank of v among the precomputed thresholds = the formula's bucket.
		lo, hi := 0, len(b)
		for lo < hi {
			mid := (lo + hi) / 2
			if v >= b[mid] {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo + 1
	}
	n := h.buckets()
	lr := h.logRange
	if lr == 0 {
		lr = math.Log(h.Max / h.Min)
	}
	i := int(math.Log(v/h.Min) / lr * float64(n))
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i + 1
}

// BucketBounds returns the [lo, hi) range of bucket i in Counts' indexing.
// The underflow bucket reports (0, Min) and the overflow bucket (Max, +Inf).
func (h *Histogram) BucketBounds(i int) (lo, hi float64) {
	n := h.buckets()
	switch {
	case i <= 0:
		return 0, h.Min
	case i >= n+1:
		return h.Max, math.Inf(1)
	}
	ratio := math.Pow(h.Max/h.Min, 1/float64(n))
	lo = h.Min * math.Pow(ratio, float64(i-1))
	return lo, lo * ratio
}

// Quantile returns the p-quantile (0..1) estimated from bucket upper bounds,
// NaN when empty. Exact percentiles of the served trace live in Result; this
// estimator exists so long-running servers can drop raw samples and still
// answer tail questions from the histogram alone.
func (h *Histogram) Quantile(p float64) float64 {
	if h.Total == 0 {
		return math.NaN()
	}
	rank := int64(math.Ceil(p * float64(h.Total)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, c := range h.Counts {
		seen += c
		if seen >= rank {
			_, hi := h.BucketBounds(i)
			if math.IsInf(hi, 1) {
				return h.HighValue
			}
			if i == 0 {
				// The rank lands in the underflow bucket: every observation
				// there is below Min, and LowValue tracks the smallest one
				// exactly, so Min would overstate the quantile.
				return h.LowValue
			}
			return hi
		}
	}
	return h.HighValue
}

// Mean returns the mean observed value, NaN when empty.
func (h *Histogram) Mean() float64 {
	if h.Total == 0 {
		return math.NaN()
	}
	return h.Sum / float64(h.Total)
}

// Render writes an ASCII view of the non-empty buckets, one row per bucket
// with a proportional bar — the serving engine's replacement for the bare
// three-percentile summary.
func (h *Histogram) Render(width int) string {
	if width <= 0 {
		width = 40
	}
	var max int64
	for _, c := range h.Counts {
		if c > max {
			max = c
		}
	}
	if max == 0 {
		return "(empty histogram)\n"
	}
	var b strings.Builder
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		lo, hi := h.BucketBounds(i)
		var label string
		switch {
		case i == 0:
			label = fmt.Sprintf("%12s < %-9s", "", fmtDur(hi))
		case i == len(h.Counts)-1:
			label = fmt.Sprintf("%12s >= %-8s", "", fmtDur(lo))
		default:
			label = fmt.Sprintf("%12s - %-9s", fmtDur(lo), fmtDur(hi))
		}
		bar := strings.Repeat("#", int(math.Round(float64(c)/float64(max)*float64(width))))
		if bar == "" {
			bar = "."
		}
		fmt.Fprintf(&b, "%s %6d %s\n", label, c, bar)
	}
	return b.String()
}

// fmtDur renders a duration in seconds with a natural unit.
func fmtDur(sec float64) string {
	switch {
	case sec < 1e-3:
		return fmt.Sprintf("%.1fus", sec*1e6)
	case sec < 1:
		return fmt.Sprintf("%.2fms", sec*1e3)
	default:
		return fmt.Sprintf("%.2fs", sec)
	}
}

// WorkerStats is the per-simulated-GPU view of one served trace.
type WorkerStats struct {
	// Served counts requests (or split chunks) the worker executed.
	Served int
	// Busy is the worker's total service time in seconds.
	Busy float64
	// TuneBusy is the time this worker spent occupied by background re-tunes
	// rather than serving. The per-run total lives in Metrics.TuneBusy; this
	// field attributes it to the slot that actually held the tune.
	TuneBusy float64
	// Utilization is (Busy + TuneBusy) over the trace makespan: the fraction
	// of the run this worker was occupied, serving or tuning.
	Utilization float64
}

// QueueSample is one point of the admission-queue depth time series.
type QueueSample struct {
	// Time is the virtual timestamp in seconds.
	Time float64
	// Depth is the queue occupancy just after the event at Time.
	Depth int
}

// maxQueueSamples bounds the retained queue-depth series; past it the series
// is decimated 2x so long traces keep a bounded, evenly thinned profile.
const maxQueueSamples = 2048

// depthSeries records queue occupancy over virtual time with bounded memory.
type depthSeries struct {
	samples []QueueSample
	stride  int
	tick    int
	// next is the first tick at or after which a sample may be recorded, so
	// the common skipped observation is one compare instead of a modulo. The
	// recorded tick set — ticks with (tick-1) % stride == 0, stride doubling
	// on decimation — is exactly the modulo formulation's.
	next int
}

func (d *depthSeries) observe(t float64, depth int) {
	d.tick++
	if d.tick < d.next {
		return
	}
	if d.stride == 0 {
		d.stride = 1
	}
	if r := (d.tick - 1) % d.stride; r != 0 {
		d.next = d.tick - r + d.stride
		return
	}
	if len(d.samples) >= maxQueueSamples {
		kept := d.samples[:0]
		for i := 0; i < len(d.samples); i += 2 {
			kept = append(kept, d.samples[i])
		}
		d.samples = kept
		d.stride *= 2
	}
	d.samples = append(d.samples, QueueSample{Time: t, Depth: depth})
	d.next = d.tick - (d.tick-1)%d.stride + d.stride
}

// SwapEvent records one schedule hot-swap of a supervised serving run: the
// drift detection, the background tune booked on a worker slot, and the
// virtual time the new generation went live. Admissions at or after Swapped
// are served on Generation; earlier admissions — including ones still
// in flight at the swap — finish on the generation they arrived under.
//
// With the canary guard enabled (SupervisorConfig.CanaryWindow or
// CanaryDuration), a promotion event additionally carries the canary verdict
// (CanaryMean vs BaselineMean), and a rolled-back promotion is followed by a
// second event with Rollback set: the rollback is itself a hot-swap that
// installs a new, strictly higher generation id reusing the service of
// Reinstated — generation ids never go backwards.
type SwapEvent struct {
	// Generation is the schedule-set generation id this swap installed.
	Generation int
	// Detected is the virtual time the drift detector fired (for a rollback
	// event, the time the canary verdict was reached).
	Detected float64
	// Start is the virtual time the background tune began on its worker
	// (equal to Detected for a rollback, which needs no tune).
	Start float64
	// Swapped is the virtual time the new generation went live (tune end).
	Swapped float64
	// Worker is the simulated-GPU slot the background tune occupied, or -1
	// for a rollback event (reinstating a service occupies no worker).
	Worker int
	// TuneDuration is the simulated seconds the tune held its worker slot.
	TuneDuration float64
	// TuneWall is the measured wall-clock seconds the retuner ran for (zero
	// for rollback events, which need no tune). Unlike every other field it
	// reflects host time, not virtual time: it is the real cost of producing
	// the next generation, the number the fleet-speed tuner drives down.
	// Deterministic-replay comparisons must ignore it.
	TuneWall float64
	// PreMean / PostMean split served latency around the swap: the mean
	// sojourn of requests admitted on the previous generation vs on this
	// one. NaN when a side served no requests.
	PreMean, PostMean float64
	// Rollback marks this event as a canary rollback: the generation it
	// installed reuses the service of generation Reinstated instead of a
	// fresh tune.
	Rollback bool
	// Reinstated is the generation whose service a rollback reinstated.
	// Meaningful only when Rollback is true.
	Reinstated int
	// CanaryMean / BaselineMean record the canary verdict for the promotion
	// this event installed: the mean served sojourn over the canary window's
	// completions on the new generation, against the outgoing generation's
	// most recent pre-swap completions matched over the same size quartiles.
	// Both are zero when the guard is disabled, when the window never closed
	// before the trace ended, or when no matched completions existed.
	CanaryMean, BaselineMean float64
}

// Metrics is the first-class observability snapshot of one served trace:
// everything recflex-serve prints beyond the latency table, and the contract
// future scaling PRs (sharding, caching, multi-tenant) report through.
type Metrics struct {
	// Served counts requests that completed service (including split and
	// late ones).
	Served int
	// SplitServed counts long-tail requests served through the split-at-cap
	// graceful-degradation fallback.
	SplitServed int
	// Timeouts counts served requests that completed after their deadline.
	Timeouts int
	// DeadlineSheds counts requests dropped at dispatch because their
	// deadline could not be met.
	DeadlineSheds int
	// QueueSheds counts requests dropped on arrival at a full admission
	// queue.
	QueueSheds int
	// QuotaSheds counts requests dropped on arrival over a per-tenant queue
	// quota. Always 0 for the single-model engine; the fleet pool's per-model
	// report views populate it (see OutcomeShedQuota).
	QuotaSheds int
	// LoadSheds counts requests dropped on arrival by load-aware early
	// shedding. Always 0 for the single-model engine; see QuotaSheds.
	LoadSheds int
	// MaxQueueDepth is the peak admission-queue occupancy.
	MaxQueueDepth int
	// Latency is the sojourn histogram of served requests.
	Latency *Histogram
	// Workers holds per-simulated-GPU utilization.
	Workers []WorkerStats
	// QueueDepth is the (possibly decimated) queue-occupancy time series.
	QueueDepth []QueueSample
	// Makespan is the span from first arrival to last completion in seconds.
	Makespan float64
	// Generation is the schedule-set generation live at the end of the run:
	// the number of hot-swaps a Supervisor performed (0 for a plain Server).
	// Rollbacks count too — a rollback is a forward swap to a new id.
	Generation int
	// Swaps records each schedule hot-swap of a supervised run, in order,
	// including rollback events (SwapEvent.Rollback).
	Swaps []SwapEvent
	// Rollbacks counts promotions the canary guard measured worse than the
	// pre-swap baseline and rolled back (see SwapEvent.Rollback).
	Rollbacks int
	// TuneBusy is the total simulated worker time background re-tunes
	// occupied — serving capacity spent on tuning rather than requests.
	TuneBusy float64
	// TuneWall is the total measured wall-clock seconds spent inside the
	// retuner across this run's background tunes (sum of SwapEvent.TuneWall).
	// Host time, not virtual time; deterministic-replay comparisons must
	// ignore it.
	TuneWall float64
}

// Shed returns the total number of dropped requests.
func (m *Metrics) Shed() int {
	return m.DeadlineSheds + m.QueueSheds + m.QuotaSheds + m.LoadSheds
}

// Clone returns a deep copy of the snapshot, safe to mutate independently.
func (m *Metrics) Clone() *Metrics {
	cp := *m
	cp.Workers = append([]WorkerStats(nil), m.Workers...)
	cp.QueueDepth = append([]QueueSample(nil), m.QueueDepth...)
	cp.Swaps = append([]SwapEvent(nil), m.Swaps...)
	if m.Latency != nil {
		h := *m.Latency
		h.Counts = append([]int64(nil), m.Latency.Counts...)
		cp.Latency = &h
	}
	return &cp
}

// String summarizes the counters in one line.
func (m *Metrics) String() string {
	causes := fmt.Sprintf("deadline=%d queue-full=%d", m.DeadlineSheds, m.QueueSheds)
	if m.QuotaSheds > 0 || m.LoadSheds > 0 {
		causes += fmt.Sprintf(" quota=%d load=%d", m.QuotaSheds, m.LoadSheds)
	}
	return fmt.Sprintf("served=%d split=%d timeouts=%d shed=%d (%s) max-queue=%d",
		m.Served, m.SplitServed, m.Timeouts, m.Shed(), causes, m.MaxQueueDepth)
}
