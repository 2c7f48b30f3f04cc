package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"repro/internal/datasynth"
	"repro/internal/embedding"
	"repro/internal/emcache"
	"repro/internal/fleet"
	"repro/internal/gpusim"
	"repro/internal/trace"
)

// elastic is replay-elastic's program — two models and two tenants over an
// elastic V100/A100 pool behind an embedding-cache tier — and its seeded
// trace.
type elastic struct {
	ks      *kernelSet               // V100 instances, for re-timing the kernel path
	svcs    []trace.TimedServiceFunc // memoized V100 services, shared by every pool
	scales  [][]float64              // per model: {1, A100 service / V100 service}
	heats   []emcache.ModelProfile
	tenants []fleet.TenantSpec
	unit    float64 // mean kernel service of the trace, simulated seconds
	reqs    []fleet.Request
	pool    *fleet.Pool // every lever armed: the measured configuration
	want    uint64      // digest of the warm-up replay
}

// The trace: 70% interactive requests on model A; bulk requests on model C,
// of which 15% are 2048-sample long-tail batches that split at the 512 cap.
// Sizes sit on the service memo's 32-row grid, so the warm-up replay
// resolves every distinct kernel once.
const (
	interactiveShare = 0.7
	tailShare        = 0.15
	tailSize         = 2048
	splitCap         = 512
	busy             = 0.9 // target utilization of the static two-worker pool
)

// hotTable is one of the two cached tables of each model's synthetic heat
// profile, the shape the cache study uses. The models' own table heat
// (experiments.CacheHeat) faults more PCIe traffic than their kernels take,
// which would overload the pool; with this profile and half the bytes
// resident the tier misses about 40% of its reads and its penalty is about
// 30% of the service time.
var hotTable = emcache.FeatureHeat{Rows: 16384, RowBytes: 256, RowsPerSample: 0.25, Skew: datasynth.ZipfSkew}

func gridSize(rng *rand.Rand) int {
	s := int(rng.NormFloat64()*96 + 256)
	s = (s + sizeQuantum - 1) / sizeQuantum * sizeQuantum
	return min(max(s, sizeQuantum), splitCap)
}

func (e *env) elasticSetup() (*elastic, error) {
	es := &elastic{ks: &kernelSet{}}
	for i, m := range []*datasynth.ModelConfig{datasynth.ModelA(), datasynth.ModelC()} {
		cfg := datasynth.Scaled(m, e.cfg.replayScale)
		rfV, err := e.tuneServing(cfg, gpusim.V100(), i)
		if err != nil {
			return nil, err
		}
		// A100 workers run the schedule tuned for the A100, probed at a
		// mid-size batch the way recflex-serve -worker-classes probes.
		rfA, err := e.tuneServing(cfg, gpusim.A100(), i)
		if err != nil {
			return nil, err
		}
		src := func(_ float64, size int) (*embedding.Batch, error) { return datasynth.BatchForSize(cfg, size) }
		svc := e.tr.wrapService(i, rfV.TimedService(e.tr.wrapSource(i, src), sizeQuantum, nil))
		v, err := svc(0, 256)
		if err != nil {
			return nil, err
		}
		a, err := rfA.TimedService(src, sizeQuantum, nil)(0, 256)
		if err != nil {
			return nil, err
		}
		es.ks.cfgs = append(es.ks.cfgs, cfg)
		es.ks.recs = append(es.ks.recs, rfV)
		es.svcs = append(es.svcs, svc)
		es.scales = append(es.scales, []float64{1, a / v})
		es.heats = append(es.heats, emcache.Steady([]emcache.FeatureHeat{hotTable, hotTable}))
	}

	rng := rand.New(rand.NewSource(e.cfg.seed))
	es.reqs = make([]fleet.Request, e.cfg.replayReqs)
	var work, at float64
	for i := range es.reqs {
		r := fleet.Request{Size: gridSize(rng)}
		if rng.Float64() >= interactiveShare {
			r.Model, r.Tenant = 1, 1
			if rng.Float64() < tailShare {
				r.Size = tailSize
			}
		}
		sv, err := es.svcs[r.Model](0, r.Size)
		if err != nil {
			return nil, err
		}
		work += sv
		at += rng.ExpFloat64()
		r.Arrival = at
		es.reqs[i] = r
	}
	es.unit = work / float64(len(es.reqs))
	// Unit-rate arrivals, scaled so that two V100 workers without the cache
	// tier would be busy 90% of the time.
	for i := range es.reqs {
		es.reqs[i].Arrival *= es.unit / (2 * busy)
	}
	u := es.unit
	es.tenants = []fleet.TenantSpec{
		{Name: "interactive", Priority: 1, Deadline: 10 * u},
		{Name: "bulk", Priority: 0, Quota: 8, Deadline: 5 * u},
	}
	pool, err := e.elasticPool(es, lever{preempt: true, autoscale: true, classes: true, cache: true})
	if err != nil {
		return nil, err
	}
	es.pool = pool
	rep, err := pool.Serve(es.reqs)
	if err != nil {
		return nil, fmt.Errorf("warm-up replay: %w", err)
	}
	es.want = digest(rep)
	m := rep.Metrics
	e.logf("trace: %d requests, mean kernel service %.2f us, arrival rate %.0f/s simulated; digest %016x",
		len(es.reqs), u*1e6, 2*busy/u, es.want)
	e.logf("replay: served %d (split %d), timeouts %d, shed %d, preemptions %d, scale events %d, max queue %d, cache hit %.1f%%, sim p99 %.2f us",
		m.Served, m.SplitServed, m.Timeouts, m.Shed(), m.Preemptions, len(m.ScaleEvents), m.MaxQueueDepth,
		100*m.Cache.HitRate, simP99(rep)*1e6)
	switch {
	case m.Shed() == 0, m.Preemptions == 0, len(m.ScaleEvents) == 0, m.Cache.Misses == 0:
		return nil, fmt.Errorf("trace does not exercise every lever: shed %d, preemptions %d, scale events %d, cache misses %g",
			m.Shed(), m.Preemptions, len(m.ScaleEvents), m.Cache.Misses)
	}
	return es, nil
}

// simP99 is the served-sojourn p99 of a replay, in simulated seconds.
func simP99(rep *fleet.Report) float64 {
	var s []float64
	for i, o := range rep.Outcomes {
		if o == fleet.OutcomeServed || o == fleet.OutcomeSplit {
			s = append(s, rep.Sojourn[i])
		}
	}
	return percentile(sortedCopy(s), 0.99)
}

// lever selects which elastic mechanisms a pool arms; the static pool is two
// V100 workers with deadlines and split-at-cap alone.
type lever struct {
	preempt, autoscale, classes, cache bool
}

func (e *env) elasticPool(es *elastic, lv lever) (*fleet.Pool, error) {
	u := es.unit
	cfg := fleet.Config{
		Queue: trace.QueuePolicy{
			Workers:    2,
			QueueDepth: 64,
			Policy:     trace.DegradeSplitTail,
			SplitCap:   splitCap,
		},
		Preempt: lv.preempt,
	}
	models := make([]fleet.Model, len(es.svcs))
	for i, svc := range es.svcs {
		models[i] = fleet.Model{Name: es.ks.cfgs[i].Name, Service: svc}
	}
	if lv.classes {
		cfg.ClassNames = []string{"V100", "A100"}
		cfg.WorkerClasses = []int{0, 0}
		for i := range models {
			models[i].ClassScale = es.scales[i]
		}
		if !lv.autoscale { // the classes lever alone: a static mixed pool
			cfg.WorkerClasses = []int{0, 1}
		}
	}
	if lv.autoscale {
		cfg.Autoscale = &fleet.AutoscaleConfig{Every: 20 * u, Max: 4, ScaleOutLag: 10 * u}
		if lv.classes {
			cfg.Autoscale.Class = 1
		}
	}
	if lv.cache {
		var total int64
		for _, h := range es.heats {
			for _, f := range h.Phases[0].Features {
				total += int64(f.Rows) * f.RowBytes
			}
		}
		tier, err := emcache.New(emcache.Config{
			BudgetBytes: total / 2,
			Policy:      emcache.PolicyLRU,
			RetierEvery: 200 * u,
			Models:      es.heats,
			Tenants:     len(es.tenants),
		})
		if err != nil {
			return nil, err
		}
		cfg.Cache = tier
	}
	return fleet.NewPool(cfg, models, es.tenants)
}

// replayStats is what replayMeasure timed.
type replayStats struct {
	rates, p50s, p95s []float64 // req/s per Serve; per-Admit ms per Live pass
	heap              uint64    // live heap with one Serve's report alive
	allocs, bytes     uint64    // Mallocs and TotalAlloc of the first Serve
}

// replayMeasure alternates two timed replays of the trace until the budget
// is spent (at least one of each): a whole fleet.Pool.Serve, timed for
// throughput, and the same stream admitted request by request through
// fleet.Live with each Admit timed, for per-request engine latency. Every
// replay must reproduce the warm-up digest.
func (e *env) replayMeasure(es *elastic, budget time.Duration, res *result) (*replayStats, error) {
	st := &replayStats{}
	n := len(es.reqs)
	lat := make([]float64, n)
	start := time.Now()
	for k := 0; k < 2 || time.Since(start) < budget; k++ {
		res.attempted += n
		var rep *fleet.Report
		if k%2 == 0 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			t0 := time.Now()
			r, err := es.pool.Serve(es.reqs)
			wall := time.Since(t0)
			runtime.ReadMemStats(&after)
			if err != nil {
				return nil, err
			}
			rep = r
			st.rates = append(st.rates, float64(n)/wall.Seconds())
			if k == 0 {
				st.allocs, st.bytes = after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
				st.heap = liveHeap()
			}
		} else {
			l := es.pool.Begin()
			for i := range es.reqs {
				t0 := time.Now()
				if _, _, err := l.Admit(es.reqs[i]); err != nil {
					l.Abort()
					return nil, err
				}
				lat[i] = ms(time.Since(t0))
			}
			r, _, err := l.Close()
			if err != nil {
				return nil, err
			}
			rep = r
			sort.Float64s(lat)
			st.p50s = append(st.p50s, percentile(lat, 0.5))
			st.p95s = append(st.p95s, percentile(lat, tailQuantile))
		}
		if got := digest(rep); got != es.want {
			res.failed += n
			res.checkf(false, "replay %d digest %016x differs from the warm-up's %016x", k, got, es.want)
		}
	}
	return st, nil
}

func runReplayElastic(e *env) (*result, error) {
	es, setupS, err := setups(e, e.elasticSetup)
	if err != nil {
		return nil, err
	}
	res := newResult()
	res.metrics["setup_s"] = setupS
	if e.tr != nil {
		return res, e.replayTraced(es, res)
	}
	st, err := e.replayMeasure(es, e.cfg.budget, res)
	if err != nil {
		return nil, err
	}
	e.logf("%d Serve replays: median %.0f req/s; %d Live passes: Admit p50 %.6f ms, p95 %.6f ms",
		len(st.rates), median(st.rates), len(st.p50s), median(st.p50s), median(st.p95s))
	res.metrics["latency_p50_ms"] = median(st.p50s)
	res.metrics["latency_p95_ms"] = median(st.p95s)
	res.metrics["throughput_per_s"] = median(st.rates)
	res.metrics["heap_mb"] = float64(st.heap) / mib
	return res, nil
}

// replayTraced measures untraced replays for half the budget, then one
// traced Serve (spans bench.replay > fleet.serve > core.service), then the
// matched lever ladder: the same trace with each lever armed alone.
func (e *env) replayTraced(es *elastic, res *result) error {
	e.tr.on.Store(false)
	st, err := e.replayMeasure(es, e.cfg.budget/2, res)
	if err != nil {
		return err
	}
	n := float64(len(es.reqs))
	from := e.traceHalf()
	var rep *fleet.Report
	t0 := time.Now()
	err = e.tr.timed(spanReplay, 0, 0, func() error {
		return e.tr.timed(spanServe, 0, 0, func() (err error) {
			rep, err = es.pool.Serve(es.reqs)
			return err
		})
	})
	wall := time.Since(t0)
	e.endTraceHalf(res)
	if err != nil {
		return err
	}
	res.attempted += len(es.reqs)
	res.checkf(digest(rep) == es.want, "traced replay digest differs from the untraced one")
	e.tr.linkByContainment(from, spanServe, spanReplay, false)
	e.tr.linkByContainment(from, spanService, spanServe, false)
	e.tr.linkByContainment(from, spanBatch, spanService, true)
	self, total := e.tr.selfTimes(from, spanReplay)
	calls := e.tr.count(from, spanService)
	misses := e.tr.count(from, spanBatch)

	r := res.metrics
	r["bench.trace_overhead"] = median(st.rates)*wall.Seconds()/n - 1
	for _, name := range []spanName{spanServe, spanService, spanBatch} {
		r[name.String()+".self_share"] = ratio(self[name], total)
	}
	r["core.service_calls_per_req"] = float64(calls) / n
	r["core.service_misses"] = float64(misses)
	r["core.useful_miss_ratio"] = 0
	r["fleet.replay_req_per_s"] = median(st.rates)
	r["fleet.allocs_per_req"] = float64(st.allocs) / n
	r["fleet.alloc_bytes_per_req"] = float64(st.bytes) / n
	m := rep.Metrics
	r["fleet.preemptions"] = float64(m.Preemptions)
	r["fleet.scale_events"] = float64(len(m.ScaleEvents))
	r["fleet.max_queue"] = float64(m.MaxQueueDepth)
	r["fleet.timeouts"] = float64(m.Timeouts)
	r["fleet.shed"] = float64(m.Shed())
	var service float64
	for i, o := range rep.Outcomes {
		if o == fleet.OutcomeServed || o == fleet.OutcomeSplit {
			service += rep.Service[i]
		}
	}
	r["emcache.hit_rate"] = m.Cache.HitRate
	r["emcache.penalty_share"] = ratio(m.Cache.Penalty, service)
	r["emcache.evictions"] = float64(m.Cache.Evictions)
	r["emcache.retiers"] = float64(m.Cache.Retiers)
	e.logf("traced Serve %.0f req/s vs untraced median %.0f req/s; %d service calls", n/wall.Seconds(), median(st.rates), calls)

	ladder := []struct {
		name string
		lv   lever
	}{
		{"static", lever{}},
		{"preempt", lever{preempt: true}},
		{"autoscale", lever{autoscale: true}},
		{"classes", lever{classes: true}},
		{"cache", lever{cache: true}},
		{"all", lever{preempt: true, autoscale: true, classes: true, cache: true}},
	}
	for _, rung := range ladder {
		pool, err := e.elasticPool(es, rung.lv)
		if err != nil {
			return err
		}
		t0 := time.Now()
		rep, err := pool.Serve(es.reqs)
		if err != nil {
			return err
		}
		rate := n / time.Since(t0).Seconds()
		r["fleet.ladder_req_per_s."+rung.name] = rate
		e.logf("lever %-9s %9.0f req/s  shed %6d  timeouts %6d  preemptions %5d  scale events %5d  sim p99 %.2f us",
			rung.name, rate, rep.Metrics.Shed(), rep.Metrics.Timeouts, rep.Metrics.Preemptions,
			len(rep.Metrics.ScaleEvents), simP99(rep)*1e6)
	}

	var kernels []kernelKey
	e.tr.each(0, spanBatch, func(s *span) { kernels = append(kernels, kernelKey{int(s.model), int(s.arg)}) })
	return e.finishLayers(res, kernels, es.ks)
}
