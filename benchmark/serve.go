package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"reflect"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/datasynth"
	"repro/internal/embedding"
	"repro/internal/fleet"
	"repro/internal/gateway"
	"repro/internal/gpusim"
	"repro/internal/trace"
)

// warp maps one wall second onto a million simulated seconds. A request's
// simulated service lasts microseconds, i.e. picoseconds of wall time, so the
// gateway's pacing never binds and wall-clock latency measures the emulator's
// own overhead, following Revati's GPU-free time-warp emulation.
const warp = 1e6

// lateSend is the pacing lateness beyond which a send counts as late; a run
// with more than half of its sends late measured the generator, not the
// gateway.
const lateSend = 20 * time.Microsecond

// serveTenants are recflex-serve's "interactive:1,bulk:0:8": model i's
// traffic belongs to tenant i.
var serveTenants = []fleet.TenantSpec{
	{Name: "interactive", Priority: 1},
	{Name: "bulk", Priority: 0, Quota: 8},
}

// pickWarm draws serve-warm traffic: either model, sizes on the 32-row grid
// the service memo was pre-warmed with.
func pickWarm(rng *rand.Rand) (int, int) {
	return rng.Intn(2), sizeQuantum * (1 + rng.Intn(512/sizeQuantum))
}

// pickCold draws serve-coldstart traffic: either model, raw sizes 1..512.
func pickCold(rng *rand.Rand) (int, int) { return rng.Intn(2), 1 + rng.Intn(512) }

// servedModels tunes the models every serve workload fronts: A and C at
// cfg.serveScale on V100.
func (e *env) servedModels() (*kernelSet, error) {
	ks := &kernelSet{}
	for i, m := range []*datasynth.ModelConfig{datasynth.ModelA(), datasynth.ModelC()} {
		cfg := datasynth.Scaled(m, e.cfg.serveScale)
		rf, err := e.tuneServing(cfg, gpusim.V100(), i)
		if err != nil {
			return nil, err
		}
		ks.cfgs = append(ks.cfgs, cfg)
		ks.recs = append(ks.recs, rf)
	}
	return ks, nil
}

// servePool builds the two-worker, queue-32, priority-EDF pool the gateway
// fronts, with each model's memoized kernel service as recflex-serve builds
// it. Every call makes fresh memos: a new pool starts cold.
func (e *env) servePool(ks *kernelSet) (*fleet.Pool, []trace.TimedServiceFunc, error) {
	models := make([]fleet.Model, len(ks.recs))
	svcs := make([]trace.TimedServiceFunc, len(ks.recs))
	for i, rf := range ks.recs {
		cfg := ks.cfgs[i]
		src := e.tr.wrapSource(i, func(_ float64, size int) (*embedding.Batch, error) {
			return datasynth.BatchForSize(cfg, size)
		})
		svcs[i] = e.tr.wrapService(i, rf.TimedService(src, sizeQuantum, nil))
		models[i] = fleet.Model{Name: cfg.Name, Service: svcs[i]}
	}
	pool, err := fleet.NewPool(fleet.Config{Queue: trace.QueuePolicy{Workers: 2, QueueDepth: 32}}, models, serveTenants)
	return pool, svcs, err
}

// countingClock counts the gateway's calls through its Clock seam.
type countingClock struct {
	inner      gateway.Clock
	now, after atomic.Int64
}

func (c *countingClock) Now() time.Time { c.now.Add(1); return c.inner.Now() }

func (c *countingClock) After(d time.Duration) <-chan time.Time {
	c.after.Add(1)
	return c.inner.After(d)
}

// countingWriter counts the bytes and wall time of the session log's writes
// to its file.
type countingWriter struct {
	w         io.Writer
	bytes, ns atomic.Int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := c.w.Write(p)
	c.ns.Add(int64(time.Since(start)))
	c.bytes.Add(int64(n))
	return n, err
}

// phase is one gateway session driven by one open-loop schedule.
type phase struct {
	items    []item
	out      []sample
	idBase   int64
	spanFrom int

	stats gateway.Stats
	live  *fleet.Report
	sess  *gateway.Session

	heapEnd        uint64  // HeapAlloc after GC with the session still open
	retainedPerReq float64 // HeapAlloc growth over the session per admitted request

	replaySecs                float64 // Session.Replay wall time
	replayAllocs, replayBytes uint64

	clock  *countingClock  // traced only
	writes *countingWriter // traced only

	served, failed int
	errs           []error
}

func (ph *phase) errorf(format string, args ...any) {
	ph.errs = append(ph.errs, fmt.Errorf(format, args...))
}

// span returns the wall time from the first due time to the last answer.
func (ph *phase) span() time.Duration {
	var last time.Duration
	for i := range ph.out {
		if ph.out[i].done > last {
			last = ph.out[i].done
		}
	}
	if len(ph.items) == 0 {
		return 0
	}
	return last - ph.items[0].due
}

func (r *result) add(ph *phase) {
	r.attempted += len(ph.items)
	r.failed += ph.failed
	r.errs = append(r.errs, ph.errs...)
}

// servePhase opens a gateway session over pool with a session log in a temp
// file, serves it over loopback HTTP, drives items through it open-loop,
// closes it and checks the outputs.
func (e *env) servePhase(pool *fleet.Pool, items []item) (*phase, error) {
	ph := &phase{items: items, out: make([]sample, len(items)), idBase: e.nextID}
	e.nextID += int64(len(items))
	f, err := os.CreateTemp(e.cfg.workDir, "session-*.log")
	if err != nil {
		return nil, err
	}
	defer os.Remove(f.Name())
	gcfg := gateway.Config{Pool: pool, Warp: warp, Session: f}
	if e.tr.active() {
		ph.clock = &countingClock{inner: gateway.RealClock()}
		ph.writes = &countingWriter{w: f}
		gcfg.Clock, gcfg.Session = ph.clock, ph.writes
	}

	base := liveHeap()
	g, err := gateway.New(gcfg)
	if err != nil {
		f.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		g.Close()
		f.Close()
		return nil, err
	}
	srv := &http.Server{Handler: e.tr.wrapHandler(g.Handler())}
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Serve(ln) // returns http.ErrServerClosed after Close
	}()

	if e.tr != nil {
		ph.spanFrom = e.tr.mark()
	}
	d := newDriver("http://"+ln.Addr().String(), e.cfg.conns, e.tr)
	d.run(items, ph.out, ph.idBase)
	d.close()
	end := liveHeap()

	srv.Close()
	<-served
	live, closeErr := g.Close()
	ph.stats = g.Stats()
	if err := f.Close(); err != nil {
		return nil, fmt.Errorf("closing session log: %w", err)
	}
	ph.live = live
	ph.heapEnd = end
	ph.retainedPerReq = ratio(float64(int64(end)-int64(base)), float64(ph.stats.Admitted))
	if closeErr != nil {
		ph.errorf("closing gateway: %v", closeErr)
	}
	log, err := os.ReadFile(f.Name())
	if err != nil {
		return nil, err
	}
	if e.sessionFilter != nil {
		log = e.sessionFilter(log)
	}
	// The self-check replays through the same (wrapped) services; its calls
	// are not part of any request, so tracing pauses for it.
	traced := e.tr.active()
	if traced {
		e.tr.on.Store(false)
	}
	ph.verify(pool, log)
	if traced {
		e.tr.on.Store(true)
		if ph.sess != nil {
			e.joinServeSpans(ph)
		}
	}
	return ph, nil
}

// verify checks a finished session: every request answered exactly once
// with nothing lost, the gateway's accounting balanced, and the recorded
// session log replaying offline bit-identically, cache counters included.
func (ph *phase) verify(pool *fleet.Pool, log []byte) {
	answered := make(map[int]bool, len(ph.out))
	for i := range ph.out {
		s := &ph.out[i]
		if !s.ok() {
			ph.failed++
			continue
		}
		if answered[s.resp.ID] {
			ph.errorf("admission %d answered twice", s.resp.ID)
		}
		answered[s.resp.ID] = true
		switch s.resp.Outcome {
		case "served", "split":
			ph.served++
		default: // shed by admission: a refused request
			ph.failed++
		}
	}
	st := ph.stats
	switch {
	case st.Lost != 0:
		ph.errorf("gateway lost %d admitted requests", st.Lost)
	case st.Served+st.Shed != st.Admitted:
		ph.errorf("gateway served %d + shed %d != admitted %d", st.Served, st.Shed, st.Admitted)
	case len(answered) != st.Admitted:
		ph.errorf("%d distinct answers for %d admitted requests", len(answered), st.Admitted)
	}
	if ph.live == nil {
		ph.errorf("gateway session admitted nothing")
		return
	}
	sess, err := gateway.ReadSession(bytes.NewReader(log))
	if err != nil {
		ph.errorf("reading session log: %v", err)
		return
	}
	if len(sess.Requests) != st.Admitted {
		ph.errorf("session log holds %d requests, gateway admitted %d", len(sess.Requests), st.Admitted)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	replayed, err := sess.Replay(pool)
	ph.replaySecs = time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	if err != nil {
		ph.errorf("session replay: %v", err)
		return
	}
	ph.replayAllocs = after.Mallocs - before.Mallocs
	ph.replayBytes = after.TotalAlloc - before.TotalAlloc
	if !reflect.DeepEqual(ph.live.Metrics.Cache, replayed.Metrics.Cache) {
		ph.errorf("cache counters diverged between the live session and its replay")
	}
	if digest(ph.live) != digest(replayed) {
		ph.errorf("live report and offline replay differ")
	}
	ph.sess = sess
}

// joinServeSpans links one phase's spans into per-request trees:
// bench.request > bench.send > gateway.http (by the X-Bench-Id header) >
// core.service (by the request's model and simulated arrival, which the
// engine passes to the service) > datasynth.batch (by containment).
func (e *env) joinServeSpans(ph *phase) {
	type key struct {
		model   int16
		arrival uint64
	}
	ids := make(map[key]int64, len(ph.out))
	for i := range ph.out {
		s := &ph.out[i]
		if !s.ok() || s.resp.ID < 0 || s.resp.ID >= len(ph.sess.Requests) {
			continue
		}
		r := ph.sess.Requests[s.resp.ID]
		ids[key{int16(r.Model), math.Float64bits(r.Arrival)}] = ph.idBase + int64(i)
	}
	e.tr.linkByID(ph.spanFrom, spanHTTP, spanSend)
	e.tr.linkByKey(ph.spanFrom, spanService, spanHTTP, func(s *span) (int64, bool) {
		id, ok := ids[key{s.model, math.Float64bits(s.arg)}]
		return id, ok
	})
	e.tr.linkByContainment(ph.spanFrom, spanBatch, spanService, true)
}

// logLatency prints a latency sample's percentiles, each only where at least
// ten samples lie beyond it.
func (e *env) logLatency(label string, sorted []float64) {
	line := fmt.Sprintf("%s: n=%d p50 %.4f ms", label, len(sorted), percentile(sorted, 0.5))
	for _, p := range []float64{0.9, 0.95, 0.99, 0.999} {
		if supported(len(sorted), p) {
			line += fmt.Sprintf(" p%g %.4f ms", p*100, percentile(sorted, p))
		}
	}
	e.logf("%s", line)
}

// servePhases runs a serve workload's measured phases within a budget.
type servePhases func(budget time.Duration) ([]*phase, error)

func pooledLatency(phases []*phase) []float64 {
	var all []float64
	for _, ph := range phases {
		all = append(all, latencies(ph.items, ph.out)...)
	}
	return sortedCopy(all)
}

func runServeWarm(e *env) (*result, error) {
	type setup struct {
		ks   *kernelSet
		pool *fleet.Pool
	}
	st, setupS, err := setups(e, func() (setup, error) {
		ks, err := e.servedModels()
		if err != nil {
			return setup{}, err
		}
		pool, svcs, err := e.servePool(ks)
		if err != nil {
			return setup{}, err
		}
		for m, svc := range svcs {
			for size := sizeQuantum; size <= 512; size += sizeQuantum {
				if _, err := svc(0, size); err != nil {
					return setup{}, fmt.Errorf("pre-warming model %d size %d: %w", m, size, err)
				}
			}
		}
		return setup{ks, pool}, nil
	})
	if err != nil {
		return nil, err
	}
	res := newResult()
	res.metrics["setup_s"] = setupS
	rng := rand.New(rand.NewSource(e.cfg.seed))
	fixedRate := func(budget time.Duration) ([]*phase, error) {
		ph, err := e.servePhase(st.pool, poissonFor(rng, e.cfg.warmRate, budget, pickWarm))
		return []*phase{ph}, err
	}
	if e.tr != nil {
		return res, e.serveTraced(res, fixedRate, st.ks)
	}

	half := e.cfg.budget / 2
	phases, err := fixedRate(half)
	if err != nil {
		return nil, err
	}
	ph := phases[0]
	res.add(ph)
	lat := pooledLatency(phases)
	e.logLatency(fmt.Sprintf("fixed rate %.0f req/s, from due", e.cfg.warmRate), lat)
	res.metrics["latency_p50_ms"] = percentile(lat, 0.5)
	res.metrics["latency_p95_ms"] = percentile(lat, tailQuantile)
	res.metrics["heap_mb"] = float64(ph.heapEnd) / mib
	e.logf("retained heap %.0f B per admitted request; session self-check replayed %d requests at %.0f req/s",
		ph.retainedPerReq, ph.stats.Admitted, ratio(float64(ph.stats.Admitted), ph.replaySecs))

	capacity, err := e.capacity(res, st.pool, rng, e.cfg.budget-half)
	if err != nil {
		return nil, err
	}
	res.metrics["throughput_per_s"] = capacity
	return res, nil
}

// capacity measures answered requests per second with every connection kept
// busy, a closed loop: a short burst sizes a run of about budget, whose rate
// is the median over half-second windows of completions.
func (e *env) capacity(res *result, pool *fleet.Pool, rng *rand.Rand, budget time.Duration) (float64, error) {
	start := time.Now()
	est, err := e.servePhase(pool, backToBack(rng, e.cfg.estimateReqs, pickWarm))
	if err != nil {
		return 0, err
	}
	res.add(est)
	rough := float64(est.served) / est.span().Seconds()
	// Capped so a fast host cannot grow the session (and its heap) without
	// bound: 250k requests hold about 60 MiB.
	n := min(250_000, max(e.cfg.estimateReqs, int(rough*(budget-time.Since(start)).Seconds())))
	ph, err := e.servePhase(pool, backToBack(rng, n, pickWarm))
	if err != nil {
		return 0, err
	}
	res.add(ph)
	const window = 500 * time.Millisecond
	var counts []float64
	for i := range ph.out {
		if !ph.out[i].ok() {
			continue
		}
		w := int(ph.out[i].done / window)
		for len(counts) <= w {
			counts = append(counts, 0)
		}
		counts[w]++
	}
	rate := float64(ph.served) / ph.span().Seconds()
	if len(counts) > 2 {
		rate = median(counts[:len(counts)-1]) / window.Seconds() // the last window is partial
	}
	e.logf("closed-loop capacity over %d connections: %.0f req/s (%d requests, %.0f req/s overall)",
		e.cfg.conns, rate, n, float64(ph.served)/ph.span().Seconds())
	return rate, nil
}

func runServeCold(e *env) (*result, error) {
	ks, setupS, err := setups(e, e.servedModels)
	if err != nil {
		return nil, err
	}
	res := newResult()
	res.metrics["setup_s"] = setupS
	rng := rand.New(rand.NewSource(e.cfg.seed))
	// Each episode is a deploy: a fresh pool whose service memos are empty,
	// then coldRequests requests at coldRate. Episodes repeat until the
	// budget would be exceeded.
	episodes := func(budget time.Duration) ([]*phase, error) {
		var phases []*phase
		start := time.Now()
		var last time.Duration
		for len(phases) == 0 || time.Since(start)+last <= budget {
			t0 := time.Now()
			pool, _, err := e.servePool(ks)
			if err != nil {
				return nil, err
			}
			ph, err := e.servePhase(pool, poissonN(rng, e.cfg.coldRate, e.cfg.coldRequests, pickCold))
			if err != nil {
				return nil, err
			}
			phases = append(phases, ph)
			last = time.Since(t0)
		}
		return phases, nil
	}
	if e.tr != nil {
		return res, e.serveTraced(res, episodes, ks)
	}
	phases, err := episodes(e.cfg.budget)
	if err != nil {
		return nil, err
	}
	var served float64
	var spans time.Duration
	var heaps []float64
	for _, ph := range phases {
		res.add(ph)
		served += float64(ph.served)
		spans += ph.span()
		heaps = append(heaps, float64(ph.heapEnd)/mib)
	}
	lat := pooledLatency(phases)
	e.logLatency(fmt.Sprintf("%d cold episodes of %d requests at %.0f req/s, from due", len(phases), e.cfg.coldRequests, e.cfg.coldRate), lat)
	res.metrics["latency_p50_ms"] = percentile(lat, 0.5)
	res.metrics["latency_p95_ms"] = percentile(lat, tailQuantile)
	res.metrics["throughput_per_s"] = served / spans.Seconds()
	res.metrics["heap_mb"] = median(heaps)
	return res, nil
}

// serveTraced is the traced run of a serve workload: its phases untraced for
// half the budget, then traced for the other half. The per-layer metrics
// come from the traced half; the p50 difference is the tracing overhead.
func (e *env) serveTraced(res *result, run servePhases, ks *kernelSet) error {
	e.tr.on.Store(false)
	plain, err := run(e.cfg.budget / 2)
	if err != nil {
		return err
	}
	from := e.traceHalf()
	traced, err := run(e.cfg.budget / 2)
	e.endTraceHalf(res)
	if err != nil {
		return err
	}
	for _, ph := range append(plain, traced...) {
		res.add(ph)
	}
	plainP50 := percentile(pooledLatency(plain), 0.5)
	tracedP50 := percentile(pooledLatency(traced), 0.5)
	res.metrics["bench.trace_overhead"] = tracedP50/plainP50 - 1
	e.logf("from-due p50: untraced %.4f ms, traced %.4f ms", plainP50, tracedP50)

	self, total := e.tr.selfTimes(from, spanRequest)
	var pace, handler, sessNS float64
	var n, late, admitted int
	var clockNow, clockAfter, sessBytes int64
	var replayReqs, replaySecs, allocs, allocBytes float64
	var preemptions, scaleEvents, timeouts, shed, maxQueue int
	var lags, waits, rtts []float64
	for _, ph := range traced {
		for i := range ph.out {
			s := &ph.out[i]
			if !s.ok() {
				continue
			}
			n++
			pace += float64(s.paceLag)
			if s.paceLag > lateSend {
				late++
			}
			lags = append(lags, us(s.paceLag))
			waits = append(waits, us(s.connWait(&ph.items[i])))
			rtts = append(rtts, us(s.done-s.sent))
		}
		admitted += ph.stats.Admitted
		clockNow += ph.clock.now.Load()
		clockAfter += ph.clock.after.Load()
		sessBytes += ph.writes.bytes.Load()
		sessNS += float64(ph.writes.ns.Load())
		if ph.sess != nil {
			replayReqs += float64(len(ph.sess.Requests))
			replaySecs += ph.replaySecs
			allocs += float64(ph.replayAllocs)
			allocBytes += float64(ph.replayBytes)
		}
		if ph.live == nil {
			continue
		}
		lm := ph.live.Metrics
		preemptions += lm.Preemptions
		scaleEvents += len(lm.ScaleEvents)
		timeouts += lm.Timeouts
		shed += lm.Shed()
		maxQueue = max(maxQueue, lm.MaxQueueDepth)
	}
	// Retained heap comes from the untraced half: the traced half also holds
	// its spans.
	var retained float64
	plainAdmitted := 0
	for _, ph := range plain {
		retained += ph.retainedPerReq * float64(ph.stats.Admitted)
		plainAdmitted += ph.stats.Admitted
	}
	var handlers []float64
	e.tr.each(from, spanHTTP, func(s *span) {
		handler += float64(s.dur())
		handlers = append(handlers, float64(s.dur())/1e3)
	})
	misses := map[kernelKey]bool{}
	missCount := 0
	e.tr.each(from, spanBatch, func(s *span) {
		missCount++
		misses[kernelKey{int(s.model), int(s.arg)}] = true
	})
	lags, waits, rtts, handlers = sortedCopy(lags), sortedCopy(waits), sortedCopy(rtts), sortedCopy(handlers)
	e.logf("bench: pace lag p50 %.2f us p99 %.2f us; connection wait p99 %.1f us; rtt p50 %.1f us p99 %.1f us",
		percentile(lags, 0.5), percentile(lags, 0.99), percentile(waits, 0.99), percentile(rtts, 0.5), percentile(rtts, 0.99))
	e.logf("gateway: handler p50 %.1f us p99 %.1f us; net (rtt - handler) p50 %.1f us",
		percentile(handlers, 0.5), percentile(handlers, 0.99), percentile(rtts, 0.5)-percentile(handlers, 0.5))
	if percentile(lags, 0.5) > us(lateSend) {
		e.logf("WARNING: pace lag p50 above %v: this run measured the load generator", lateSend)
	}

	r := res.metrics
	r["bench.late_send_ratio"] = ratio(float64(late), float64(n))
	r["bench.pace_share"] = ratio(pace, total)
	r["bench.conn_wait_share"] = ratio(self[spanRequest]-pace, total)
	for _, name := range []spanName{spanSend, spanHTTP, spanService, spanBatch} {
		r[name.String()+".self_share"] = ratio(self[name], total)
	}
	r["gateway.clock_now_per_req"] = ratio(float64(clockNow), float64(admitted))
	r["gateway.clock_after_per_req"] = ratio(float64(clockAfter), float64(admitted))
	r["gateway.session_bytes_per_req"] = ratio(float64(sessBytes), float64(admitted))
	r["gateway.session_write_share"] = ratio(sessNS, handler)
	r["gateway.retained_bytes_per_req"] = ratio(retained, float64(plainAdmitted))
	r["core.service_calls_per_req"] = ratio(float64(e.tr.count(from, spanService)), float64(admitted))
	r["core.service_misses"] = float64(missCount)
	r["core.useful_miss_ratio"] = ratio(float64(len(misses)), float64(missCount))
	r["fleet.replay_req_per_s"] = ratio(replayReqs, replaySecs)
	r["fleet.allocs_per_req"] = ratio(allocs, replayReqs)
	r["fleet.alloc_bytes_per_req"] = ratio(allocBytes, replayReqs)
	r["fleet.preemptions"] = float64(preemptions)
	r["fleet.scale_events"] = float64(scaleEvents)
	r["fleet.max_queue"] = float64(maxQueue)
	r["fleet.timeouts"] = float64(timeouts)
	r["fleet.shed"] = float64(shed)
	e.logf("core: %d service calls, %d misses over %d distinct batches", e.tr.count(from, spanService), missCount, len(misses))

	var kernels []kernelKey
	e.tr.each(0, spanBatch, func(s *span) { kernels = append(kernels, kernelKey{int(s.model), int(s.arg)}) })
	return e.finishLayers(res, kernels, ks)
}
