package trace_test

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/trace"
)

// sizeService is a deterministic stand-in for the kernel simulator.
func sizeService(perSample float64) trace.ServiceFunc {
	return func(size int) (float64, error) { return float64(size) * perSample, nil }
}

// The concurrent engine with one worker, no deadline and an unbounded queue
// must reproduce the closed-form Serve sojourn-for-sojourn (exact float
// equality: the queueing math is the same sequence of operations).
func TestServerFIFOEquivalence(t *testing.T) {
	reqs, err := trace.Generate(600, trace.GeneratorConfig{
		QPS: 1500, MaxBatch: 512, TailProb: 0.05, TailSize: 2560, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	service := sizeService(3e-5)
	want, err := trace.Serve(reqs, service)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := trace.NewServer(trace.ServerConfig{Workers: 1}, service)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := srv.Serve(reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range reqs {
		if rep.Sojourn[i] != want.Sojourn[i] {
			t.Fatalf("sojourn %d: server %g, closed-form %g", i, rep.Sojourn[i], want.Sojourn[i])
		}
		if rep.Outcomes[i] != trace.OutcomeServed {
			t.Fatalf("request %d outcome %v, want served", i, rep.Outcomes[i])
		}
	}
	if rep.P50 != want.P50 || rep.P95 != want.P95 || rep.P99 != want.P99 {
		t.Errorf("percentiles differ: %g/%g/%g vs %g/%g/%g",
			rep.P50, rep.P95, rep.P99, want.P50, want.P95, want.P99)
	}
	if rep.MeanService != want.MeanService {
		t.Errorf("mean service %g vs %g", rep.MeanService, want.MeanService)
	}
	if math.Abs(rep.Utilization-want.Utilization) > 1e-12 {
		t.Errorf("utilization %g vs %g", rep.Utilization, want.Utilization)
	}
	m := rep.Metrics
	if m.Served != len(reqs) || m.Shed() != 0 || m.Timeouts != 0 || m.SplitServed != 0 {
		t.Errorf("counters off: %s", m)
	}
	if m.Latency.Total != int64(len(reqs)) {
		t.Errorf("histogram holds %d samples, want %d", m.Latency.Total, len(reqs))
	}
}

// With k workers and no deadlines the engine must match ServeMultiGPU's
// least-loaded routing exactly.
func TestServerMatchesMultiGPUClosedForm(t *testing.T) {
	reqs, err := trace.Generate(400, trace.GeneratorConfig{QPS: 3000, MaxBatch: 512, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	service := sizeService(5e-5)
	for _, k := range []int{2, 3, 5} {
		want, err := trace.ServeMultiGPU(reqs, k, service)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := trace.NewServer(trace.ServerConfig{Workers: k}, service)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := srv.Serve(reqs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range reqs {
			if rep.Sojourn[i] != want.Sojourn[i] {
				t.Fatalf("k=%d sojourn %d: %g vs %g", k, i, rep.Sojourn[i], want.Sojourn[i])
			}
		}
		if math.Abs(rep.Utilization-want.Utilization) > 1e-12 {
			t.Errorf("k=%d utilization %g vs %g", k, rep.Utilization, want.Utilization)
		}
		var perWorker float64
		for _, w := range rep.Metrics.Workers {
			perWorker += w.Utilization
		}
		if math.Abs(perWorker/float64(k)-rep.Utilization) > 1e-9 {
			t.Errorf("k=%d per-worker utilizations sum %g, aggregate %g", k, perWorker/float64(k), rep.Utilization)
		}
	}
}

// DegradeShed drops any request whose deadline cannot be met and accounts
// for it; served requests keep exact sojourns.
func TestServerDeadlineShed(t *testing.T) {
	// 1s service each; second request arrives immediately and would wait 1s
	// against a 1.5s deadline -> completion at 2s misses it -> shed. Third
	// arrives late enough to be served.
	reqs := []trace.Request{
		{Arrival: 0, Size: 10},
		{Arrival: 0.1, Size: 10},
		{Arrival: 1.5, Size: 10},
	}
	srv, err := trace.NewServer(trace.ServerConfig{
		Workers: 1, Deadline: 1.5, Policy: trace.DegradeShed,
	}, func(int) (float64, error) { return 1, nil })
	if err != nil {
		t.Fatal(err)
	}
	rep, err := srv.Serve(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Outcomes[0] != trace.OutcomeServed || rep.Outcomes[2] != trace.OutcomeServed {
		t.Fatalf("outcomes %v, want first and third served", rep.Outcomes)
	}
	if rep.Outcomes[1] != trace.OutcomeShedDeadline {
		t.Fatalf("outcome[1] = %v, want shed-deadline", rep.Outcomes[1])
	}
	if !math.IsNaN(rep.Sojourn[1]) {
		t.Errorf("shed request has sojourn %g, want NaN", rep.Sojourn[1])
	}
	m := rep.Metrics
	if m.Served != 2 || m.DeadlineSheds != 1 || m.Timeouts != 0 {
		t.Errorf("counters: %s", m)
	}
}

// DegradeServe never sheds; late completions are only counted.
func TestServerDegradeServeCountsTimeouts(t *testing.T) {
	reqs := []trace.Request{
		{Arrival: 0, Size: 10},
		{Arrival: 0, Size: 10},
	}
	srv, err := trace.NewServer(trace.ServerConfig{
		Workers: 1, Deadline: 1.5, Policy: trace.DegradeServe,
	}, func(int) (float64, error) { return 1, nil })
	if err != nil {
		t.Fatal(err)
	}
	rep, err := srv.Serve(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Outcomes[0] != trace.OutcomeServed || rep.Outcomes[1] != trace.OutcomeServed {
		t.Fatalf("outcomes %v", rep.Outcomes)
	}
	if rep.Metrics.Timeouts != 1 || rep.Metrics.Shed() != 0 {
		t.Errorf("counters: %s", rep.Metrics)
	}
}

// The split-at-cap fallback: a long-tail request that would miss its
// deadline unsplit is served as capped chunks, which can spread over
// several workers and finish sooner than the unsplit kernel.
func TestServerSplitTailFallback(t *testing.T) {
	reqs := []trace.Request{{Arrival: 0, Size: 250}}
	srv, err := trace.NewServer(trace.ServerConfig{
		Workers: 2, Deadline: 0.2, SplitCap: 100, Policy: trace.DegradeSplitTail,
	}, func(size int) (float64, error) { return float64(size) * 1e-3, nil })
	if err != nil {
		t.Fatal(err)
	}
	rep, err := srv.Serve(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Outcomes[0] != trace.OutcomeSplit {
		t.Fatalf("outcome %v, want split", rep.Outcomes[0])
	}
	// Chunks 100/100/50 on two workers: w0 runs 100 then 50 (done 0.15),
	// w1 runs 100 (done 0.1). Sojourn = 0.15 < 0.25 unsplit.
	if math.Abs(rep.Sojourn[0]-0.15) > 1e-12 {
		t.Errorf("split sojourn %g, want 0.15", rep.Sojourn[0])
	}
	m := rep.Metrics
	if m.SplitServed != 1 || m.Served != 1 || m.Shed() != 0 {
		t.Errorf("counters: %s", m)
	}
	if m.Timeouts != 0 {
		t.Errorf("split request met its 0.2s deadline but counted as timeout")
	}
	// Without the deadline the same request is served unsplit.
	relaxed, err := trace.NewServer(trace.ServerConfig{
		Workers: 2, SplitCap: 100, Policy: trace.DegradeSplitTail,
	}, func(size int) (float64, error) { return float64(size) * 1e-3, nil })
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := relaxed.Serve(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Outcomes[0] != trace.OutcomeServed || math.Abs(rep2.Sojourn[0]-0.25) > 1e-12 {
		t.Errorf("no-deadline run: outcome %v sojourn %g, want served/0.25", rep2.Outcomes[0], rep2.Sojourn[0])
	}
}

// Property: under the default policy, shedding never drops a non-tail
// request — across random traces, worker counts, queue bounds and deadline
// pressure, every request at or below the split cap is served.
func TestServerDefaultPolicyNeverShedsNonTail(t *testing.T) {
	const cap = 512
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		reqs, err := trace.Generate(300, trace.GeneratorConfig{
			QPS:      500 + rng.Float64()*4000,
			MaxBatch: cap,
			TailProb: 0.05 + rng.Float64()*0.15,
			TailSize: 2560,
			Seed:     seed * 77,
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg := trace.ServerConfig{
			Workers:    1 + rng.Intn(3),
			QueueDepth: 1 + rng.Intn(8),
			Deadline:   1e-4 + rng.Float64()*1e-2, // tight: forces degradation
			SplitCap:   cap,
			Policy:     trace.DegradeSplitTail,
		}
		srv, err := trace.NewServer(cfg, sizeService(2e-5))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := srv.Serve(reqs)
		if err != nil {
			t.Fatal(err)
		}
		shedTails := 0
		for i, r := range reqs {
			if rep.Outcomes[i].Shed() {
				if r.Size <= cap {
					t.Fatalf("seed %d: non-tail request %d (size %d) shed with outcome %v under default policy",
						seed, i, r.Size, rep.Outcomes[i])
				}
				shedTails++
			} else if math.IsNaN(rep.Sojourn[i]) {
				t.Fatalf("seed %d: request %d not shed but has NaN sojourn", seed, i)
			}
		}
		if got := rep.Metrics.Shed(); got != shedTails {
			t.Errorf("seed %d: metrics count %d sheds, outcomes say %d", seed, got, shedTails)
		}
	}
}

// A full bounded queue under the default policy evicts the youngest queued
// tail to admit a normal request; under DegradeShed it sheds the arrival.
func TestServerQueueBoundTailEviction(t *testing.T) {
	reqs := []trace.Request{
		{Arrival: 0, Size: 10},     // occupies the worker for 1s
		{Arrival: 0.1, Size: 2000}, // tail, queued
		{Arrival: 0.2, Size: 20},   // arrives at a full queue
	}
	service := func(int) (float64, error) { return 1, nil }
	srv, err := trace.NewServer(trace.ServerConfig{
		Workers: 1, QueueDepth: 1, SplitCap: 512, Policy: trace.DegradeSplitTail,
	}, service)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := srv.Serve(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Outcomes[1] != trace.OutcomeShedQueue {
		t.Errorf("queued tail outcome %v, want shed-queue (evicted)", rep.Outcomes[1])
	}
	if rep.Outcomes[0] != trace.OutcomeServed || rep.Outcomes[2] != trace.OutcomeServed {
		t.Errorf("outcomes %v: normal requests must be served", rep.Outcomes)
	}
	if rep.Metrics.QueueSheds != 1 {
		t.Errorf("counters: %s", rep.Metrics)
	}

	hard, err := trace.NewServer(trace.ServerConfig{
		Workers: 1, QueueDepth: 1, SplitCap: 512, Policy: trace.DegradeShed,
	}, service)
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := hard.Serve(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Outcomes[2] != trace.OutcomeShedQueue {
		t.Errorf("DegradeShed: arriving request outcome %v, want shed-queue", rep2.Outcomes[2])
	}
}

// Request.Deadline overrides the server default per request.
func TestServerPerRequestDeadline(t *testing.T) {
	reqs := []trace.Request{
		{Arrival: 0, Size: 10},
		{Arrival: 0, Size: 10, Deadline: 5}, // would be shed under the 1.5s default
	}
	srv, err := trace.NewServer(trace.ServerConfig{
		Workers: 1, Deadline: 1.5, Policy: trace.DegradeShed,
	}, func(int) (float64, error) { return 1, nil })
	if err != nil {
		t.Fatal(err)
	}
	rep, err := srv.Serve(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Outcomes[1] != trace.OutcomeServed {
		t.Errorf("outcome %v: the relaxed per-request deadline must keep it served", rep.Outcomes[1])
	}
}

// The engine's service-time resolution genuinely runs on multiple worker
// goroutines: two concurrent service calls must be in flight at once. Run
// with -race; a serial engine would deadlock on the barrier and fail the
// watchdog.
func TestServerResolvesServiceConcurrently(t *testing.T) {
	barrier := make(chan struct{})
	var inFlight int32
	service := func(size int) (float64, error) {
		if atomic.AddInt32(&inFlight, 1) == 2 {
			close(barrier) // the second concurrent caller releases everyone
		}
		select {
		case <-barrier:
			return float64(size) * 1e-4, nil
		case <-time.After(10 * time.Second):
			return 0, errors.New("no second service call arrived: worker pool is serial")
		}
	}
	reqs := []trace.Request{
		{Arrival: 0, Size: 64}, {Arrival: 0.001, Size: 128},
		{Arrival: 0.002, Size: 192}, {Arrival: 0.003, Size: 256},
	}
	srv, err := trace.NewServer(trace.ServerConfig{Workers: 4}, service)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Serve(reqs); err != nil {
		t.Fatal(err)
	}
}

func TestServerErrors(t *testing.T) {
	ok := func(int) (float64, error) { return 1, nil }
	if _, err := trace.NewServer(trace.ServerConfig{Workers: -1}, ok); err == nil {
		t.Error("negative workers accepted")
	}
	if _, err := trace.NewServer(trace.ServerConfig{QueueDepth: -1}, ok); err == nil {
		t.Error("negative queue depth accepted")
	}
	if _, err := trace.NewServer(trace.ServerConfig{Deadline: -1}, ok); err == nil {
		t.Error("negative deadline accepted")
	}
	if _, err := trace.NewServer(trace.ServerConfig{}, nil); err == nil {
		t.Error("nil service accepted")
	}
	srv, err := trace.NewServer(trace.ServerConfig{}, ok)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Serve(nil); err == nil {
		t.Error("empty stream accepted")
	}
	if srv.Metrics() != nil {
		t.Error("metrics snapshot before first Serve should be nil")
	}
	bad, err := trace.NewServer(trace.ServerConfig{}, func(int) (float64, error) { return -1, nil })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bad.Serve([]trace.Request{{Arrival: 0, Size: 8}}); err == nil {
		t.Error("negative service time accepted")
	}
}

// The metrics snapshot is a deep copy and survives concurrent reads while
// new traces are served (run with -race).
func TestServerMetricsSnapshot(t *testing.T) {
	reqs, err := trace.Generate(200, trace.GeneratorConfig{QPS: 2000, MaxBatch: 512, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := trace.NewServer(trace.ServerConfig{Workers: 2}, sizeService(4e-5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Serve(reqs); err != nil {
		t.Fatal(err)
	}
	snap := srv.Metrics()
	if snap == nil || snap.Served != len(reqs) {
		t.Fatalf("snapshot %+v", snap)
	}
	if len(snap.QueueDepth) == 0 {
		t.Error("no queue-depth samples recorded")
	}
	if got := snap.Latency.Render(30); !strings.Contains(got, "#") {
		t.Errorf("histogram render has no bars:\n%s", got)
	}
	// Mutate the snapshot; the server's copy must be unaffected.
	snap.Latency.Counts[0] += 100
	snap.Workers[0].Busy = -1
	again := srv.Metrics()
	if again.Latency.Counts[0] == snap.Latency.Counts[0] || again.Workers[0].Busy == -1 {
		t.Error("Metrics() returned a shallow copy")
	}
	// Concurrent snapshot reads during a second run.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			_ = srv.Metrics()
		}
	}()
	if _, err := srv.Serve(reqs); err != nil {
		t.Fatal(err)
	}
	<-done
}

// Out-of-order input: outcomes and sojourns stay aligned to caller indices.
func TestServerUnsortedInput(t *testing.T) {
	reqs := []trace.Request{
		{Arrival: 0.2, Size: 20},
		{Arrival: 0.0, Size: 10},
		{Arrival: 0.1, Size: 2000},
	}
	srv, err := trace.NewServer(trace.ServerConfig{
		Workers: 1, QueueDepth: 1, SplitCap: 512,
	}, func(int) (float64, error) { return 1, nil })
	if err != nil {
		t.Fatal(err)
	}
	rep, err := srv.Serve(reqs)
	if err != nil {
		t.Fatal(err)
	}
	// Same scenario as TestServerQueueBoundTailEviction, but the caller's
	// order is scrambled: index 2 holds the tail.
	if rep.Outcomes[2] != trace.OutcomeShedQueue {
		t.Errorf("tail at caller index 2: outcome %v, want shed-queue", rep.Outcomes[2])
	}
	if rep.Outcomes[0] != trace.OutcomeServed || rep.Outcomes[1] != trace.OutcomeServed {
		t.Errorf("outcomes %v", rep.Outcomes)
	}
}

// A trace where every request is shed must report a zero makespan, not a
// negative one: lastEnd never moves off zero when nothing is served, and
// Makespan = lastEnd - firstArrival would go to -5s here (regression for the
// negative-utilization bug that followed from it).
func TestServerAllShedMakespanZero(t *testing.T) {
	reqs := []trace.Request{
		{Arrival: 5, Size: 100},
		{Arrival: 6, Size: 100},
	}
	srv, err := trace.NewServer(trace.ServerConfig{
		Workers: 1, Policy: trace.DegradeShed, Deadline: 0.1,
	}, func(int) (float64, error) { return 10, nil })
	if err != nil {
		t.Fatal(err)
	}
	rep, err := srv.Serve(reqs)
	if err != nil {
		t.Fatal(err)
	}
	m := rep.Metrics
	if m.DeadlineSheds != 2 || m.Served != 0 {
		t.Fatalf("want both requests deadline-shed, got %s", m)
	}
	if m.Makespan != 0 {
		t.Errorf("all-shed makespan %g, want 0", m.Makespan)
	}
	if rep.Utilization != 0 {
		t.Errorf("all-shed run utilization %g, want 0", rep.Utilization)
	}
	for i, w := range m.Workers {
		if w.Utilization != 0 {
			t.Errorf("worker %d utilization %g on an all-shed run, want 0", i, w.Utilization)
		}
	}
}

// The three DegradeSplitTail full-queue paths, each pinned separately.

// Path 1: a long-tail request arriving at a full queue is shed outright.
func TestServerQueueFullArrivingTailShed(t *testing.T) {
	reqs := []trace.Request{
		{Arrival: 0, Size: 64},       // dispatched immediately, holds the worker
		{Arrival: 0.001, Size: 64},   // queued: the queue is now at its bound
		{Arrival: 0.002, Size: 2560}, // tail arriving at a full queue
	}
	srv, err := trace.NewServer(trace.ServerConfig{
		Workers: 1, QueueDepth: 1, SplitCap: 512,
	}, func(int) (float64, error) { return 10, nil })
	if err != nil {
		t.Fatal(err)
	}
	rep, err := srv.Serve(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Outcomes[2] != trace.OutcomeShedQueue {
		t.Errorf("arriving tail outcome %v, want shed-queue", rep.Outcomes[2])
	}
	if rep.Outcomes[0] != trace.OutcomeServed || rep.Outcomes[1] != trace.OutcomeServed {
		t.Errorf("outcomes %v: non-tail requests must be served", rep.Outcomes)
	}
	if m := rep.Metrics; m.QueueSheds != 1 || m.Served != 2 {
		t.Errorf("counters: %s", m)
	}
}

// Path 2: a non-tail request arriving at a full queue evicts the YOUNGEST
// queued whole tail — with two tails queued, the later one goes and the
// earlier keeps its place.
func TestServerQueueFullEvictsYoungestTail(t *testing.T) {
	reqs := []trace.Request{
		{Arrival: 0, Size: 64},       // dispatched immediately
		{Arrival: 0.001, Size: 2560}, // older queued tail
		{Arrival: 0.002, Size: 2560}, // younger queued tail
		{Arrival: 0.003, Size: 64},   // non-tail at a full queue
	}
	srv, err := trace.NewServer(trace.ServerConfig{
		Workers: 1, QueueDepth: 2, SplitCap: 512,
	}, func(int) (float64, error) { return 10, nil })
	if err != nil {
		t.Fatal(err)
	}
	rep, err := srv.Serve(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Outcomes[2] != trace.OutcomeShedQueue {
		t.Errorf("younger queued tail outcome %v, want shed-queue (evicted)", rep.Outcomes[2])
	}
	if rep.Outcomes[1] != trace.OutcomeServed {
		t.Errorf("older queued tail outcome %v, want served — eviction must take the youngest", rep.Outcomes[1])
	}
	if rep.Outcomes[0] != trace.OutcomeServed || rep.Outcomes[3] != trace.OutcomeServed {
		t.Errorf("outcomes %v: non-tail requests must be served", rep.Outcomes)
	}
	if m := rep.Metrics; m.QueueSheds != 1 || m.Served != 3 {
		t.Errorf("counters: %s", m)
	}
}

// Path 3: with no queued tail to make room, the non-tail arrival is admitted
// past the bound — the queue depth is soft for non-tail traffic by design.
func TestServerQueueFullSoftBoundAdmit(t *testing.T) {
	reqs := []trace.Request{
		{Arrival: 0, Size: 64},     // dispatched immediately
		{Arrival: 0.001, Size: 64}, // queued: bound reached
		{Arrival: 0.002, Size: 64}, // non-tail at a full all-non-tail queue
	}
	srv, err := trace.NewServer(trace.ServerConfig{
		Workers: 1, QueueDepth: 1, SplitCap: 512,
	}, func(int) (float64, error) { return 10, nil })
	if err != nil {
		t.Fatal(err)
	}
	rep, err := srv.Serve(reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range rep.Outcomes {
		if o != trace.OutcomeServed {
			t.Errorf("request %d outcome %v, want served (soft bound admits)", i, o)
		}
	}
	m := rep.Metrics
	if m.QueueSheds != 0 || m.Served != 3 {
		t.Errorf("counters: %s", m)
	}
	if m.MaxQueueDepth != 2 {
		t.Errorf("max queue depth %d, want 2 — the soft admit exceeds the bound of 1", m.MaxQueueDepth)
	}
}
