package gateway_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/datasynth"
	"repro/internal/fleet"
	"repro/internal/gateway"
	"repro/internal/trace"
)

// constSvc is a time- and size-invariant service.
func constSvc(v float64) trace.TimedServiceFunc {
	return func(float64, int) (float64, error) { return v, nil }
}

// sizeSvc scales service time linearly with batch size.
func sizeSvc(perSample float64) trace.TimedServiceFunc {
	return func(_ float64, size int) (float64, error) { return perSample * float64(size), nil }
}

func mustPool(t *testing.T, cfg fleet.Config, models []fleet.Model, tenants []fleet.TenantSpec) *fleet.Pool {
	t.Helper()
	p, err := fleet.NewPool(cfg, models, tenants)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// driftyModel is a supervised model whose detector fires once virtual time
// passes driftAt, re-tuning to half the base service time.
func driftyModel(t *testing.T, name string, base, driftAt float64) fleet.Model {
	t.Helper()
	sv, err := trace.NewSupervisor(trace.SupervisorConfig{
		Server:       trace.ServerConfig{Workers: 1},
		Window:       8,
		CheckEvery:   4,
		TuneDuration: 0.02,
		MaxRetunes:   1,
		Cooldown:     0.5,
	}, constSvc(base), func(win []trace.WindowEntry) (bool, error) {
		return win[len(win)-1].Time >= driftAt, nil
	}, func(gen int, _ []trace.WindowEntry) (trace.TimedServiceFunc, error) {
		return constSvc(base / 2), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return fleet.Model{Name: name, Supervisor: sv}
}

// fakeClock is a hand-advanced Clock. After-channels fire when advance moves
// the clock past their deadline.
type fakeClock struct {
	mu     sync.Mutex
	now    time.Time
	afters []fakeAfter
	waits  []time.Duration // every duration handed to After, in call order
}

type fakeAfter struct {
	at time.Time
	ch chan time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(1_000_000, 0)}
}

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

func (f *fakeClock) After(d time.Duration) <-chan time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	ch := make(chan time.Time, 1)
	f.afters = append(f.afters, fakeAfter{at: f.now.Add(d), ch: ch})
	f.waits = append(f.waits, d)
	return ch
}

// armedWaits snapshots every duration After has been asked for so far.
func (f *fakeClock) armedWaits() []time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]time.Duration(nil), f.waits...)
}

func (f *fakeClock) advance(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.now = f.now.Add(d)
	kept := f.afters[:0]
	for _, a := range f.afters {
		if !a.at.After(f.now) {
			a.ch <- f.now
		} else {
			kept = append(kept, a)
		}
	}
	f.afters = kept
}

// rewind moves the clock backward — a hostile clock the warp mapping must
// clamp against.
func (f *fakeClock) rewind(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.now = f.now.Add(-d)
}

// The tentpole invariant: a live gateway session — concurrent clients, warped
// wall-clock arrivals, served and shed outcomes — records a session log whose
// offline replay through fleet.Pool reproduces every per-request outcome and
// sojourn bit-identically. The test asserts record<->replay equality, not any
// particular trace, so wall-clock nondeterminism across runs is immaterial.
func TestGatewaySessionReplaysBitIdentically(t *testing.T) {
	tenants := []fleet.TenantSpec{
		{Name: "gold", Priority: 1},
		{Name: "capped", Priority: 0, Quota: 2},
	}
	models := []fleet.Model{
		{Name: "heavy", Service: constSvc(2.0)},
		{Name: "scaled", Service: sizeSvc(0.05)},
	}
	pool := mustPool(t, fleet.Config{
		Queue: trace.QueuePolicy{Workers: 2, QueueDepth: 3},
	}, models, tenants)

	// The clock is frozen while a burst is admitted, so all ten arrivals
	// land at one simulated time whatever the goroutine launch latency (the
	// race detector slows launches enough to drain a wall-clock burst), and
	// the depth-3 queue and the quota-capped tenant overflow every burst.
	var log bytes.Buffer
	fc := newFakeClock()
	g, err := gateway.New(gateway.Config{Pool: pool, Warp: 20000, Clock: fc, Session: &log})
	if err != nil {
		t.Fatal(err)
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(50 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}

	// Open-loop load: each request is its own goroutine, so in-flight count
	// is unbounded.
	const total, burst = 100, 10
	var wg sync.WaitGroup
	var mu sync.Mutex
	outcomes := make(map[fleet.Outcome]int)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func(i, size int) {
			defer wg.Done()
			ev, err := g.Infer(context.Background(), fleet.Request{
				Size:   size,
				Model:  i % len(models),
				Tenant: i % len(tenants),
			})
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			mu.Lock()
			outcomes[ev.Outcome]++
			mu.Unlock()
		}(i, 1+rng.Intn(64))
		// A lull after each burst releases the replies paced within it.
		if i%burst == burst-1 {
			waitFor("the burst's admissions", func() bool { return g.Stats().Admitted == i+1 })
			fc.advance(time.Duration(rng.Intn(200)) * time.Microsecond)
		}
	}
	// Keep the clock moving until every paced reply is out. The pump arms a
	// fresh timer after each pass, so one advance may land before it does.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	waitFor("every reply", func() bool {
		select {
		case <-done:
			return true
		default:
			fc.advance(time.Millisecond)
			return false
		}
	})

	liveRep, err := g.Close()
	if err != nil {
		t.Fatalf("close: %v", err)
	}
	if liveRep == nil {
		t.Fatal("close returned nil report for a non-empty session")
	}
	st := g.Stats()
	if st.Admitted != total || st.Lost != 0 || st.Pending != 0 {
		t.Fatalf("stats after close: %+v, want %d admitted, 0 lost, 0 pending", st, total)
	}

	sess, err := gateway.ReadSession(bytes.NewReader(log.Bytes()))
	if err != nil {
		t.Fatalf("read session: %v", err)
	}
	if len(sess.Requests) != total {
		t.Fatalf("session has %d requests, want %d", len(sess.Requests), total)
	}

	// The hard invariant: offline replay through the same pool reproduces
	// every recorded outcome, sojourn, dispatch, service, worker and
	// generation bit for bit. Replay fails loudly on the first divergence.
	offRep, err := sess.Replay(pool)
	if err != nil {
		t.Fatalf("replay diverged: %v", err)
	}
	// The live report (admission order) must agree with the offline one too.
	for i := range sess.Requests {
		if liveRep.Outcomes[i] != offRep.Outcomes[i] {
			t.Fatalf("request %d: live report outcome %v, replay %v", i, liveRep.Outcomes[i], offRep.Outcomes[i])
		}
		if math.Float64bits(liveRep.Sojourn[i]) != math.Float64bits(offRep.Sojourn[i]) {
			t.Fatalf("request %d: live sojourn %v, replay %v", i, liveRep.Sojourn[i], offRep.Sojourn[i])
		}
	}

	// Sanity on coverage: with 2 workers, a depth-3 queue, a 2s service and a
	// quota-capped tenant under a 20000x warp, the stream must have produced
	// both served and shed outcomes or the test lost its teeth.
	if outcomes[fleet.OutcomeServed] == 0 {
		t.Error("no served requests — warp or load is mis-tuned")
	}
	if outcomes[fleet.OutcomeShedQueue]+outcomes[fleet.OutcomeShedQuota]+outcomes[fleet.OutcomeShedLoad] == 0 {
		t.Error("no shed requests — queue never filled, shed replay path untested")
	}
}

// A supervised model's drift-detect -> background-tune -> hot-swap cycle runs
// against live gateway traffic, and the recorded session still replays
// bit-identically — generation stamps included.
func TestGatewaySupervisedModelReplay(t *testing.T) {
	pool := mustPool(t, fleet.Config{Queue: trace.QueuePolicy{Workers: 1}},
		[]fleet.Model{driftyModel(t, "drifty", 0.5, 5)}, []fleet.TenantSpec{{Name: "only"}})

	var log bytes.Buffer
	g, err := gateway.New(gateway.Config{Pool: pool, Warp: 10000, Session: &log})
	if err != nil {
		t.Fatal(err)
	}

	swapped := false
	for i := 0; i < 40; i++ {
		ev, err := g.Infer(context.Background(), fleet.Request{Size: 16})
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if ev.Generation > 0 {
			swapped = true
		}
		time.Sleep(100 * time.Microsecond) // ~1 simulated second per gap at warp 10000
	}
	if !swapped {
		t.Fatal("no request resolved on a post-swap generation — hot-swap never ran against live traffic")
	}

	if _, err := g.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	sess, err := gateway.ReadSession(bytes.NewReader(log.Bytes()))
	if err != nil {
		t.Fatalf("read session: %v", err)
	}
	if _, err := sess.Replay(pool); err != nil {
		t.Fatalf("supervised replay diverged: %v", err)
	}
}

// The warp mapping: simulated time is elapsed wall time times the warp
// factor, and a regressing wall clock can never regress simulated time.
func TestGatewayWarpMapping(t *testing.T) {
	pool := mustPool(t, fleet.Config{Queue: trace.QueuePolicy{Workers: 1}},
		[]fleet.Model{{Name: "m", Service: constSvc(1.0)}}, []fleet.TenantSpec{{Name: "only"}})
	fc := newFakeClock()
	g, err := gateway.New(gateway.Config{Pool: pool, Warp: 50, Clock: fc})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	if got := g.Stats().SimNow; got != 0 {
		t.Fatalf("SimNow at epoch = %g, want 0", got)
	}
	fc.advance(100 * time.Millisecond)
	if got := g.Stats().SimNow; math.Abs(got-5) > 1e-9 {
		t.Fatalf("SimNow after 100ms at warp 50 = %g, want 5", got)
	}
	fc.rewind(40 * time.Millisecond)
	if got := g.Stats().SimNow; got < 5 {
		t.Fatalf("SimNow regressed to %g after the wall clock rewound", got)
	}
}

// Responses are delivered at warped wall time, not instantly: a 0.2-simulated-
// second service at warp 10 holds the caller for ~20 wall milliseconds.
func TestGatewayInferPacesToWallClock(t *testing.T) {
	pool := mustPool(t, fleet.Config{Queue: trace.QueuePolicy{Workers: 1}},
		[]fleet.Model{{Name: "m", Service: constSvc(0.2)}}, []fleet.TenantSpec{{Name: "only"}})
	g, err := gateway.New(gateway.Config{Pool: pool, Warp: 10})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	ev, err := g.Infer(context.Background(), fleet.Request{Size: 8})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Outcome != fleet.OutcomeServed {
		t.Fatalf("outcome %v, want served", ev.Outcome)
	}
	// 0.2 sim s / warp 10 = 20ms wall; allow generous scheduler slack below.
	if elapsed < 10*time.Millisecond {
		t.Errorf("response delivered after %v wall, want >= ~20ms (warped completion)", elapsed)
	}
	if _, err := g.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

func TestGatewayConfigValidation(t *testing.T) {
	pool := mustPool(t, fleet.Config{Queue: trace.QueuePolicy{Workers: 1}},
		[]fleet.Model{{Name: "m", Service: constSvc(1.0)}}, []fleet.TenantSpec{{Name: "only"}})
	cases := []gateway.Config{
		{Pool: nil, Warp: 1},
		{Pool: pool, Warp: 0},
		{Pool: pool, Warp: -2},
		{Pool: pool, Warp: math.Inf(1)},
		{Pool: pool, Warp: math.NaN()},
	}
	for i, cfg := range cases {
		if _, err := gateway.New(cfg); err == nil {
			t.Errorf("case %d: New(%+v) accepted an invalid config", i, cfg)
		}
	}
}

// The HTTP front door + open-loop load generator, end to end on a loopback
// listener: no transport errors, no lost requests, clean shutdown, and the
// recorded session still replays bit-identically. This is the CI smoke test.
func TestGatewayHTTPLoadgenSmoke(t *testing.T) {
	pool := mustPool(t, fleet.Config{Queue: trace.QueuePolicy{Workers: 2, QueueDepth: 64}},
		[]fleet.Model{{Name: "m", Service: sizeSvc(0.001)}}, []fleet.TenantSpec{{Name: "only"}})
	var log bytes.Buffer
	g, err := gateway.New(gateway.Config{Pool: pool, Warp: 2000, Session: &log})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()

	const n = 40
	res, err := gateway.RunLoadgen(gateway.LoadgenConfig{
		URL:      srv.URL,
		Arrival:  datasynth.Poisson{Rate: 500},
		Sizes:    datasynth.Uniform{Lo: 1, Hi: 32},
		Requests: n,
		Workers:  8,
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent != n || res.Errors != 0 || res.Lost != 0 {
		t.Fatalf("loadgen: sent %d errors %d lost %d, want %d/0/0", res.Sent, res.Errors, res.Lost, n)
	}
	if res.Served+res.Shed != n {
		t.Fatalf("served %d + shed %d != %d", res.Served, res.Shed, n)
	}

	// Metrics endpoint: valid JSON, counters consistent with the run.
	resp, err := http.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var met gateway.MetricsResponse
	if err := json.NewDecoder(resp.Body).Decode(&met); err != nil {
		t.Fatalf("metrics decode: %v", err)
	}
	resp.Body.Close()
	if met.Admitted != n {
		t.Fatalf("metrics admitted %d, want %d", met.Admitted, n)
	}
	if met.Served > 0 && met.P50Sim <= 0 {
		t.Errorf("served %d requests but P50 = %g", met.Served, met.P50Sim)
	}

	// Health endpoint while healthy.
	hr, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", hr.StatusCode)
	}

	rep, err := g.Close()
	if err != nil {
		t.Fatalf("close: %v", err)
	}
	if rep == nil {
		t.Fatal("nil report after a served session")
	}
	if st := g.Stats(); st.Lost != 0 || st.Pending != 0 {
		t.Fatalf("after close: %d lost, %d pending, want 0/0", st.Lost, st.Pending)
	}

	sess, err := gateway.ReadSession(bytes.NewReader(log.Bytes()))
	if err != nil {
		t.Fatalf("read session: %v", err)
	}
	if _, err := sess.Replay(pool); err != nil {
		t.Fatalf("HTTP-recorded session diverged on replay: %v", err)
	}
}

// Bad requests are client errors that must not poison the serving session.
func TestGatewayHTTPRejectsBadRequests(t *testing.T) {
	pool := mustPool(t, fleet.Config{Queue: trace.QueuePolicy{Workers: 1}},
		[]fleet.Model{{Name: "m", Service: constSvc(0.001)}}, []fleet.TenantSpec{{Name: "only"}})
	g, err := gateway.New(gateway.Config{Pool: pool, Warp: 5000})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()

	post := func(body string) int {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/infer", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, body := range []string{
		`{"model": 9, "tenant": 0, "size": 4}`, // unknown model
		`{"model": 0, "tenant": 5, "size": 4}`, // unknown tenant
		`{"model": 0, "tenant": 0, "size": 0}`, // non-positive size
		`{"model": 0, "size": 4, "bogus": 1}`,  // unknown field
		`not json at all`,                      // malformed body
	} {
		if code := post(body); code != http.StatusBadRequest {
			t.Errorf("POST %s -> %d, want 400", body, code)
		}
	}
	// GET on the infer endpoint is a method error.
	if resp, err := http.Get(srv.URL + "/v1/infer"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET /v1/infer -> %d, want 405", resp.StatusCode)
		}
	}

	// The rejections above were not sticky: the gateway still serves.
	if code := post(`{"model": 0, "tenant": 0, "size": 4}`); code != http.StatusOK {
		t.Fatalf("good request after rejections -> %d, want 200", code)
	}
	if resp, err := http.Get(srv.URL + "/healthz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("healthz after rejections -> %d, want 200", resp.StatusCode)
		}
	}

	if _, err := g.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// A closed gateway answers 503, not 400: shutdown is the server's fault.
	if code := post(`{"model": 0, "tenant": 0, "size": 4}`); code != http.StatusServiceUnavailable {
		t.Fatalf("infer after close -> %d, want 503", code)
	}
}

// Close on an idle gateway: no admissions, nil report, valid (empty) session.
func TestGatewayCloseEmpty(t *testing.T) {
	pool := mustPool(t, fleet.Config{Queue: trace.QueuePolicy{Workers: 1}},
		[]fleet.Model{{Name: "m", Service: constSvc(1.0)}}, []fleet.TenantSpec{{Name: "only"}})
	var log bytes.Buffer
	g, err := gateway.New(gateway.Config{Pool: pool, Warp: 100, Session: &log})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := g.Close()
	if err != nil {
		t.Fatalf("close: %v", err)
	}
	if rep != nil {
		t.Fatalf("empty session returned a report: %+v", rep)
	}
	if _, err := g.Close(); err == nil {
		t.Fatal("double close did not error")
	}
	sess, err := gateway.ReadSession(bytes.NewReader(log.Bytes()))
	if err != nil {
		t.Fatalf("empty session log did not parse: %v", err)
	}
	if len(sess.Requests) != 0 {
		t.Fatalf("empty session decoded %d requests", len(sess.Requests))
	}
	if _, err := g.Infer(context.Background(), fleet.Request{Size: 1}); err == nil {
		t.Fatal("Infer after close did not error")
	}
}

// Regression: a pending event arbitrarily far in the simulated future used to
// overflow the pump's wall-wait conversion (float seconds to int64
// nanoseconds), and the negative product collapsed into a 1ns timer — a
// busy-spin that pinned a core until the event matured. The pump must arm a
// bounded idle wait instead; sleeping short is safe because the loop
// recomputes the remaining wait every pass.
func TestGatewayPumpFarFutureEventDoesNotBusySpin(t *testing.T) {
	clock := newFakeClock()
	pool := mustPool(t, fleet.Config{Queue: trace.QueuePolicy{Workers: 1}},
		[]fleet.Model{{Name: "glacial", Service: constSvc(1e12)}},
		[]fleet.TenantSpec{{Name: "only"}})
	g, err := gateway.New(gateway.Config{Pool: pool, Warp: 1, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Blocks until shutdown drains it; the ctx cancel below abandons the
		// wait without abandoning the request.
		g.Infer(ctx, fleet.Request{Size: 1})
	}()

	// The request dispatches at sim t=0 and completes at sim t=1e12, so the
	// pump parks the event and arms a timer for it. Wait for that arm.
	deadline := time.Now().Add(10 * time.Second)
	var waits []time.Duration
	for len(waits) == 0 && time.Now().Before(deadline) {
		waits = clock.armedWaits()
		time.Sleep(time.Millisecond)
	}
	if len(waits) == 0 {
		t.Fatal("pump never armed a timer for the far-future completion")
	}
	for _, w := range waits {
		if w < 10*time.Millisecond {
			t.Fatalf("pump armed a %v timer for a completion ~1e12 simulated seconds out (overflow busy-spin)", w)
		}
	}

	cancel()
	<-done
	if _, err := g.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}
