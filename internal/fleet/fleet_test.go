package fleet_test

import (
	"math"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/fleet"
	"repro/internal/perf"
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

func eqNaN(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

// oneTenant is the minimal tenant list.
func oneTenant() []fleet.TenantSpec {
	return []fleet.TenantSpec{{Name: "only"}}
}

func mustPool(t *testing.T, cfg fleet.Config, models []fleet.Model, tenants []fleet.TenantSpec) *fleet.Pool {
	t.Helper()
	p, err := fleet.NewPool(cfg, models, tenants)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mustServe(t *testing.T, p *fleet.Pool, reqs []fleet.Request) *fleet.Report {
	t.Helper()
	rep, err := p.Serve(reqs)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// A higher-priority tenant arriving later dispatches before an
// earlier-arrived lower-priority one the moment the worker frees.
func TestFleetPriorityDispatch(t *testing.T) {
	tenants := []fleet.TenantSpec{
		{Name: "lo", Priority: 0},
		{Name: "hi", Priority: 1},
	}
	p := mustPool(t, fleet.Config{Queue: trace.QueuePolicy{Workers: 1}},
		[]fleet.Model{{Name: "m", Service: constSvc(1.0)}}, tenants)
	reqs := []fleet.Request{
		{Arrival: 0, Size: 16, Tenant: 0},
		{Arrival: 0.1, Size: 16, Tenant: 0},
		{Arrival: 0.2, Size: 16, Tenant: 1},
	}
	rep := mustServe(t, p, reqs)
	wantDisp := []float64{0, 2, 1} // hi (index 2) preempts the queued lo
	for i, w := range wantDisp {
		if rep.Dispatch[i] != w {
			t.Errorf("dispatch[%d] = %g, want %g", i, rep.Dispatch[i], w)
		}
	}
	wantSoj := []float64{1, 2.9, 1.8}
	for i, w := range wantSoj {
		if math.Abs(rep.Sojourn[i]-w) > 1e-9 {
			t.Errorf("sojourn[%d] = %g, want %g", i, rep.Sojourn[i], w)
		}
	}
	m := rep.Metrics
	if m.Tenants[1].Served != 1 || m.Tenants[0].Served != 2 || m.Served != 3 {
		t.Errorf("per-tenant served hi=%d lo=%d total=%d, want 1/2/3",
			m.Tenants[1].Served, m.Tenants[0].Served, m.Served)
	}
	if m.Policy != "priority-edf" || m.Placement != "packed" {
		t.Errorf("labels %q/%q, want priority-edf/packed", m.Policy, m.Placement)
	}
}

// Within one priority class the earlier absolute deadline dispatches first.
func TestFleetEDFWithinClass(t *testing.T) {
	p := mustPool(t, fleet.Config{Queue: trace.QueuePolicy{Workers: 1, Policy: trace.DegradeServe}},
		[]fleet.Model{{Name: "m", Service: constSvc(1.0)}}, oneTenant())
	reqs := []fleet.Request{
		{Arrival: 0, Size: 16},
		{Arrival: 0.1, Size: 16, Deadline: 10}, // absolute 10.1
		{Arrival: 0.2, Size: 16, Deadline: 5},  // absolute 5.2 -> first
	}
	rep := mustServe(t, p, reqs)
	if rep.Dispatch[2] != 1 || rep.Dispatch[1] != 2 {
		t.Errorf("EDF order: dispatch = %v, want tighter deadline (index 2) at t=1", rep.Dispatch)
	}
}

// A tenant at its queue quota sheds with OutcomeShedQuota; dispatched
// requests free the quota again.
func TestFleetTenantQuota(t *testing.T) {
	tenants := []fleet.TenantSpec{{Name: "capped", Quota: 1}}
	p := mustPool(t, fleet.Config{Queue: trace.QueuePolicy{Workers: 1}},
		[]fleet.Model{{Name: "m", Service: constSvc(1.0)}}, tenants)
	reqs := []fleet.Request{
		{Arrival: 0, Size: 16},   // dispatches immediately, quota back to 0
		{Arrival: 0.1, Size: 16}, // queued (1/1)
		{Arrival: 0.2, Size: 16}, // over quota -> shed
		{Arrival: 2.5, Size: 16}, // queue drained again -> admitted
	}
	rep := mustServe(t, p, reqs)
	want := []fleet.Outcome{fleet.OutcomeServed, fleet.OutcomeServed, fleet.OutcomeShedQuota, fleet.OutcomeServed}
	if !reflect.DeepEqual(rep.Outcomes, want) {
		t.Fatalf("outcomes %v, want %v", rep.Outcomes, want)
	}
	if rep.Metrics.ShedQuota != 1 || rep.Metrics.Tenants[0].ShedQuota != 1 {
		t.Errorf("quota shed counters pool=%d tenant=%d, want 1/1", rep.Metrics.ShedQuota, rep.Metrics.Tenants[0].ShedQuota)
	}
	if !math.IsNaN(rep.Sojourn[2]) || rep.Worker[2] != -1 || !math.IsNaN(rep.Service[2]) {
		t.Errorf("shed request leaked serving fields: sojourn=%g worker=%d", rep.Sojourn[2], rep.Worker[2])
	}
}

// Load-aware early shedding drops below-top-priority arrivals once the queue
// reaches ShedFraction of its bound, while top-priority arrivals keep the
// remaining headroom until the hard bound.
func TestFleetLoadShed(t *testing.T) {
	tenants := []fleet.TenantSpec{
		{Name: "lo", Priority: 0},
		{Name: "hi", Priority: 1},
	}
	p := mustPool(t, fleet.Config{
		Queue:        trace.QueuePolicy{Workers: 1, QueueDepth: 4},
		ShedFraction: 0.5,
	}, []fleet.Model{{Name: "m", Service: constSvc(1.0)}}, tenants)
	reqs := []fleet.Request{
		{Arrival: 0, Size: 16, Tenant: 0},    // dispatches at 0
		{Arrival: 0.10, Size: 16, Tenant: 0}, // queued 1
		{Arrival: 0.15, Size: 16, Tenant: 0}, // queued 2
		{Arrival: 0.20, Size: 16, Tenant: 0}, // queued >= 0.5*4 -> shed-load
		{Arrival: 0.25, Size: 16, Tenant: 1}, // hi rides through -> queued 3
		{Arrival: 0.30, Size: 16, Tenant: 1}, // queued 4
		{Arrival: 0.35, Size: 16, Tenant: 1}, // hard bound -> shed-queue
	}
	rep := mustServe(t, p, reqs)
	if rep.Outcomes[3] != fleet.OutcomeShedLoad {
		t.Errorf("low-priority arrival at fraction: %v, want shed-load", rep.Outcomes[3])
	}
	if rep.Outcomes[6] != fleet.OutcomeShedQueue {
		t.Errorf("top-priority arrival at hard bound: %v, want shed-queue", rep.Outcomes[6])
	}
	if rep.Outcomes[4] != fleet.OutcomeServed || rep.Outcomes[5] != fleet.OutcomeServed {
		t.Errorf("top-priority arrivals within bound were shed: %v", rep.Outcomes)
	}
	if rep.Metrics.ShedLoad != 1 || rep.Metrics.ShedQueue != 1 || rep.Metrics.MaxQueueDepth != 4 {
		t.Errorf("pool counters %+v", rep.Metrics)
	}
}

// Dedicated placement partitions the workers; each model only ever runs on
// its own block, and the interference ratio is exactly 1.
func TestFleetDedicatedIsolation(t *testing.T) {
	p := mustPool(t, fleet.Config{
		Queue:     trace.QueuePolicy{Workers: 2},
		Placement: fleet.PlacementDedicated,
	}, []fleet.Model{
		{Name: "a", Service: constSvc(1.0)},
		{Name: "b", Service: constSvc(1.0)},
	}, oneTenant())
	if asg := p.InitialAssignment(); !reflect.DeepEqual(asg, fleet.Assignment{{0}, {1}}) {
		t.Fatalf("dedicated assignment %v, want [[0] [1]]", asg)
	}
	reqs := []fleet.Request{
		{Arrival: 0, Size: 16, Model: 0},
		{Arrival: 0, Size: 16, Model: 1},
		{Arrival: 0.1, Size: 16, Model: 0},
		{Arrival: 0.1, Size: 16, Model: 1},
	}
	rep := mustServe(t, p, reqs)
	for i, r := range reqs {
		if rep.Worker[i] != r.Model {
			t.Errorf("request %d (model %d) ran on worker %d, want its dedicated worker", i, r.Model, rep.Worker[i])
		}
	}
	ratios, err := p.Interference(reqs, rep)
	if err != nil {
		t.Fatal(err)
	}
	for m, r := range ratios {
		if math.Abs(r-1) > 1e-12 {
			t.Errorf("model %d interference %g, want exactly 1 under dedicated placement", m, r)
		}
	}
}

// Packed placement consolidates light load onto the lowest worker; spread
// balances it across the pool.
func TestFleetPackedVsSpread(t *testing.T) {
	reqs := []fleet.Request{
		{Arrival: 0, Size: 16},
		{Arrival: 1, Size: 16},
		{Arrival: 2, Size: 16},
		{Arrival: 3, Size: 16},
	}
	models := []fleet.Model{{Name: "m", Service: constSvc(0.5)}}

	packed := mustPool(t, fleet.Config{Queue: trace.QueuePolicy{Workers: 2}}, models, oneTenant())
	rep := mustServe(t, packed, reqs)
	if want := []int{0, 0, 0, 0}; !reflect.DeepEqual(rep.Worker, want) {
		t.Errorf("packed workers %v, want all on worker 0", rep.Worker)
	}

	spread := mustPool(t, fleet.Config{
		Queue:     trace.QueuePolicy{Workers: 2},
		Placement: fleet.PlacementSpread,
	}, models, oneTenant())
	rep = mustServe(t, spread, reqs)
	if want := []int{0, 1, 0, 1}; !reflect.DeepEqual(rep.Worker, want) {
		t.Errorf("spread workers %v, want alternating", rep.Worker)
	}
}

// The rebalance hook fires on the configured pacing, its returned assignment
// steers subsequent dispatch, and applied rebalances are counted.
func TestFleetRebalanceHook(t *testing.T) {
	var calls int32
	p := mustPool(t, fleet.Config{
		Queue:          trace.QueuePolicy{Workers: 2},
		RebalanceEvery: 1,
		Rebalance: func(now float64, hist []fleet.LoadSnapshot, cur fleet.Assignment) fleet.Assignment {
			atomic.AddInt32(&calls, 1)
			if len(hist) == 0 || len(hist[len(hist)-1].Workers) != 2 {
				t.Errorf("rebalance history %v, want a snapshot of 2 workers", hist)
			}
			return fleet.Assignment{{1}} // pin the model to worker 1
		},
	}, []fleet.Model{{Name: "m", Service: constSvc(0.1)}}, oneTenant())
	reqs := []fleet.Request{
		{Arrival: 0, Size: 16},   // before any rebalance: packed -> worker 0
		{Arrival: 1.5, Size: 16}, // rebalance fires, then dispatch on worker 1
		{Arrival: 1.6, Size: 16},
	}
	rep := mustServe(t, p, reqs)
	if want := []int{0, 1, 1}; !reflect.DeepEqual(rep.Worker, want) {
		t.Errorf("workers %v, want %v after rebalance", rep.Worker, want)
	}
	if got := atomic.LoadInt32(&calls); got != 1 {
		t.Errorf("rebalance hook ran %d times, want 1 (paced at 1s over a 1.6s trace)", got)
	}
	if rep.Metrics.Rebalances != 1 {
		t.Errorf("Rebalances = %d, want 1", rep.Metrics.Rebalances)
	}
}

// An invalid assignment from the hook fails the run loudly.
func TestFleetRebalanceInvalid(t *testing.T) {
	p := mustPool(t, fleet.Config{
		Queue:          trace.QueuePolicy{Workers: 2},
		RebalanceEvery: 1,
		Rebalance: func(float64, []fleet.LoadSnapshot, fleet.Assignment) fleet.Assignment {
			return fleet.Assignment{{5}}
		},
	}, []fleet.Model{{Name: "m", Service: constSvc(0.1)}}, oneTenant())
	_, err := p.Serve([]fleet.Request{{Arrival: 0, Size: 16}, {Arrival: 2, Size: 16}})
	if err == nil || !strings.Contains(err.Error(), "rebalance") {
		t.Fatalf("invalid rebalance assignment: err = %v, want rebalance error", err)
	}
}

// A supervised model on the pool keeps the exact single-model drift
// semantics: the scripted scenario from the trace package's swap-semantics
// test reproduces through the fleet — same generation stamps, same sojourns,
// same swap event, tune occupancy attributed to the pool worker, and the
// supervisor's LiveSet and metrics snapshot published as under Run.
func TestFleetSupervisedSwapSemantics(t *testing.T) {
	gen0 := constSvc(1e-3)
	gen1 := constSvc(5e-4)
	detect := func(win []trace.WindowEntry) (bool, error) {
		return win[len(win)-1].Time >= 10, nil
	}
	retune := func(gen int, win []trace.WindowEntry) (trace.TimedServiceFunc, error) {
		return gen1, nil
	}
	sv, err := trace.NewSupervisor(trace.SupervisorConfig{
		Server:       trace.ServerConfig{Workers: 1},
		Window:       2,
		CheckEvery:   1,
		TuneDuration: 0.5,
		MaxRetunes:   1,
	}, gen0, detect, retune)
	if err != nil {
		t.Fatal(err)
	}
	p := mustPool(t, fleet.Config{Queue: trace.QueuePolicy{Workers: 1}},
		[]fleet.Model{{Name: "drifty", Supervisor: sv}}, oneTenant())
	reqs := []fleet.Request{
		{Arrival: 0, Size: 16},
		{Arrival: 1, Size: 16},
		{Arrival: 10, Size: 16},
		{Arrival: 10.2, Size: 16},
		{Arrival: 12, Size: 32},
	}
	rep := mustServe(t, p, reqs)

	if want := []int{0, 0, 0, 0, 1}; !reflect.DeepEqual(rep.Generations, want) {
		t.Fatalf("generation stamps %v, want %v", rep.Generations, want)
	}
	wantSoj := []float64{1e-3, 1e-3, 0.501, 10.502 - 10.2, 5e-4}
	for i, w := range wantSoj {
		if math.Abs(rep.Sojourn[i]-w) > 1e-9 {
			t.Errorf("sojourn[%d] = %g, want %g", i, rep.Sojourn[i], w)
		}
	}

	mr := rep.ModelReports[0]
	if mr.Metrics.Generation != 1 || len(mr.Metrics.Swaps) != 1 {
		t.Fatalf("model report: generation %d, %d swaps, want 1/1", mr.Metrics.Generation, len(mr.Metrics.Swaps))
	}
	s := mr.Metrics.Swaps[0]
	if s.Generation != 1 || s.Detected != 10 || s.Start != 10 || s.Swapped != 10.5 ||
		s.Worker != 0 || s.TuneDuration != 0.5 {
		t.Errorf("swap event %+v, want gen 1 detected/start 10, swapped 10.5 on worker 0", s)
	}
	if !reflect.DeepEqual(mr.Generations, rep.Generations) {
		t.Errorf("model report generations %v != fleet stamps %v", mr.Generations, rep.Generations)
	}

	// The tune's 0.5s occupies the shared pool worker.
	if got := rep.Metrics.Workers[0].TuneBusy; got != 0.5 {
		t.Errorf("pool worker TuneBusy %g, want 0.5", got)
	}
	if mr.Metrics.TuneBusy != 0.5 {
		t.Errorf("model TuneBusy %g, want 0.5", mr.Metrics.TuneBusy)
	}
	if g := sv.Live().Current(); g.ID != 1 || g.Swapped != 10.5 {
		t.Errorf("live generation %d swapped %g, want 1 at 10.5", g.ID, g.Swapped)
	}
	if snap := sv.Metrics(); snap == nil || snap.Generation != 1 || len(snap.Swaps) != 1 {
		t.Errorf("supervisor metrics snapshot missing the fleet run's swap")
	}
}

// Two models contending for one worker: the model that waits shows an
// interference ratio above 1, and the solo replay baseline is exact.
func TestFleetInterferenceContended(t *testing.T) {
	p := mustPool(t, fleet.Config{Queue: trace.QueuePolicy{Workers: 1}},
		[]fleet.Model{
			{Name: "a", Service: constSvc(1.0)},
			{Name: "b", Service: constSvc(1.0)},
		}, oneTenant())
	reqs := []fleet.Request{
		{Arrival: 0, Size: 16, Model: 0},
		{Arrival: 0.1, Size: 16, Model: 1}, // waits 0.9s behind model a
	}
	rep := mustServe(t, p, reqs)
	ratios, err := p.Interference(reqs, rep)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ratios[0]-1) > 1e-12 {
		t.Errorf("model a interference %g, want 1 (it never waited)", ratios[0])
	}
	if want := 1.9 / 1.0; math.Abs(ratios[1]-want) > 1e-9 {
		t.Errorf("model b interference %g, want %g", ratios[1], want)
	}
}

// eqFleetReports compares two fleet reports field by field with NaN-tolerant
// float comparison.
func eqFleetReports(t *testing.T, a, b *fleet.Report) {
	t.Helper()
	if len(a.Sojourn) != len(b.Sojourn) {
		t.Fatalf("report lengths differ: %d vs %d", len(a.Sojourn), len(b.Sojourn))
	}
	for i := range a.Sojourn {
		if !eqNaN(a.Sojourn[i], b.Sojourn[i]) || a.Outcomes[i] != b.Outcomes[i] ||
			a.Generations[i] != b.Generations[i] || !eqNaN(a.Dispatch[i], b.Dispatch[i]) ||
			a.Worker[i] != b.Worker[i] || !eqNaN(a.Service[i], b.Service[i]) {
			t.Fatalf("request %d differs between replays", i)
		}
	}
	am, bm := a.Metrics, b.Metrics
	if am.Served != bm.Served || am.Timeouts != bm.Timeouts || am.Shed() != bm.Shed() ||
		am.MaxQueueDepth != bm.MaxQueueDepth || am.Makespan != bm.Makespan ||
		am.Rebalances != bm.Rebalances {
		t.Fatalf("pool metrics differ: %v vs %v", am, bm)
	}
	for g := range am.Models {
		if am.Models[g].String() != bm.Models[g].String() || !eqNaN(am.Models[g].P99, bm.Models[g].P99) {
			t.Fatalf("model %d metrics differ", g)
		}
	}
	for g := range am.Tenants {
		if am.Tenants[g].String() != bm.Tenants[g].String() || !eqNaN(am.Tenants[g].P99, bm.Tenants[g].P99) {
			t.Fatalf("tenant %d metrics differ", g)
		}
	}
	for m := range a.ModelReports {
		if a.ModelReports[m].Metrics.Generation != b.ModelReports[m].Metrics.Generation ||
			len(a.ModelReports[m].Metrics.Swaps) != len(b.ModelReports[m].Metrics.Swaps) {
			t.Fatalf("model %d swap history differs", m)
		}
	}
}

// driftyModel builds a fresh supervised model whose detector fires once the
// window reaches driftAt and whose retune speeds the service up.
func driftyModel(t *testing.T, name string, base float64, driftAt float64) fleet.Model {
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

// fleetStream builds a deterministic two-model, two-tenant stream.
func fleetStream(t *testing.T, n int, seed int64) []fleet.Request {
	t.Helper()
	mk := func(seed int64) []trace.Request {
		reqs, err := trace.Generate(n, trace.GeneratorConfig{
			QPS: 600, MaxBatch: 256, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		return reqs
	}
	return fleet.Merge(
		fleet.Stream{Model: 0, Tenant: 0, Reqs: mk(seed)},
		fleet.Stream{Model: 1, Tenant: 1, Reqs: mk(seed + 1)},
	)
}

// The replay is exact: two identical pools over the same stream produce
// identical reports, including supervised models' swap histories.
func TestFleetDeterminism(t *testing.T) {
	run := func() *fleet.Report {
		models := []fleet.Model{
			driftyModel(t, "a", 2e-3, 0.3),
			driftyModel(t, "b", 1e-3, 0.6),
		}
		tenants := []fleet.TenantSpec{
			{Name: "lo", Priority: 0, Quota: 32},
			{Name: "hi", Priority: 1, Deadline: 0.05},
		}
		p := mustPool(t, fleet.Config{
			Queue:        trace.QueuePolicy{Workers: 3, QueueDepth: 64},
			Placement:    fleet.PlacementSpread,
			ShedFraction: 0.75,
		}, models, tenants)
		return mustServe(t, p, fleetStream(t, 400, 7))
	}
	a, b := run(), run()
	eqFleetReports(t, a, b)
	if a.ModelReports[0].Metrics.Generation == 0 && a.ModelReports[1].Metrics.Generation == 0 {
		t.Fatalf("determinism run exercised no swaps; strengthen the scenario")
	}
}

// Serve input validation and policy misbehavior surface as errors, not
// corrupted reports.
func TestFleetServeErrors(t *testing.T) {
	p := mustPool(t, fleet.Config{Queue: trace.QueuePolicy{Workers: 1}},
		[]fleet.Model{{Name: "m", Service: constSvc(1e-3)}}, oneTenant())
	cases := []struct {
		name string
		reqs []fleet.Request
		want string
	}{
		{"empty", nil, "empty request stream"},
		{"bad model", []fleet.Request{{Arrival: 0, Size: 16, Model: 7}}, "unknown model"},
		{"bad tenant", []fleet.Request{{Arrival: 0, Size: 16, Tenant: 2}}, "unknown tenant"},
		{"bad size", []fleet.Request{{Arrival: 0, Size: 0}}, "non-positive size"},
		{"bad deadline", []fleet.Request{{Arrival: 0, Size: 16, Deadline: -1}}, "negative deadline"},
	}
	for _, tc := range cases {
		if _, err := p.Serve(tc.reqs); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}

	bad := mustPool(t, fleet.Config{Queue: trace.QueuePolicy{Workers: 1}},
		[]fleet.Model{{Name: "m", Service: func(float64, int) (float64, error) { return -1, nil }}}, oneTenant())
	if _, err := bad.Serve([]fleet.Request{{Arrival: 0, Size: 16}}); err == nil ||
		!strings.Contains(err.Error(), "negative service time") {
		t.Errorf("negative service: err = %v", err)
	}
}

// NewPool rejects malformed configurations with specific errors.
func TestNewPoolErrors(t *testing.T) {
	okModels := []fleet.Model{{Name: "m", Service: constSvc(1e-3)}}
	okQueue := trace.QueuePolicy{Workers: 2}
	sv, err := trace.NewSupervisor(trace.SupervisorConfig{},
		constSvc(1e-3),
		func([]trace.WindowEntry) (bool, error) { return false, nil },
		func(int, []trace.WindowEntry) (trace.TimedServiceFunc, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		cfg     fleet.Config
		models  []fleet.Model
		tenants []fleet.TenantSpec
		want    string
	}{
		{"no models", fleet.Config{Queue: okQueue}, nil, oneTenant(), "at least one model"},
		{"no tenants", fleet.Config{Queue: okQueue}, okModels, nil, "at least one tenant"},
		{"dead shed fraction", fleet.Config{Queue: okQueue, ShedFraction: 0.5}, okModels, oneTenant(), "bounded queue"},
		{"placement", fleet.Config{Queue: okQueue, Placement: fleet.Strategy(9)}, okModels, oneTenant(), "placement"},
		{"shed fraction", fleet.Config{Queue: okQueue, ShedFraction: 1.5}, okModels, oneTenant(), "ShedFraction"},
		{"rebalance pacing", fleet.Config{Queue: okQueue, RebalanceEvery: -1}, okModels, oneTenant(), "RebalanceEvery"},
		{"dedicated short", fleet.Config{Queue: trace.QueuePolicy{Workers: 1}, Placement: fleet.PlacementDedicated},
			[]fleet.Model{{Name: "a", Service: constSvc(1)}, {Name: "b", Service: constSvc(1)}}, oneTenant(),
			"one worker per model"},
		{"nameless model", fleet.Config{Queue: okQueue}, []fleet.Model{{Service: constSvc(1)}}, oneTenant(), "model name"},
		{"both set", fleet.Config{Queue: okQueue},
			[]fleet.Model{{Name: "m", Service: constSvc(1), Supervisor: sv}}, oneTenant(), "mutually exclusive"},
		{"neither set", fleet.Config{Queue: okQueue}, []fleet.Model{{Name: "m"}}, oneTenant(), "one of Service or Supervisor"},
		{"dup supervisor", fleet.Config{Queue: okQueue},
			[]fleet.Model{{Name: "a", Supervisor: sv}, {Name: "b", Supervisor: sv}}, oneTenant(), "share one supervisor"},
		{"nameless tenant", fleet.Config{Queue: okQueue}, okModels, []fleet.TenantSpec{{}}, "tenant name"},
		{"bad quota", fleet.Config{Queue: okQueue}, okModels, []fleet.TenantSpec{{Name: "t", Quota: -1}}, "Quota"},
		{"bad tenant deadline", fleet.Config{Queue: okQueue}, okModels, []fleet.TenantSpec{{Name: "t", Deadline: -1}}, "Deadline"},
	}
	for _, tc := range cases {
		if _, err := fleet.NewPool(tc.cfg, tc.models, tc.tenants); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

func TestParseRoundTrips(t *testing.T) {
	for _, s := range []fleet.Strategy{fleet.PlacementPacked, fleet.PlacementSpread, fleet.PlacementDedicated} {
		got, err := fleet.ParseStrategy(s.String())
		if err != nil || got != s {
			t.Errorf("ParseStrategy(%q) = %v, %v", s.String(), got, err)
		}
	}
	if _, err := fleet.ParseStrategy("bogus"); err == nil {
		t.Error("ParseStrategy accepted bogus input")
	}
	tenants := oneTenant()
	for _, name := range []string{"priority-edf", "priority", "edf", "fifo", "weighted-fair", "wfq", "drr"} {
		if _, err := fleet.ParsePolicy(name, tenants, 0, nil); err != nil {
			t.Errorf("ParsePolicy(%q): %v", name, err)
		}
	}
	if _, err := fleet.ParsePolicy("bogus", tenants, 0, nil); err == nil {
		t.Error("ParsePolicy accepted bogus input")
	}
	if _, err := fleet.ParsePolicy("weighted-fair", tenants, 0, map[int]float64{7: 2}); err == nil {
		t.Error("ParsePolicy accepted a weight for a priority no tenant has")
	}
}

// Merge interleaves streams by arrival, stably.
func TestMergeStable(t *testing.T) {
	merged := fleet.Merge(
		fleet.Stream{Model: 0, Tenant: 0, Reqs: []trace.Request{{Arrival: 0, Size: 16}, {Arrival: 2, Size: 16}}},
		fleet.Stream{Model: 1, Tenant: 1, Reqs: []trace.Request{{Arrival: 0, Size: 32}, {Arrival: 1, Size: 32}}},
	)
	wantModels := []int{0, 1, 1, 0}
	for i, w := range wantModels {
		if merged[i].Model != w {
			t.Fatalf("merge order: %+v, want models %v", merged, wantModels)
		}
	}
	if merged[0].Size != 16 || merged[1].Size != 32 {
		t.Errorf("simultaneous arrivals lost stream order: %+v", merged[:2])
	}
}

// FIFO dispatches strictly in arrival order regardless of priority — the
// contrast baseline for the noisy-neighbor study.
func TestFleetFIFOIgnoresPriority(t *testing.T) {
	tenants := []fleet.TenantSpec{
		{Name: "lo", Priority: 0},
		{Name: "hi", Priority: 1},
	}
	p := mustPool(t, fleet.Config{
		Queue:     trace.QueuePolicy{Workers: 1},
		Admission: fleet.FIFO{},
	}, []fleet.Model{{Name: "m", Service: constSvc(1.0)}}, tenants)
	reqs := []fleet.Request{
		{Arrival: 0, Size: 16, Tenant: 0},
		{Arrival: 0.1, Size: 16, Tenant: 0},
		{Arrival: 0.2, Size: 16, Tenant: 1},
	}
	rep := mustServe(t, p, reqs)
	if rep.Dispatch[1] != 1 || rep.Dispatch[2] != 2 {
		t.Errorf("FIFO dispatch %v, want strict arrival order", rep.Dispatch)
	}
	if rep.Metrics.Policy != "fifo" {
		t.Errorf("policy label %q, want fifo", rep.Metrics.Policy)
	}
}

// Two supervised models hot-swap concurrently on one shared pool while
// readers hammer both LiveSets: generations stay monotone per model, no
// request is lost, and no torn generation is ever observed. Run with -race.
func TestFleetTwoModelsHotSwapUnderLoad(t *testing.T) {
	models := []fleet.Model{
		driftyModel(t, "a", 2e-3, 0.2),
		driftyModel(t, "b", 1e-3, 0.5),
	}
	tenants := []fleet.TenantSpec{
		{Name: "lo", Priority: 0},
		{Name: "hi", Priority: 1},
	}
	p := mustPool(t, fleet.Config{
		Queue:     trace.QueuePolicy{Workers: 2, QueueDepth: 256},
		Placement: fleet.PlacementSpread,
	}, models, tenants)
	reqs := fleetStream(t, 1500, 99)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for m := range models {
		sv := models[m].Supervisor
		for r := 0; r < 3; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				last := -1
				for {
					select {
					case <-stop:
						return
					default:
					}
					g := sv.Live().Current()
					if g == nil || g.Service == nil {
						t.Error("torn LiveSet read: nil generation or service")
						return
					}
					if g.ID < last {
						t.Errorf("LiveSet generation regressed: %d after %d", g.ID, last)
						return
					}
					last = g.ID
				}
			}()
		}
	}

	rep, err := p.Serve(reqs)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}

	// Zero lost requests: every request resolves exactly once, and the
	// serving fields are consistent with the outcome.
	perModel := make([]int, len(models))
	for i := range reqs {
		if rep.Outcomes[i] == fleet.OutcomeServed {
			if math.IsNaN(rep.Sojourn[i]) || rep.Worker[i] < 0 {
				t.Fatalf("request %d served but missing serving fields", i)
			}
		} else if !math.IsNaN(rep.Sojourn[i]) {
			t.Fatalf("request %d shed but has a sojourn", i)
		}
		perModel[reqs[i].Model]++
	}
	for m := range models {
		mm := rep.Metrics.Models[m]
		if mm.Served+mm.Shed() != perModel[m] {
			t.Errorf("model %d: served %d + shed %d != %d requests (lost requests)",
				m, mm.Served, mm.Shed(), perModel[m])
		}
	}

	// Both models swapped, and their generation stamps are monotone in
	// arrival order.
	lastGen := make([]int, len(models))
	for i := range reqs { // reqs from Merge are arrival-sorted
		m := reqs[i].Model
		if g := rep.Generations[i]; g < lastGen[m] {
			t.Fatalf("model %d generation stamp regressed: %d after %d", m, g, lastGen[m])
		} else {
			lastGen[m] = g
		}
	}
	for m := range models {
		if rep.ModelReports[m].Metrics.Generation == 0 {
			t.Errorf("model %d never swapped; the stress scenario lost its teeth", m)
		}
		if g := models[m].Supervisor.Live().Current(); g.ID != rep.ModelReports[m].Metrics.Generation {
			t.Errorf("model %d live generation %d != report generation %d",
				m, g.ID, rep.ModelReports[m].Metrics.Generation)
		}
	}
}

// BenchmarkFleetServe delegates to the shared hot-path body in internal/perf,
// which also backs the recflex-bench -perf emitter and the BENCH_*.json
// perf gate.
func BenchmarkFleetServe(b *testing.B) { perf.FleetServe(b) }

// BenchmarkElasticServe covers the elastic heterogeneous pool's hot path:
// preemption scans at chunk boundaries, autoscale polling and per-class
// service scaling layered over the FleetServe replay loop.
func BenchmarkElasticServe(b *testing.B) { perf.ElasticServe(b) }
