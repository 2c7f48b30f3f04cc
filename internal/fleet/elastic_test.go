package fleet_test

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/fleet"
	"repro/internal/trace"
)

// The autoscaler grows the pool one worker per pacing tick under sustained
// backlog, lags each new worker's first dispatch by ScaleOutLag, drains back
// down once demand fades, and the whole elastic run stays deterministic.
func TestFleetAutoscaleScaleOutAndIn(t *testing.T) {
	const lag = 0.2
	run := func() *fleet.Report {
		p := mustPool(t, fleet.Config{
			Queue: trace.QueuePolicy{Workers: 2},
			Autoscale: &fleet.AutoscaleConfig{
				Every:       0.5,
				Max:         4,
				ScaleOutLag: lag,
				Class:       0,
				DownBacklog: 1.0,
				Window:      1, // react to the latest backlog so the short drain tail still scales in
			},
		}, []fleet.Model{{Name: "m", Service: constSvc(1.0)}}, oneTenant())
		var reqs []fleet.Request
		for i := 0; i < 40; i++ {
			reqs = append(reqs, fleet.Request{Arrival: float64(i) * 0.1, Size: 16})
		}
		return mustServe(t, p, reqs)
	}
	rep := run()
	met := rep.Metrics

	outs, ins := 0, 0
	for _, ev := range met.ScaleEvents {
		switch ev.Delta {
		case +1:
			outs++
		case -1:
			ins++
		default:
			t.Fatalf("scale event with delta %d", ev.Delta)
		}
		if ev.Workers < 1 || ev.Workers > 4 {
			t.Fatalf("scale event at t=%g left %d active workers, bounds are [1, 4]", ev.Time, ev.Workers)
		}
	}
	if outs == 0 {
		t.Fatal("sustained 10:2 overload never scaled the pool out")
	}
	if ins == 0 {
		t.Fatal("the drain phase never scaled the pool back in")
	}
	if len(met.Workers) <= 2 {
		t.Fatalf("worker stats cover %d workers, want more than the initial 2 after scale-out", len(met.Workers))
	}
	if len(met.WorkerLives) != len(met.Workers) {
		t.Fatalf("WorkerLives covers %d workers, stats cover %d", len(met.WorkerLives), len(met.Workers))
	}

	// Every added worker's first dispatch waits out the scale-out lag, and
	// every drained worker has a finite retire time past its add time.
	firstDisp := make([]float64, len(met.Workers))
	for w := range firstDisp {
		firstDisp[w] = math.Inf(1)
	}
	for i := range rep.Worker {
		if w := rep.Worker[i]; w >= 0 && rep.Dispatch[i] < firstDisp[w] {
			firstDisp[w] = rep.Dispatch[i]
		}
	}
	for w, life := range met.WorkerLives {
		if life.Worker != w {
			t.Fatalf("WorkerLives[%d] carries id %d", w, life.Worker)
		}
		if w >= 2 {
			if life.AddedAt <= 0 {
				t.Errorf("scaled-out worker %d has AddedAt %g, want > 0", w, life.AddedAt)
			}
			if firstDisp[w] < life.AddedAt+lag-1e-9 {
				t.Errorf("worker %d dispatched at %g, before its boot lag ended at %g", w, firstDisp[w], life.AddedAt+lag)
			}
		}
		if !math.IsNaN(life.RetiredAt) && life.RetiredAt < life.AddedAt {
			t.Errorf("worker %d retired at %g before it was added at %g", w, life.RetiredAt, life.AddedAt)
		}
	}
	drained := false
	for _, life := range met.WorkerLives {
		if !math.IsNaN(life.RetiredAt) {
			drained = true
		}
	}
	if !drained {
		t.Error("scale-in events recorded but no worker carries a retire time")
	}

	// Nothing lost, and the elastic replay is exact.
	if met.Served+met.Shed() != 40 {
		t.Errorf("served %d + shed %d != 40", met.Served, met.Shed())
	}
	eqFleetReports(t, rep, run())
	rep2 := run()
	if !reflect.DeepEqual(met.ScaleEvents, rep2.Metrics.ScaleEvents) {
		t.Errorf("scale decisions diverge between replays: %v vs %v", met.ScaleEvents, rep2.Metrics.ScaleEvents)
	}
}

// A worker's device class scales the kernel time of models that declare a
// ClassScale and leaves class-blind models bit-identical.
func TestFleetWorkerClassScaling(t *testing.T) {
	classed := mustPool(t, fleet.Config{
		Queue:         trace.QueuePolicy{Workers: 1},
		WorkerClasses: []int{1},
		ClassNames:    []string{"V100", "A100"},
	}, []fleet.Model{{Name: "m", Service: constSvc(2.0), ClassScale: []float64{1, 0.5}}}, oneTenant())
	rep := mustServe(t, classed, []fleet.Request{{Arrival: 0, Size: 16}})
	if rep.Service[0] != 1.0 {
		t.Errorf("A100-class service = %g, want 1.0 (2.0 kernel x 0.5 class scale)", rep.Service[0])
	}

	// A model without a ClassScale entry for the worker's class runs at 1x —
	// bitwise identical to a class-blind pool.
	blind := mustPool(t, fleet.Config{
		Queue:         trace.QueuePolicy{Workers: 1},
		WorkerClasses: []int{1},
		ClassNames:    []string{"V100", "A100"},
	}, []fleet.Model{{Name: "m", Service: constSvc(2.0)}}, oneTenant())
	rep = mustServe(t, blind, []fleet.Request{{Arrival: 0, Size: 16}})
	if rep.Service[0] != 2.0 {
		t.Errorf("class-blind service = %g, want exactly 2.0", rep.Service[0])
	}

	// Shape errors reject at construction.
	if _, err := fleet.NewPool(fleet.Config{
		Queue:         trace.QueuePolicy{Workers: 2},
		WorkerClasses: []int{0},
	}, []fleet.Model{{Name: "m", Service: constSvc(1)}}, oneTenant()); err == nil {
		t.Error("WorkerClasses shorter than the pool was accepted")
	}
	if _, err := fleet.NewPool(fleet.Config{
		Queue:         trace.QueuePolicy{Workers: 1},
		WorkerClasses: []int{2},
		ClassNames:    []string{"V100", "A100"},
	}, []fleet.Model{{Name: "m", Service: constSvc(1)}}, oneTenant()); err == nil {
		t.Error("worker class out of ClassNames range was accepted")
	}
}

// Config.Reserve carves exclusive workers out of the shared pool: the initial
// assignment honors the floor, and shapes that cannot hold it are rejected.
func TestFleetReservations(t *testing.T) {
	p := mustPool(t, fleet.Config{Queue: trace.QueuePolicy{Workers: 3}, Reserve: []int{1, 0}},
		[]fleet.Model{
			{Name: "a", Service: constSvc(1.0)},
			{Name: "b", Service: constSvc(1.0)},
		}, oneTenant())
	want := fleet.Assignment{{0, 1, 2}, {1, 2}}
	if got := p.InitialAssignment(); !reflect.DeepEqual(got, want) {
		t.Errorf("initial assignment %v, want %v (worker 0 exclusive to a)", got, want)
	}

	// Dedicated placement already partitions the pool; Reserve is rejected.
	if _, err := fleet.NewPool(fleet.Config{
		Queue:     trace.QueuePolicy{Workers: 2},
		Placement: fleet.PlacementDedicated,
		Reserve:   []int{1, 0},
	}, []fleet.Model{
		{Name: "a", Service: constSvc(1)},
		{Name: "b", Service: constSvc(1)},
	}, oneTenant()); err == nil {
		t.Error("Reserve under dedicated placement was accepted")
	}

	// Reservations exceeding the pool are rejected.
	if _, err := fleet.NewPool(fleet.Config{Queue: trace.QueuePolicy{Workers: 2}, Reserve: []int{2, 1}},
		[]fleet.Model{
			{Name: "a", Service: constSvc(1)},
			{Name: "b", Service: constSvc(1)},
		}, oneTenant()); err == nil {
		t.Error("reservations larger than the pool were accepted")
	}
}

// A reserved supervised model books its background tunes on its exclusive
// spare — the "tune on a dedicated worker" shape — instead of contending on
// the shared workers.
func TestFleetReserveTunesOnSpare(t *testing.T) {
	models := []fleet.Model{driftyModel(t, "a", 2e-3, 0.2), {Name: "b", Service: constSvc(2e-3)}}
	p := mustPool(t, fleet.Config{Queue: trace.QueuePolicy{Workers: 3}, Reserve: []int{1, 0}}, models,
		[]fleet.TenantSpec{{Name: "lo"}, {Name: "hi", Priority: 1}})
	rep := mustServe(t, p, fleetStream(t, 400, 11))
	ws := rep.Metrics.Workers
	if ws[0].TuneBusy == 0 {
		t.Error("reserved worker 0 held no tune time despite a drifting supervised model")
	}
	for w := 1; w < len(ws); w++ {
		if ws[w].TuneBusy != 0 {
			t.Errorf("shared worker %d held %g tune time; tunes must land on the reserved spare", w, ws[w].TuneBusy)
		}
	}
}

// Chunk-boundary preemption: a queued split chunk yields its dispatch slot to
// a strictly higher-priority whole request, cutting the urgent request's
// sojourn while the split still completes with its full sojourn accounting.
func TestFleetPreemptionPrioritizesUrgent(t *testing.T) {
	tenants := []fleet.TenantSpec{
		{Name: "batch", Priority: 0},
		{Name: "rt", Priority: 1},
	}
	reqs := []fleet.Request{
		{Arrival: 0, Size: 1000, Tenant: 0, Deadline: 2.0}, // splits into 10 chunks of 1s each
		{Arrival: 0.5, Size: 10, Tenant: 1},                // 0.1s of work, arrives mid-split
	}
	build := func(preempt bool) *fleet.Pool {
		return mustPool(t, fleet.Config{
			Queue:   trace.QueuePolicy{Workers: 1, Policy: trace.DegradeSplitTail, SplitCap: 100},
			Preempt: preempt,
		}, []fleet.Model{{Name: "m", Service: sizeSvc(1e-2)}}, tenants)
	}

	base := mustServe(t, build(false), reqs)
	if base.Outcomes[0] != fleet.OutcomeSplit {
		t.Fatalf("batch request resolved %v, want split", base.Outcomes[0])
	}
	if base.Metrics.Preemptions != 0 {
		t.Fatalf("preemptions counted with Preempt off: %d", base.Metrics.Preemptions)
	}

	rep := mustServe(t, build(true), reqs)
	if rep.Metrics.Preemptions == 0 {
		t.Fatal("no preemption despite an urgent arrival behind 9 queued chunks")
	}
	if rep.Outcomes[0] != fleet.OutcomeSplit || rep.Outcomes[1] != fleet.OutcomeServed {
		t.Fatalf("outcomes %v/%v, want split/served", rep.Outcomes[0], rep.Outcomes[1])
	}
	// Without preemption the urgent request waits behind every chunk (~9.6s);
	// with it, only behind the in-flight chunk (~0.6s).
	if rep.Sojourn[1] >= base.Sojourn[1] {
		t.Errorf("urgent sojourn %g with preemption, %g without — preemption must win", rep.Sojourn[1], base.Sojourn[1])
	}
	if rep.Sojourn[1] > 1.0 {
		t.Errorf("urgent sojourn %g, want at most one chunk boundary (~0.6s)", rep.Sojourn[1])
	}
	// The split's sojourn still runs from its original arrival: the requeues
	// moved its chunks, not its clock.
	if rep.Sojourn[0] <= base.Sojourn[0]-1e-9 {
		t.Errorf("split sojourn %g shrank below the no-preempt %g; preemption cannot speed up the preempted request", rep.Sojourn[0], base.Sojourn[0])
	}
	eqFleetReports(t, rep, mustServe(t, build(true), reqs))
}

// Regression for the split double-count in the load signal: split chunks
// used to be counted per chunk on top of per-request queue counts. Every
// backlog sample the autoscaler takes must total Live.Pending, where a split
// request counts once from its split until its last chunk lands. One tail
// request split into 8 chunks on one worker keeps the backlog at 1, so a
// pool armed to grow above 2 per worker never grows; 4 whole requests do
// grow it.
func TestFleetSnapshotTotalsMatchPending(t *testing.T) {
	serve := func(reqs []fleet.Request) *fleet.Report {
		p := mustPool(t, fleet.Config{
			Queue:     trace.QueuePolicy{Workers: 1, Deadline: 0.5, Policy: trace.DegradeSplitTail, SplitCap: 128},
			Admission: fleet.FIFO{},
			Autoscale: &fleet.AutoscaleConfig{Every: 0.05, Max: 2, UpBacklog: 2, Window: 1},
		}, []fleet.Model{{Name: "m", Service: sizeSvc(1e-3)}}, oneTenant())
		return mustServe(t, p, reqs)
	}

	rep := serve([]fleet.Request{{Arrival: 0, Size: 1024}})
	if rep.Outcomes[0] != fleet.OutcomeSplit {
		t.Fatalf("tail request resolved %v, want split; the regression needs in-flight chunks at each tick", rep.Outcomes[0])
	}
	if n := len(rep.Metrics.ScaleEvents); n != 0 {
		t.Errorf("one split request scaled the pool %d times: its queued chunks were counted as backlog", n)
	}

	var whole []fleet.Request
	for i := 0; i < 4; i++ {
		whole = append(whole, fleet.Request{Arrival: 0, Size: 100})
	}
	if rep := serve(whole); len(rep.Metrics.ScaleEvents) == 0 {
		t.Error("4 queued whole requests on one worker never scaled the pool out")
	}
}

// Autoscaling, preemption, supervised hot-swaps and concurrent LiveSet readers
// all run together under -race, and nothing is lost.
func TestFleetAutoscaleUnderLoad(t *testing.T) {
	models := []fleet.Model{
		driftyModel(t, "a", 2e-3, 0.2),
		driftyModel(t, "b", 1e-3, 0.5),
	}
	tenants := []fleet.TenantSpec{
		{Name: "lo", Priority: 0},
		{Name: "hi", Priority: 1},
	}
	p := mustPool(t, fleet.Config{
		Queue:     trace.QueuePolicy{Workers: 2, QueueDepth: 256, Deadline: 0.25, Policy: trace.DegradeSplitTail, SplitCap: 128},
		Placement: fleet.PlacementSpread,
		Preempt:   true,
		Autoscale: &fleet.AutoscaleConfig{Every: 0.1, Max: 5, ScaleOutLag: 0.05},
	}, models, tenants)
	reqs := fleetStream(t, 1200, 42)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for m := range models {
		sv := models[m].Supervisor
		for r := 0; r < 3; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if g := sv.Live().Current(); g == nil || g.Service == nil {
						t.Error("torn LiveSet read during autoscaled serving")
						return
					}
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
	if rep.Metrics.Served+rep.Metrics.Shed() != len(reqs) {
		t.Errorf("served %d + shed %d != %d requests", rep.Metrics.Served, rep.Metrics.Shed(), len(reqs))
	}
	for i := range reqs {
		if rep.Outcomes[i] == fleet.OutcomeServed && math.IsNaN(rep.Sojourn[i]) {
			t.Fatalf("request %d served but lost its sojourn", i)
		}
	}
}
