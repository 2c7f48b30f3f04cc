package fleet

import (
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/trace"
)

// refNextDispatch is the original dispatch-candidate scan, kept as the
// reference nextDispatch must agree with: every worker slot ever allocated,
// each rescanning the whole queue and chunk list with a placement-row search
// per entry — O(slots × (queue + chunks) × row length) per event.
func refNextDispatch(l *Live) (int, float64) {
	k := len(l.st.free)
	bestW := -1
	tDisp := math.Inf(1)
	for w := 0; w < k; w++ {
		minArr := math.Inf(1)
		for i := range l.queue {
			if placedOn(l.st.asg, l.queue[i].model, w) && l.queue[i].arrival < minArr {
				minArr = l.queue[i].arrival
			}
		}
		for i := range l.chunks {
			if placedOn(l.st.asg, l.chunks[i].model, w) && l.chunks[i].arrival < minArr {
				minArr = l.chunks[i].arrival
			}
		}
		if math.IsInf(minArr, 1) {
			continue
		}
		t := math.Max(l.st.free[w], minArr)
		if t < tDisp || (t == tDisp && l.st.betterWorker(w, bestW)) {
			bestW, tDisp = w, t
		}
	}
	return bestW, tDisp
}

// dispatchSession is one seeded elastic session: a pool shape and the bursty
// two-tenant stream it replays.
type dispatchSession struct {
	name    string
	cfg     Config
	models  []Model
	tenants []TenantSpec
	reqs    []Request
	// Lower bounds that keep the session exercising what it is meant to.
	minScale, minRebalance, minPreempt, minSplit int
}

// burstyStream alternates bursts far above the pool's capacity with quiet
// stretches far below it, so an autoscaler grows and drains the pool every
// cycle. Models are drawn uniformly; 40% of requests belong to the bulk
// tenant, some of them long-tail batches that split at the cap.
func burstyStream(seed int64, cycles, nModels int) []Request {
	rng := rand.New(rand.NewSource(seed))
	var reqs []Request
	at := 0.0
	for c := 0; c < cycles; c++ {
		for i := 0; i < 140; i++ {
			if i < 100 {
				at += rng.ExpFloat64() / 12000
			} else {
				at += rng.ExpFloat64() / 300
			}
			r := Request{Arrival: at, Size: 32 + rng.Intn(224), Model: rng.Intn(nModels)}
			if rng.Float64() < 0.4 {
				r.Tenant = 1
				if rng.Float64() < 0.15 {
					r.Size = 1024
				}
			}
			reqs = append(reqs, r)
		}
	}
	return reqs
}

func dispatchSessions() []dispatchSession {
	svc := func(per float64) trace.TimedServiceFunc {
		return func(_ float64, size int) (float64, error) { return float64(size) * per, nil }
	}
	tenants := []TenantSpec{
		{Name: "interactive", Priority: 1, Deadline: 0.004},
		{Name: "bulk", Priority: 0, Deadline: 0.002},
	}
	classScale := []float64{1, 0.5}
	queue := trace.QueuePolicy{Workers: 2, QueueDepth: 96, Policy: trace.DegradeSplitTail, SplitCap: 256}
	return []dispatchSession{
		{
			name: "autoscale-spread",
			cfg: Config{
				Queue:         queue,
				Placement:     PlacementSpread,
				Preempt:       true,
				WorkerClasses: []int{0, 0},
				ClassNames:    []string{"V100", "A100"},
				Autoscale:     &AutoscaleConfig{Every: 0.002, Max: 6, ScaleOutLag: 0.001, Class: 1},
			},
			models: []Model{
				{Name: "a", Service: svc(4e-6), ClassScale: classScale},
				{Name: "b", Service: svc(2e-6), ClassScale: classScale},
			},
			tenants:  tenants,
			reqs:     burstyStream(1, 24, 2),
			minScale: 200, minPreempt: 200, minSplit: 40,
		},
		{
			name: "autoscale-packed-reserve",
			cfg: Config{
				Queue:     trace.QueuePolicy{Workers: 3, QueueDepth: 96, Policy: trace.DegradeSplitTail, SplitCap: 256},
				Preempt:   true,
				Reserve:   []int{1, 0, 0},
				Autoscale: &AutoscaleConfig{Every: 0.002, Max: 7, ScaleOutLag: 0.0005, Window: 2},
			},
			models: []Model{
				{Name: "a", Service: svc(4e-6)},
				{Name: "b", Service: svc(3e-6)},
				{Name: "c", Service: svc(2e-6)},
			},
			tenants:  tenants,
			reqs:     burstyStream(2, 24, 3),
			minScale: 200, minPreempt: 200, minSplit: 40,
		},
		{
			name: "rebalance-spread",
			cfg: Config{
				Queue:          trace.QueuePolicy{Workers: 4, QueueDepth: 96, Policy: trace.DegradeSplitTail, SplitCap: 256},
				Placement:      PlacementSpread,
				Preempt:        true,
				RebalanceEvery: 0.003,
				Rebalance:      NewRebalanceByLoad(RebalanceByLoadConfig{Window: 4}),
			},
			models: []Model{
				{Name: "a", Service: svc(6e-6)},
				{Name: "b", Service: svc(3e-6)},
				{Name: "c", Service: svc(2e-6)},
			},
			tenants:      tenants,
			reqs:         burstyStream(3, 16, 3),
			minRebalance: 100, minPreempt: 100, minSplit: 40,
		},
	}
}

func (s *dispatchSession) pool(t *testing.T) *Pool {
	t.Helper()
	p, err := NewPool(s.cfg, s.models, s.tenants)
	if err != nil {
		t.Fatalf("%s: %v", s.name, err)
	}
	return p
}

// checkCoverage fails the test when a session no longer exercises the
// mechanisms it was built for.
func (s *dispatchSession) checkCoverage(t *testing.T, rep *Report) {
	t.Helper()
	m := rep.Metrics
	if len(m.ScaleEvents) < s.minScale || m.Rebalances < s.minRebalance || m.Preemptions < s.minPreempt || m.SplitServed < s.minSplit {
		t.Fatalf("%s: %d scale events, %d rebalances, %d preemptions, %d splits; want at least %d, %d, %d, %d",
			s.name, len(m.ScaleEvents), m.Rebalances, m.Preemptions, m.SplitServed,
			s.minScale, s.minRebalance, s.minPreempt, s.minSplit)
	}
}

// The history-independent dispatch scan picks the same (worker, time) as
// the reference scan over every slot ever allocated, bitwise, at every
// engine step of sessions that autoscale through hundreds of scale events,
// rebalance, preempt split chunks and place by spread and packed.
func TestNextDispatchMatchesReference(t *testing.T) {
	for _, s := range dispatchSessions() {
		l := s.pool(t).Begin()
		steps := 0
		check := func() {
			w, at := l.nextDispatch()
			rw, rt := refNextDispatch(l)
			if w != rw || math.Float64bits(at) != math.Float64bits(rt) {
				t.Fatalf("%s step %d: nextDispatch = (%d, %x), reference (%d, %x)", s.name, steps,
					w, at, rw, rt)
			}
			steps++
		}
		// Drive the engine one step at a time (the advanceUntil loop, with
		// the comparison before each step), so every dispatch, rebalance and
		// scale decision is checked — Admit's own advance then finds nothing
		// left to do before the arrival.
		advance := func(bound float64) {
			for {
				check()
				more, err := l.step(bound)
				if err != nil {
					t.Fatalf("%s: %v", s.name, err)
				}
				if !more {
					return
				}
			}
		}
		for _, r := range s.reqs {
			advance(r.Arrival)
			if _, _, err := l.Admit(r); err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
		}
		advance(math.Inf(1))
		rep, _, err := l.Close()
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		s.checkCoverage(t, rep)
		if steps < len(s.reqs) {
			t.Fatalf("%s: only %d steps checked for %d requests", s.name, steps, len(s.reqs))
		}
	}
}

// reportDigest hashes a session's observable result as exact hex floats:
// every request's outcome, worker, generation, sojourn, dispatch and service,
// then the scale decisions, worker lifetimes and pool counters.
func reportDigest(rep *Report) string {
	h := fnv.New64a()
	hex := func(v float64) { io.WriteString(h, strconv.FormatFloat(v, 'x', -1, 64)+" ") }
	num := func(v int) { io.WriteString(h, strconv.Itoa(v)+" ") }
	for i := range rep.Sojourn {
		num(int(rep.Outcomes[i]))
		num(rep.Worker[i])
		num(rep.Generations[i])
		hex(rep.Sojourn[i])
		hex(rep.Dispatch[i])
		hex(rep.Service[i])
	}
	m := rep.Metrics
	for _, ev := range m.ScaleEvents {
		hex(ev.Time)
		num(ev.Worker)
		num(ev.Delta)
		num(ev.Workers)
	}
	for _, lf := range m.WorkerLives {
		hex(lf.AddedAt)
		hex(lf.RetiredAt)
	}
	for _, w := range m.Workers {
		num(w.Served)
		hex(w.Busy)
	}
	num(m.Preemptions)
	num(m.Rebalances)
	num(m.MaxQueueDepth)
	num(m.Timeouts)
	hex(m.Makespan)
	return strconv.FormatUint(h.Sum64(), 16)
}

// Golden digests of the dispatch sessions, captured with the original
// O(slots × queue) dispatch scan: the history-independent scan must
// reproduce every session bit for bit.
var dispatchGolden = map[string]string{
	"autoscale-spread":         "a0a92edf644cd275",
	"autoscale-packed-reserve": "bf41b0ad7942db54",
	"rebalance-spread":         "33ebca46e2d26e0f",
}

func TestDispatchSessionsGolden(t *testing.T) {
	for _, s := range dispatchSessions() {
		rep, err := s.pool(t).Serve(s.reqs)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		s.checkCoverage(t, rep)
		if got, want := reportDigest(rep), dispatchGolden[s.name]; got != want {
			t.Errorf("%s: digest %s, want %s", s.name, got, want)
		}
	}
}
