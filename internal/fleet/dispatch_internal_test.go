package fleet

import (
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"reflect"
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
	minScale, minPreempt, minSplit int
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
	if len(m.ScaleEvents) < s.minScale || m.Preemptions < s.minPreempt || m.SplitServed < s.minSplit {
		t.Fatalf("%s: %d scale events, %d preemptions, %d splits; want at least %d, %d, %d",
			s.name, len(m.ScaleEvents), m.Preemptions, m.SplitServed,
			s.minScale, s.minPreempt, s.minSplit)
	}
}

// The history-independent dispatch scan picks the same (worker, time) as
// the reference scan over every slot ever allocated, bitwise, at every
// engine step of sessions that autoscale through hundreds of scale events,
// preempt split chunks and place by spread and packed.
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
		// the comparison before each step), so every dispatch and scale
		// decision is checked — Admit's own advance then finds nothing
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
// then the scale decisions, worker lifetimes and pool counters. The 0 after
// the preemption count stands where a rebalance count was hashed when the
// goldens were captured.
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
	num(0)
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

// bitEqual reports whether a and b hold the same value in every field,
// exported or not, comparing floats by their bits so a NaN matches itself.
func bitEqual(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return a.Int() == b.Int()
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return a.Uint() == b.Uint()
	case reflect.Bool:
		return a.Bool() == b.Bool()
	case reflect.String:
		return a.String() == b.String()
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return bitEqual(a.Elem(), b.Elem())
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !bitEqual(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !bitEqual(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	}
	panic("bitEqual: unsupported kind " + a.Kind().String())
}

// admitOnly runs reqs through Begin, Admit and Close and returns every event
// the session emitted, in order.
func admitOnly(t *testing.T, p *Pool, reqs []Request) []Event {
	t.Helper()
	l := p.Begin()
	var evs []Event
	for _, r := range reqs {
		_, e, err := l.Admit(r)
		if err != nil {
			t.Fatal(err)
		}
		evs = append(evs, e...)
	}
	_, e, err := l.Close()
	if err != nil {
		t.Fatal(err)
	}
	return append(evs, e...)
}

// FuzzLiveAdvanceMatchesServe pins the incremental engine to the batch one
// on both autoscale session shapes: a session that calls Advance at fuzzed
// times between admissions, each no later than the next arrival and often
// exactly NextEventTime, must produce Pool.Serve's report bit for bit, and
// its Admit, Advance and Close events, concatenated, must equal an
// Admit-only session's. A gateway serves this way, so the autoscaler's
// backlog window and every other piece of state must not depend on which
// call fires a tick.
func FuzzLiveAdvanceMatchesServe(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(1), []byte{3, 0, 9, 200, 1, 0, 2, 128, 77})
	f.Add(int64(2), uint8(1), uint8(2), []byte{2, 0, 0, 1, 255, 3, 40, 0, 0})
	f.Add(int64(7), uint8(0), uint8(0), []byte{49})
	f.Fuzz(func(t *testing.T, seed int64, shape, cycles uint8, plan []byte) {
		sessions := dispatchSessions()
		s := sessions[int(shape)%len(sessions)]
		reqs := burstyStream(seed, 1+int(cycles)%3, len(s.models))
		want, err := s.pool(t).Serve(reqs)
		if err != nil {
			t.Fatal(err)
		}
		wantEvs := admitOnly(t, s.pool(t), reqs)

		// The plan repeats over the whole stream; an empty plan never
		// advances between admissions.
		pos := 0
		next := func() byte {
			if len(plan) == 0 {
				return 0
			}
			pos++
			return plan[(pos-1)%len(plan)]
		}
		l := s.pool(t).Begin()
		var evs []Event
		advance := func(prev, limit float64) {
			for k := next() % 4; k > 0; k-- {
				at := l.NextEventTime()
				if b := next(); b%2 == 1 && !math.IsInf(limit, 1) {
					at = prev + (limit-prev)*float64(b)/255
				}
				at = math.Min(math.Max(at, prev), limit)
				if math.IsInf(at, 1) {
					return
				}
				e, err := l.Advance(at)
				if err != nil {
					t.Fatal(err)
				}
				evs = append(evs, e...)
				prev = at
			}
		}
		prev := reqs[0].Arrival
		for _, r := range reqs {
			advance(prev, r.Arrival)
			_, e, err := l.Admit(r)
			if err != nil {
				t.Fatal(err)
			}
			evs = append(evs, e...)
			prev = r.Arrival
		}
		advance(prev, math.Inf(1))
		got, e, err := l.Close()
		if err != nil {
			t.Fatal(err)
		}
		evs = append(evs, e...)

		if !bitEqual(reflect.ValueOf(got), reflect.ValueOf(want)) {
			t.Fatalf("%s: interleaved session's report differs from Pool.Serve's (digest %s vs %s)",
				s.name, reportDigest(got), reportDigest(want))
		}
		if !bitEqual(reflect.ValueOf(evs), reflect.ValueOf(wantEvs)) {
			t.Fatalf("%s: interleaved session emitted %d events, Admit-only %d, and they differ",
				s.name, len(evs), len(wantEvs))
		}
	})
}

// Once the autoscaler's window is full, a pacing tick that makes no scale
// decision allocates nothing: the window is a fixed ring of backlog counts,
// not a history that grows with every tick.
func TestAutoscaleTickAllocatesNothing(t *testing.T) {
	svc := func(float64, int) (float64, error) { return 1, nil }
	p, err := NewPool(Config{
		Queue:     trace.QueuePolicy{Workers: 2},
		Autoscale: &AutoscaleConfig{Every: 1, Max: 4},
	}, []Model{{Name: "m", Service: svc}}, []TenantSpec{{Name: "t"}})
	if err != nil {
		t.Fatal(err)
	}
	l := p.Begin()
	// Two requests run on the two workers until t=1 and two wait: one
	// pending per worker, between the default thresholds 0.25 and 2.
	for i := 0; i < 4; i++ {
		if _, _, err := l.Admit(Request{Arrival: 0, Size: 8}); err != nil {
			t.Fatal(err)
		}
	}
	now := 0.0
	tick := func() {
		now++
		if l.maybeAutoscale(now) {
			t.Fatalf("tick at t=%g scaled the pool; the backlog sits between the thresholds", now)
		}
	}
	for i := 0; i < 2*len(l.backlog); i++ {
		tick()
	}
	if allocs := testing.AllocsPerRun(100, tick); allocs != 0 {
		t.Errorf("a decision-free autoscale tick allocates %g times, want 0", allocs)
	}
	if l.Pending() != 2 || l.ticks != 2*len(l.backlog)+101 {
		t.Errorf("pending %d after %d ticks, want 2 after %d", l.Pending(), l.ticks, 2*len(l.backlog)+101)
	}
}
