package gateway

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	"repro/internal/fleet"
	"repro/internal/trace"
)

// ErrClosed is returned by Infer once Close has begun: the session is
// shutting down, not rejecting this particular request.
var ErrClosed = errors.New("gateway: closed")

// Config configures a Gateway.
type Config struct {
	// Pool is the fleet the gateway serves over. Required.
	Pool *fleet.Pool
	// Warp is the time-warp factor: simulated seconds per wall-clock second.
	// 1 serves in real time; 1000 dilates one wall millisecond into one
	// simulated second, letting a laptop replay an hour of fleet traffic in
	// seconds. Must be positive and finite.
	Warp float64
	// Clock is the wall-clock source; nil means the real clock. Tests inject
	// a fake. The clock never feeds the engine — only simulated time derived
	// from it does, which is why recorded sessions replay bit-identically.
	Clock Clock
	// Session, when non-nil, receives the session log (see SessionWriter).
	Session io.Writer
}

// Stats is a point-in-time observability snapshot of a gateway.
type Stats struct {
	// Admitted counts requests accepted into the engine (including ones the
	// admission policy then shed). Served and Shed partition the resolved
	// ones; Pending is admitted minus resolved.
	Admitted, Served, Shed, Pending int
	// Lost counts admitted requests that were never resolved by shutdown.
	// The engine drains on Close, so this must be 0; it exists so smoke
	// tests can assert that, not because losing requests is expected.
	Lost int
	// Preemptions counts chunk-boundary preemption events observed so far
	// (informational requeues under fleet.Config.Preempt; they resolve no
	// request and never appear in the session log).
	Preemptions int
	// Warp is the configured time-warp factor; SimNow the current simulated
	// time in seconds.
	Warp, SimNow float64
	// P50, P95 and P99 are served-sojourn percentiles in simulated seconds,
	// clamped to 0 while Served == 0.
	P50, P95, P99 float64
}

// Gateway is a live serving session over a fleet.Pool: it stamps wall-clock
// arrivals with warped simulated time, admits them into the incremental
// fleet.Live engine, and a pump goroutine advances the engine exactly when
// the wall clock reaches each pending simulated event. Because events are
// only advanced at-or-after their warped wall time, a response is delivered
// to the caller no earlier than its simulated completion maps to — the
// wall-clock behavior of the simulated fleet.
//
// All engine access is serialized under one mutex; HTTP handlers and the
// pump contend on it, never on the engine itself.
type Gateway struct {
	pool  *fleet.Pool
	warp  float64
	clock Clock
	sess  *SessionWriter

	mu        sync.Mutex
	live      *fleet.Live
	epoch     time.Time
	lastSim   float64
	waiters   map[int]chan fleet.Event
	pending   []fleet.Event // resolved, held until the wall clock reaches warped End
	sojourns  []float64
	admitted  int
	served    int
	shedded   int
	preempted int
	lost      int
	err       error
	closed    bool

	wake     chan struct{}
	stop     chan struct{}
	pumpDone chan struct{}
}

// New opens a gateway session over cfg.Pool and starts its event pump. Every
// New must be balanced by Close, which drains the engine and returns the
// session's fleet.Report.
func New(cfg Config) (*Gateway, error) {
	if cfg.Pool == nil {
		return nil, fmt.Errorf("gateway: nil pool")
	}
	if !(cfg.Warp > 0) || math.IsInf(cfg.Warp, 0) {
		return nil, fmt.Errorf("gateway: time-warp factor must be positive and finite, got %g", cfg.Warp)
	}
	clock := cfg.Clock
	if clock == nil {
		clock = RealClock()
	}
	g := &Gateway{
		pool:     cfg.Pool,
		warp:     cfg.Warp,
		clock:    clock,
		live:     cfg.Pool.Begin(),
		epoch:    clock.Now(),
		waiters:  make(map[int]chan fleet.Event),
		wake:     make(chan struct{}, 1),
		stop:     make(chan struct{}),
		pumpDone: make(chan struct{}),
	}
	if cfg.Session != nil {
		g.sess = NewSessionWriter(cfg.Session)
	}
	go g.pump()
	return g, nil
}

// simNowLocked maps the wall clock onto simulated time: elapsed wall seconds
// times the warp factor, clamped monotone so a coarse clock can never hand
// the engine a regressing arrival.
func (g *Gateway) simNowLocked() float64 {
	t := g.clock.Now().Sub(g.epoch).Seconds() * g.warp
	if t < g.lastSim {
		return g.lastSim
	}
	g.lastSim = t
	return t
}

// signalWake nudges the pump to recompute its timer (new earliest event).
func (g *Gateway) signalWake() {
	select {
	case g.wake <- struct{}{}:
	default:
	}
}

// deliverLocked records resolved events and fans them out to waiters. The
// engine resolves a request analytically at dispatch — its completion time is
// known the moment it starts — but the caller must not see the answer before
// the wall clock reaches the warped completion, so an event whose End is
// still in the simulated future parks in pending until flushLocked matures
// it. Session-log records and counters are written at resolution: the log's
// out-line order is resolution order, and replay does not depend on it.
func (g *Gateway) deliverLocked(evs []fleet.Event, now float64) {
	for _, ev := range evs {
		if ev.Outcome == fleet.OutcomePreempted {
			// Informational chunk requeue under fleet.Config.Preempt: the
			// request is not resolved, so nothing is logged (the parent still
			// gets exactly one out-line at completion — a second line for the
			// same id would poison ReadSession), no waiter answers, and the
			// served/shed counters don't move.
			g.preempted++
			continue
		}
		if g.sess != nil {
			g.sess.Outcome(ev)
		}
		if ev.Outcome == fleet.OutcomeServed || ev.Outcome == fleet.OutcomeSplit {
			g.served++
			g.sojourns = append(g.sojourns, ev.Sojourn)
		} else {
			g.shedded++
		}
		if _, ok := g.waiters[ev.ID]; !ok {
			continue
		}
		if ev.End > now {
			g.pending = append(g.pending, ev)
			continue
		}
		g.sendLocked(ev)
	}
}

// sendLocked hands one matured event to its waiter.
func (g *Gateway) sendLocked(ev fleet.Event) {
	if ch, ok := g.waiters[ev.ID]; ok {
		ch <- ev // buffered 1: delivery never blocks under the lock
		delete(g.waiters, ev.ID)
	}
}

// flushLocked delivers every parked event whose warped completion has passed.
func (g *Gateway) flushLocked(now float64) {
	for i := 0; i < len(g.pending); {
		if g.pending[i].End <= now {
			g.sendLocked(g.pending[i])
			g.pending[i] = g.pending[len(g.pending)-1]
			g.pending = g.pending[:len(g.pending)-1]
		} else {
			i++
		}
	}
}

// earliestPendingLocked returns the soonest parked completion, +Inf if none.
func (g *Gateway) earliestPendingLocked() float64 {
	next := math.Inf(1)
	for _, ev := range g.pending {
		if ev.End < next {
			next = ev.End
		}
	}
	return next
}

// failLocked latches a fatal engine error and unblocks every waiter.
func (g *Gateway) failLocked(err error) {
	if g.err == nil {
		g.err = err
	}
	g.pending = nil
	for id, ch := range g.waiters {
		close(ch)
		delete(g.waiters, id)
	}
}

// pump advances the engine whenever the wall clock reaches the warped time
// of its earliest pending dispatch. It owns no state; it only takes the lock
// in bursts, so admissions interleave freely.
func (g *Gateway) pump() {
	defer close(g.pumpDone)
	for {
		g.mu.Lock()
		if g.closed || g.err != nil {
			g.mu.Unlock()
			return
		}
		now := g.simNowLocked()
		g.flushLocked(now)
		next := g.live.NextEventTime()
		if !math.IsInf(next, 1) && now >= next {
			evs, err := g.live.Advance(now)
			if err != nil {
				g.failLocked(err)
				g.mu.Unlock()
				return
			}
			g.deliverLocked(evs, now)
			g.mu.Unlock()
			continue
		}
		if p := g.earliestPendingLocked(); p < next {
			next = p
		}
		g.mu.Unlock()
		if math.IsInf(next, 1) {
			select {
			case <-g.stop:
				return
			case <-g.wake:
			}
			continue
		}
		// The earliest event can sit arbitrarily far in the simulated future
		// (a lone request with a huge arrival gap, an extreme warp ratio).
		// Converting such a float to time.Duration overflows int64, and the
		// negative result used to collapse into a 1ns timer — a busy-spin
		// that pinned a core until the event matured. Bound the idle wait
		// instead: sleeping short of the target is always safe, because the
		// loop recomputes the remaining wait each pass and a wake signal
		// re-arms it early anyway.
		const maxIdleWait = time.Second
		waitSec := (next - now) / g.warp
		var wait time.Duration
		switch {
		case !(waitSec > 0):
			wait = time.Nanosecond
		case waitSec >= maxIdleWait.Seconds():
			wait = maxIdleWait
		default:
			wait = time.Duration(waitSec * float64(time.Second))
			if wait <= 0 {
				wait = time.Nanosecond
			}
		}
		select {
		case <-g.stop:
			return
		case <-g.wake:
		case <-g.clock.After(wait):
		}
	}
}

// Infer admits one live request — its Arrival field is ignored and replaced
// by the gateway's current simulated time — and blocks until the engine
// resolves it (served, split, or shed). The returned Event carries simulated
// times; the wall delay the caller experienced is the warped image of its
// simulated sojourn. ctx cancellation abandons the wait but not the request:
// the engine still resolves and records it.
func (g *Gateway) Infer(ctx context.Context, r fleet.Request) (fleet.Event, error) {
	g.mu.Lock()
	if g.err != nil {
		err := g.err
		g.mu.Unlock()
		return fleet.Event{}, err
	}
	if g.closed {
		g.mu.Unlock()
		return fleet.Event{}, ErrClosed
	}
	r.Arrival = g.simNowLocked()
	id, evs, err := g.live.Admit(r)
	if err != nil {
		if g.live.Err() != nil {
			g.failLocked(err)
		}
		g.mu.Unlock()
		return fleet.Event{}, err
	}
	if g.sess != nil {
		g.sess.Request(id, r)
	}
	g.admitted++
	ch := make(chan fleet.Event, 1)
	g.waiters[id] = ch
	g.deliverLocked(evs, r.Arrival) // may already contain this request's shed
	g.mu.Unlock()
	g.signalWake()

	select {
	case ev, ok := <-ch:
		if !ok {
			return fleet.Event{}, g.Err()
		}
		return ev, nil
	case <-ctx.Done():
		return fleet.Event{}, ctx.Err()
	}
}

// Err returns the gateway's fatal engine error, nil while healthy.
func (g *Gateway) Err() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.err != nil {
		return g.err
	}
	return nil
}

// Stats snapshots the gateway's counters and served-sojourn percentiles.
func (g *Gateway) Stats() Stats {
	g.mu.Lock()
	defer g.mu.Unlock()
	var q trace.Quantiler
	p50, p95, p99 := q.P50P95P99(g.sojourns)
	simNow := g.lastSim
	if !g.closed && g.err == nil {
		simNow = g.simNowLocked()
	}
	return Stats{
		Admitted:    g.admitted,
		Served:      g.served,
		Shed:        g.shedded,
		Pending:     g.admitted - g.served - g.shedded,
		Lost:        g.lost,
		Preemptions: g.preempted,
		Warp:        g.warp,
		SimNow:      simNow,
		P50:         p50,
		P95:         p95,
		P99:         p99,
	}
}

// Close stops the pump, drains every in-flight request through the engine
// (waiters receive their events immediately rather than at warped wall
// time), finalizes the session log, and returns the session's fleet.Report —
// the same report an offline Pool.Serve over the recorded stream produces.
// An empty session (nothing admitted) returns a nil report.
func (g *Gateway) Close() (*fleet.Report, error) {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil, fmt.Errorf("gateway: already closed")
	}
	g.closed = true
	g.mu.Unlock()
	close(g.stop)
	<-g.pumpDone

	g.mu.Lock()
	defer g.mu.Unlock()
	if g.err != nil {
		g.live.Abort()
		if g.sess != nil {
			g.sess.Close()
		}
		return nil, g.err
	}
	if g.admitted == 0 {
		g.live.Abort()
		if g.sess != nil {
			if err := g.sess.Close(); err != nil {
				return nil, fmt.Errorf("gateway: session log: %w", err)
			}
		}
		return nil, nil
	}
	rep, evs, err := g.live.Close()
	if err != nil {
		g.failLocked(err)
		if g.sess != nil {
			g.sess.Close()
		}
		return nil, err
	}
	// Shutdown drains immediately: parked and freshly drained events all
	// deliver now rather than at their warped wall time.
	g.deliverLocked(evs, math.Inf(1))
	g.flushLocked(math.Inf(1))
	g.lost = len(g.waiters)
	for id, ch := range g.waiters {
		close(ch)
		delete(g.waiters, id)
	}
	if g.lost > 0 {
		return rep, fmt.Errorf("gateway: %d admitted requests were never resolved", g.lost)
	}
	if g.sess != nil {
		g.sess.Elastic(rep.Metrics.Preemptions, rep.Metrics.ScaleEvents)
		if err := g.sess.Close(); err != nil {
			return rep, fmt.Errorf("gateway: session log: %w", err)
		}
	}
	return rep, nil
}
