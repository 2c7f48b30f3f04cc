package fleet

import (
	"fmt"
	"math"
)

// AutoscaleConfig shapes the pool's elastic sizing. The autoscaler consumes
// the same windowed demand signal as RebalanceByLoad — the per-model queued
// backlog recorded into LoadHistory at each pacing tick — and grows or
// shrinks the worker set one step per tick:
//
//   - scale-out: when the window's mean backlog per active worker exceeds
//     UpBacklog and fewer than Max workers are active, a new worker of class
//     Class is added. It joins every model's placement immediately but its
//     first dispatch cannot start before ScaleOutLag virtual seconds have
//     passed — the simulated boot/attach cost.
//   - scale-in: when the mean backlog per active worker falls below
//     DownBacklog and more than Min workers are active, the highest-indexed
//     non-reserved worker drains: it leaves every model's placement (no new
//     dispatches) and retires once its in-flight work completes. Reserved
//     workers (Model.Reserve) are never drained, and a worker that is some
//     model's last placement is skipped.
//
// Every decision is a pure function of virtual time and the recorded
// history, so autoscaled sessions replay bit-identically.
type AutoscaleConfig struct {
	// Every is the decision pacing in virtual seconds (> 0). Like the
	// rebalance pacing it is evaluated on both arrival and dispatch events,
	// so the pool keeps shrinking while the queue drains.
	Every float64
	// Min and Max bound the active (non-draining) worker count. Min 0 means
	// 1; Max must be at least the initial worker count.
	Min, Max int
	// ScaleOutLag is the virtual time a new worker needs before its first
	// dispatch can start (>= 0).
	ScaleOutLag float64
	// Class is the device class of added workers (see Config.WorkerClasses).
	Class int
	// UpBacklog is the mean queued-per-active-worker level above which the
	// pool grows; 0 means 2.
	UpBacklog float64
	// DownBacklog is the level below which the pool shrinks; 0 means 0.25.
	DownBacklog float64
	// Window is how many recent load snapshots the backlog average spans;
	// 0 means 4.
	Window int
}

// Validate checks the autoscale shape against the initial worker count.
func (a *AutoscaleConfig) Validate(initial int) error {
	switch {
	case !(a.Every > 0) || math.IsInf(a.Every, 1):
		return fmt.Errorf("fleet: Autoscale.Every must be positive and finite, got %g", a.Every)
	case a.Min < 0:
		return fmt.Errorf("fleet: Autoscale.Min must be >= 0, got %d", a.Min)
	case a.Max < initial:
		return fmt.Errorf("fleet: Autoscale.Max %d below the initial %d workers", a.Max, initial)
	case a.Min > a.Max:
		return fmt.Errorf("fleet: Autoscale.Min %d above Max %d", a.Min, a.Max)
	case a.ScaleOutLag < 0 || math.IsNaN(a.ScaleOutLag) || math.IsInf(a.ScaleOutLag, 0):
		return fmt.Errorf("fleet: Autoscale.ScaleOutLag must be finite and >= 0, got %g", a.ScaleOutLag)
	case a.Class < 0:
		return fmt.Errorf("fleet: Autoscale.Class must be >= 0, got %d", a.Class)
	case a.UpBacklog < 0 || a.DownBacklog < 0:
		return fmt.Errorf("fleet: Autoscale backlog thresholds must be >= 0")
	case a.Window < 0:
		return fmt.Errorf("fleet: Autoscale.Window must be >= 0, got %d", a.Window)
	}
	if a.up() <= a.down() {
		return fmt.Errorf("fleet: Autoscale.UpBacklog %g must exceed DownBacklog %g after defaults (2, 0.25)", a.up(), a.down())
	}
	return nil
}

func (a *AutoscaleConfig) up() float64 {
	if a.UpBacklog == 0 {
		return 2
	}
	return a.UpBacklog
}

func (a *AutoscaleConfig) down() float64 {
	if a.DownBacklog == 0 {
		return 0.25
	}
	return a.DownBacklog
}

func (a *AutoscaleConfig) window() int {
	if a.Window == 0 {
		return 4
	}
	return a.Window
}

func (a *AutoscaleConfig) minWorkers() int {
	if a.Min < 1 {
		return 1
	}
	return a.Min
}

// ScaleEvent records one applied autoscaling decision.
type ScaleEvent struct {
	// Time is the virtual time of the decision.
	Time float64
	// Worker is the added (Delta +1) or drained (Delta -1) worker id.
	Worker int
	// Delta is +1 for a scale-out, -1 for a drain.
	Delta int
	// Workers is the active (non-draining) worker count after the decision.
	Workers int
}

// WorkerLife is one worker's lifetime in an autoscaled run. Worker ids are
// never reused: a drained worker's slot stays retired and a later scale-out
// gets a fresh id, so lifetimes and per-worker stats stay unambiguous.
type WorkerLife struct {
	// Worker is the worker id (index into Metrics.Workers).
	Worker int
	// Class is the worker's device class.
	Class int
	// AddedAt is when the worker joined the pool: the session's first
	// arrival for initial workers, the scale-out decision time for added
	// ones (its first dispatch waits out ScaleOutLag on top).
	AddedAt float64
	// RetiredAt is when the drained worker finished its in-flight work and
	// left the pool; NaN for workers still active at session end.
	RetiredAt float64
}

// maybeAutoscale evaluates the autoscaler at its virtual-time pacing,
// recording a load snapshot exactly like the rebalance hook does. Returns
// whether the pool's shape changed (the caller's dispatch candidate must be
// recomputed then).
func (l *Live) maybeAutoscale(now float64) (bool, error) {
	a := l.p.cfg.Autoscale
	if a == nil || now < l.lastScale+a.Every {
		return false, nil
	}
	l.lastScale = now
	l.recordSnapshot(now)

	hist := l.met.LoadHistory
	win := a.window()
	var backlog float64
	n := 0
	for i := len(hist) - 1; i >= 0 && n < win; i-- {
		for _, q := range hist[i].QueuedByModel {
			backlog += float64(q)
		}
		n++
	}
	backlog /= float64(n)

	per := backlog / float64(l.active)
	switch {
	case per > a.up() && l.active < a.Max:
		l.scaleOut(now, a)
		return true, nil
	case per < a.down() && l.active > a.minWorkers():
		return l.scaleIn(now), nil
	}
	return false, nil
}

// scaleOut adds one worker of the autoscaler's class: it joins every model's
// placement (ids only grow, so rows stay sorted) with its first availability
// lagged by ScaleOutLag — the engine's free-time mechanism models the boot
// cost without any extra event machinery. The new slot's id is fresh, so the
// per-worker slices grow by one per scale-out over the whole session; the
// dispatch path stays independent of that history because it walks only the
// placement rows, which hold active workers alone (see nextDispatch).
func (l *Live) scaleOut(now float64, a *AutoscaleConfig) {
	st := l.st
	w := len(st.free)
	st.free = append(st.free, now+a.ScaleOutLag)
	st.busy = append(st.busy, 0)
	st.tune = append(st.tune, 0)
	st.served = append(st.served, 0)
	st.class = append(st.class, a.Class)
	l.drain = append(l.drain, false)
	l.lives = append(l.lives, WorkerLife{Worker: w, Class: a.Class, AddedAt: now, RetiredAt: math.NaN()})
	for m := range st.asg {
		st.asg[m] = append(st.asg[m], w)
	}
	l.active++
	l.met.ScaleEvents = append(l.met.ScaleEvents, ScaleEvent{Time: now, Worker: w, Delta: +1, Workers: l.active})
}

// scaleIn drains the highest-indexed eligible worker: reserved workers and
// any worker that is some model's last placement are skipped. The drained
// worker leaves every row immediately (drain-before-remove: no new
// dispatches) and retires once its in-flight work completes — with nothing
// new landing on it, its free time is final at decision time.
func (l *Live) scaleIn(now float64) bool {
	st := l.st
	target := -1
	for w := len(st.free) - 1; w >= 0; w-- {
		if l.drain[w] || w < l.p.reserved {
			continue
		}
		last := false
		for m := range st.asg {
			if len(st.asg[m]) == 1 && st.asg[m][0] == w {
				last = true
				break
			}
		}
		if last {
			continue
		}
		target = w
		break
	}
	if target < 0 {
		return false
	}
	l.drain[target] = true
	for m := range st.asg {
		row := st.asg[m]
		for i, x := range row {
			if x == target {
				st.asg[m] = append(row[:i], row[i+1:]...)
				break
			}
		}
	}
	if l.p.cfg.Preempt {
		l.preemptQueuedChunks(now)
	}
	l.lives[target].RetiredAt = math.Max(now, st.free[target])
	l.active--
	l.met.ScaleEvents = append(l.met.ScaleEvents, ScaleEvent{Time: now, Worker: target, Delta: -1, Workers: l.active})
	return true
}
