package fleet

import (
	"fmt"
	"sort"
)

// Strategy selects how models are placed onto the pool's workers.
type Strategy int

const (
	// PlacementPacked places every model on every worker and consolidates
	// dispatch onto the lowest-indexed worker that can start a request
	// earliest — the bin-packing shape: light load concentrates on few
	// workers, which maximizes the idle capacity available to background
	// tunes (and, on real fleets, to power-gating).
	PlacementPacked Strategy = iota
	// PlacementSpread places every model on every worker and breaks dispatch
	// ties toward the worker with the least accumulated busy time — the
	// load-balancing shape: queueing interference between models is averaged
	// across the pool rather than concentrated.
	PlacementSpread
	// PlacementDedicated partitions the workers into contiguous disjoint
	// blocks, one per model (the remainder going to the earlier models), so
	// models never share a worker: the isolation shape, trading peak
	// capacity per model for zero cross-model interference.
	PlacementDedicated
)

func (s Strategy) String() string {
	switch s {
	case PlacementPacked:
		return "packed"
	case PlacementSpread:
		return "spread"
	case PlacementDedicated:
		return "dedicated"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// ParseStrategy maps a strategy's String form back to its value — the
// flag-parsing inverse used by recflex-serve's -placement flag.
func ParseStrategy(s string) (Strategy, error) {
	switch s {
	case "packed":
		return PlacementPacked, nil
	case "spread":
		return PlacementSpread, nil
	case "dedicated":
		return PlacementDedicated, nil
	}
	return 0, fmt.Errorf("fleet: unknown placement strategy %q (want packed, spread or dedicated)", s)
}

// Assignment maps each model to the sorted worker ids it may run on.
type Assignment [][]int

// clone returns a deep copy, so a rebalance hook can edit freely.
func (a Assignment) clone() Assignment {
	out := make(Assignment, len(a))
	for m := range a {
		out[m] = append([]int(nil), a[m]...)
	}
	return out
}

// validate checks an assignment against the pool shape: every model holds at
// least one worker and every worker id is in range. (Workers left unassigned
// are legal — a rebalance may deliberately drain one.)
func (a Assignment) validate(models, workers int) error {
	if len(a) != models {
		return fmt.Errorf("fleet: assignment covers %d models, want %d", len(a), models)
	}
	for m := range a {
		if len(a[m]) == 0 {
			return fmt.Errorf("fleet: assignment leaves model %d with no workers", m)
		}
		for _, w := range a[m] {
			if w < 0 || w >= workers {
				return fmt.Errorf("fleet: assignment places model %d on worker %d (pool has %d)", m, w, workers)
			}
		}
	}
	return nil
}

// validateReserves checks that an assignment honors every model's exclusive
// worker floor: at least reserves[m] of model m's workers appear in no other
// model's row. A rebalance hook on a pool with reservations must keep these
// floors or the rebalance is rejected.
func validateReserves(a Assignment, reserves []int) error {
	if len(reserves) == 0 {
		return nil
	}
	owners := make(map[int]int) // worker -> number of models placed on it
	for m := range a {
		for _, w := range a[m] {
			owners[w]++
		}
	}
	for m, want := range reserves {
		if want == 0 {
			continue
		}
		got := 0
		for _, w := range a[m] {
			if owners[w] == 1 {
				got++
			}
		}
		if got < want {
			return fmt.Errorf("fleet: assignment gives model %d only %d exclusive workers, Reserve floor is %d", m, got, want)
		}
	}
	return nil
}

// assign builds the initial assignment for a strategy over a pool shape that
// Config.Validate accepted. reserves holds each model's exclusive worker floor
// (Config.Reserve, zero under dedicated placement): the lowest sum(reserves)
// worker ids are carved out as exclusive blocks in model order, and every
// model additionally gets the remaining shared workers.
func assign(s Strategy, models, workers int, reserves []int) Assignment {
	out := make(Assignment, models)
	if s == PlacementDedicated {
		// Contiguous blocks of size floor(W/M), the first W%M models taking
		// one extra.
		base, extra := workers/models, workers%models
		next := 0
		for m := range out {
			n := base
			if m < extra {
				n++
			}
			for i := 0; i < n; i++ {
				out[m] = append(out[m], next)
				next++
			}
		}
		return out
	}
	totalRes := 0
	for _, r := range reserves {
		totalRes += r
	}
	shared := make([]int, 0, workers-totalRes)
	for w := totalRes; w < workers; w++ {
		shared = append(shared, w)
	}
	// Each model gets its own copy of its worker list: the rows must not
	// share a backing array, or editing one model's placement (e.g. in a
	// rebalance hook handed the assignment) would silently edit all of them.
	next := 0
	for m := range out {
		row := make([]int, 0, workers)
		for i := 0; i < reserves[m]; i++ {
			row = append(row, next)
			next++
		}
		out[m] = append(row, shared...)
	}
	return out
}

// WorkerLoad is the per-worker load snapshot a rebalance hook sees.
type WorkerLoad struct {
	// Busy is the worker's accumulated serving time in virtual seconds.
	Busy float64
	// TuneBusy is the time the worker has spent holding background tunes.
	TuneBusy float64
	// FreeAt is the virtual time the worker next becomes idle.
	FreeAt float64
	// Queued counts pending requests whose model is currently placed on this
	// worker (a request placed on several workers counts on each). A split
	// request counts once from its split until its last chunk lands, matching
	// Live.Pending's accounting.
	Queued int
	// Class is the worker's device class (see Config.WorkerClasses), so a
	// rebalance hook can weigh heterogeneous capacity.
	Class int
}

// LoadSnapshot is one recorded observation of the pool's load, taken each
// time the rebalance pacing fires: the virtual time, the per-worker load,
// and the per-model queue backlog and cumulative served work. The pool keeps
// every snapshot of a run (Metrics.LoadHistory), so a rebalance hook can
// react to trends — sustained backlog, demand shifts — rather than a single
// instantaneous reading.
type LoadSnapshot struct {
	// Time is the virtual time the snapshot was taken.
	Time float64
	// Workers is the per-worker load at Time.
	Workers []WorkerLoad
	// QueuedByModel counts pending (admitted, unresolved) requests per
	// model: whole requests awaiting dispatch plus split requests in flight —
	// a split counts exactly once from its split until its last chunk lands,
	// so the snapshot's total always equals Live.Pending at snapshot time.
	QueuedByModel []int
	// WorkByModel is each model's cumulative served service time in virtual
	// seconds up to Time; the delta between two snapshots is the work the
	// model received in between.
	WorkByModel []float64
}

// RebalanceFunc is the load-aware placement hook: invoked during replay —
// paced by Config.RebalanceEvery, on both arrival and dispatch events, so it
// keeps firing while the queue drains after the last arrival and across
// arrival-free windows — with the current virtual time, the recorded load
// history (hist is every snapshot so far, oldest first; the last entry is
// the current one) and the current assignment. Returning a new Assignment
// moves future dispatch — queued and in-flight work is not migrated;
// returning nil keeps the current one. The hook must be deterministic for
// replays to be reproducible, must not retain or mutate hist (the pool owns
// it), and must not retain or mutate cur (edit a clone instead: the pool
// hands over a private copy on apply).
type RebalanceFunc func(now float64, hist []LoadSnapshot, cur Assignment) Assignment

// sortRequests orders a fleet stream by arrival time, stable.
func sortRequests(reqs []Request) {
	sort.SliceStable(reqs, func(a, b int) bool { return reqs[a].Arrival < reqs[b].Arrival })
}
