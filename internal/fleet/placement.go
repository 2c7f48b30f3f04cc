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

// clone returns a deep copy, so a session can edit its rows freely.
func (a Assignment) clone() Assignment {
	out := make(Assignment, len(a))
	for m := range a {
		out[m] = append([]int(nil), a[m]...)
	}
	return out
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
	// share a backing array, or editing one model's placement (e.g. a
	// scale-in removing a drained worker) would silently edit all of them.
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

// sortRequests orders a fleet stream by arrival time, stable.
func sortRequests(reqs []Request) {
	sort.SliceStable(reqs, func(a, b int) bool { return reqs[a].Arrival < reqs[b].Arrival })
}
