package gpusim

import "math"

// computeRatesFusedDT fills in the drain rates of every resident block from
// the current contention state. Three shared resources are modeled:
//
//   - SM issue slots: each SM issues IssueSlotsPerSM warp instructions per
//     cycle, shared among resident warps in proportion to warp count, with a
//     per-warp dependency-stall ceiling (PerWarpIssue). A lone warp therefore
//     cannot saturate an SM: compute also rewards occupancy.
//   - DRAM bandwidth: processor-shared across all blocks with remaining DRAM
//     work, each capped by its latency-hiding ceiling
//     warps·MemParallelism·reqBytes/latency (latencyCap). Low-occupancy
//     kernels become latency-bound long before they are bandwidth-bound.
//   - L2 bandwidth: same model with the L2 latency and bandwidth.
//
// Unclaimed bandwidth from capped blocks is redistributed (water-filling), so
// a single memory-hungry schedule in a fused kernel can slow its neighbors —
// the inter-feature resource contention of the paper's §II-C.
//
// All rates are recomputed in one pass over the residents: issue-slot shares
// are written and both memory demand sets collected as the scan goes, then
// each resource is water-filled over its set. Demand entries are emitted in
// slot order, so each fill runs the same rounds as a shareBandwidth call on
// the same state. Each kind has its own demand and keep scratch
// (demandIdx/keepIdx vs demandIdx2/keepIdx2) because both demand sets are
// alive at once here and the water-fill ping-pongs a set between its two
// backings.
//
// The per-SM warp totals st.smWarps that issue shares divide by are
// maintained incrementally by the dispatch and retire paths rather than
// recomputed here. Warp counts are integer-valued, so the running
// totals are exact in float64 no matter the order blocks come and go in —
// identical to a fresh sum over the residents.
//
// The returned dt is the earliest stream finish time at the new rates —
// +Inf when every stream is stalled. Each stream's finish time is taken the
// moment its final rate is known (issue shares inline, memory shares at the
// water-fill assignment), with the same remaining/rate quotient the event
// loop's scan would compute, so a full recomputation event needs no separate
// next-event pass over the residents.
func computeRatesFusedDT(d *Device, st *simState) float64 {
	sw := st.smWarps
	issuePeak := float64(d.IssueSlotsPerSM)
	dramBW, dramScale, dramFallback := memParams(d, memDRAM)
	l2BW, l2Scale, l2Fallback := memParams(d, memL2)

	dIdx := st.demandIdx[:cap(st.demandIdx)]
	dCaps := st.demandCap[:cap(st.demandCap)]
	lIdx := st.demandIdx2[:cap(st.demandIdx2)]
	lCaps := st.demandCap2[:cap(st.demandCap2)]
	dMin, lMin := math.Inf(1), math.Inf(1)
	dt := math.Inf(1)
	nd, nl := 0, 0
	for i := range st.active {
		m := &st.meta[i]
		rate := m.warps * d.PerWarpIssue
		if share := issuePeak * m.warps / sw[m.sm]; share < rate {
			rate = share
		}
		rb := &st.active[i]
		rb.rateComp = rate * d.ClockHz
		rb.rateDRAM = 0
		rb.rateL2 = 0
		if rb.remComp > simEps && rb.rateComp > 0 {
			if ft := rb.remComp / rb.rateComp; ft < dt {
				dt = ft
			}
		}
		if rb.remDRAM > simEps {
			c := latencyCap(m.capFactor, dramScale, dramFallback)
			dIdx[nd], dCaps[nd] = int32(i), c
			nd++
			if c < dMin {
				dMin = c
			}
		}
		if rb.remL2 > simEps {
			c := latencyCap(m.capFactor, l2Scale, l2Fallback)
			lIdx[nl], lCaps[nl] = int32(i), c
			nl++
			if c < lMin {
				lMin = c
			}
		}
	}
	waterFill(st, memDRAM, dIdx[:nd], dCaps[:nd], dMin, st.keepIdx[:0], dramBW, &dt)
	waterFill(st, memL2, lIdx[:nl], lCaps[:nl], lMin, st.keepIdx2[:0], l2BW, &dt)
	return dt
}

type memKind int

const (
	memDRAM memKind = iota
	memL2
)

// memParams returns one memory kind's bandwidth and the two constants of its
// per-block latency cap: the scale that turns a block's cap factor (warps ×
// mean request bytes) into bytes per second, and the fallback cap.
func memParams(d *Device, kind memKind) (bw, capScale, fallback float64) {
	latency := d.DRAMLatencyCycles
	bw = d.DRAMBandwidth
	if kind == memL2 {
		latency = d.L2LatencyCycles
		bw = d.L2Bandwidth
	}
	return bw, d.MemParallelism * d.ClockHz / latency, bw / float64(d.NumSMs*d.MaxBlocksPerSM)
}

// latencyCap is a block's latency-hiding memory rate cap: the requests its
// warps keep in flight, each covering the kind's latency. A block whose cap
// factor is not positive gets the fallback, an even split of the bandwidth
// over the device's block slots.
func latencyCap(capFactor, capScale, fallback float64) float64 {
	c := capFactor * capScale
	if c <= 0 {
		c = fallback
	}
	return c
}

// shareBandwidth water-fills one memory resource across the blocks that still
// demand it, using the preallocated scratch in st. The event loop calls this
// on events where only this kind's demand set changed; full recomputations go
// through computeRatesFusedDT instead.
func shareBandwidth(d *Device, st *simState, kind memKind) {
	bw, capScale, fallback := memParams(d, kind)

	idx := st.demandIdx[:cap(st.demandIdx)]
	caps := st.demandCap[:cap(st.demandCap)]
	minCap := math.Inf(1)
	n := 0
	for i := range st.active {
		rb := &st.active[i]
		rem := rb.remDRAM
		if kind == memL2 {
			rem = rb.remL2
		}
		if rem <= simEps {
			continue
		}
		c := latencyCap(st.meta[i].capFactor, capScale, fallback)
		idx[n] = int32(i)
		caps[n] = c
		n++
		if c < minCap {
			minCap = c
		}
	}
	waterFill(st, kind, idx[:n], caps[:n], minCap, st.keepIdx[:0], bw, nil)
}

// waterFill assigns kind's rates across the demand set idx/caps: repeatedly
// grant capped blocks their cap and re-share the remainder among the rest.
// Terminates because every round either removes a block or assigns the final
// fair share. minCap is the smallest cap in the set: when it exceeds the fair
// share, no block is capped and the round would grant nothing, so the final
// equal split is assigned directly without the scan that would discover it.
//
// Every demander receives its final rate exactly once (a cap grant removes it
// from the set; a broadcast ends the fill), so when dt is non-nil the stream's
// finish time is folded into *dt at that moment — the fused-recompute caller
// gets the next-event minimum without another pass over the residents.
//
// The survivor set ping-pongs between idx's backing and keepScratch; both
// must have capacity for the full set and must not alias each other. The
// swaps stay local — the caller's scratch fields keep their backings.
func waterFill(st *simState, kind memKind, idx []int32, caps []float64, minCap float64, keepScratch []int32, bw float64, dt *float64) {
	remBW := bw
	for len(idx) > 0 {
		share := remBW / float64(len(idx))
		if minCap > share {
			if kind == memDRAM {
				for _, ai := range idx {
					rb := &st.active[ai]
					rb.rateDRAM = share
					if dt != nil {
						if ft := rb.remDRAM / share; ft < *dt {
							*dt = ft
						}
					}
				}
			} else {
				for _, ai := range idx {
					rb := &st.active[ai]
					rb.rateL2 = share
					if dt != nil {
						if ft := rb.remL2 / share; ft < *dt {
							*dt = ft
						}
					}
				}
			}
			break
		}
		progressed := false
		keep := keepScratch[:0]
		keepCaps := 0
		minKept := math.Inf(1)
		for j, ai := range idx {
			if caps[j] <= share {
				grantMemRate(&st.active[ai], kind, caps[j], dt)
				remBW -= caps[j]
				progressed = true
			} else {
				keep = append(keep, ai)
				caps[keepCaps] = caps[j]
				keepCaps++
				if caps[keepCaps-1] < minKept {
					minKept = caps[keepCaps-1]
				}
			}
		}
		if !progressed {
			// Unreachable while minCap is exact (no progress means every cap
			// exceeded the share), kept as a backstop against non-finite caps.
			for _, ai := range idx {
				grantMemRate(&st.active[ai], kind, share, dt)
			}
			break
		}
		// Swap the kept set into the working slices.
		keepScratch = idx[:0]
		idx = keep
		caps = caps[:keepCaps]
		minCap = minKept
	}
}

// grantMemRate assigns a block's final rate for one memory kind and, when dt
// is non-nil, folds the stream's finish time into the running next-event
// minimum. A zero rate divides to +Inf, which never lowers the minimum —
// matching the scan form, which skips rate-zero streams.
func grantMemRate(rb *resident, kind memKind, rate float64, dt *float64) {
	var rem float64
	if kind == memDRAM {
		rb.rateDRAM = rate
		rem = rb.remDRAM
	} else {
		rb.rateL2 = rate
		rem = rb.remL2
	}
	if dt != nil {
		if ft := rem / rate; ft < *dt {
			*dt = ft
		}
	}
}
