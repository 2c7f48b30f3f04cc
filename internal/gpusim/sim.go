package gpusim

import (
	"fmt"
	"math"
)

// SimResult reports the outcome of one kernel simulation.
type SimResult struct {
	// Time is the kernel wall-clock time in seconds, including the launch
	// overhead when the kernel requests it.
	Time float64

	// BlockTime[i] is the residency time of kernel block i (dispatch to
	// drain), the l_b of the paper's Equation 2.
	BlockTime []float64

	// BlockStart[i] is block i's dispatch time and BlockSM[i] the SM it ran
	// on — the scheduling trace behind Figure 5, used by tests to verify
	// the residency invariants and by tools to render timelines.
	BlockStart []float64
	BlockSM    []int32

	// TagTime sums BlockTime over blocks sharing a non-negative Tag. The
	// tuner's local stage tags blocks by candidate and scores candidates
	// from here; fused kernels tag blocks by feature, and recflex-inspect
	// prints those per-feature sums. The fusion compiler itself never
	// reads it.
	TagTime map[int]float64

	// TagBlocks counts blocks per non-negative tag.
	TagBlocks map[int]int

	// BlocksPerSM is the resident-block limit the simulation honored.
	BlocksPerSM int

	// Counters holds the Nsight-style hardware counters (Table II).
	Counters Counters
}

const simEps = 1e-15

// eventBatchTol batches dimension completions within 5% of the earliest one
// into a single scheduling event. It bounds the timing error of any single
// block at 5% while collapsing the event count of large grids.
const eventBatchTol = 0.05

// resident tracks the stream state of one in-flight block: the six floats
// every per-event scan reads and writes. The struct is deliberately just
// these — 48 bytes — so the widest scans of the event loop (next-event search
// and drain) stream one compact array that stays cache-resident even at full
// device occupancy. Bookkeeping that only the dispatch and retire paths touch
// lives in the parallel residentMeta array.
type resident struct {
	remComp, remDRAM, remL2    float64
	rateComp, rateDRAM, rateL2 float64
}

// residentMeta is the cold half of a resident: identity, placement and the
// demand-cap factor, read only when rates are recomputed or the block
// retires. meta[i] always describes active[i]; the two arrays grow, compact
// and truncate in lockstep.
type residentMeta struct {
	idx       int32
	sm        int32
	warps     float64
	capFactor float64 // warps × mean request bytes: the latency-cap factor
	start     float64
}

// simState holds preallocated scratch for one simulation.
type simState struct {
	active  []resident
	meta    []residentMeta
	smWarps []float64
	smLoad  []int
	// Water-filling scratch: indices into active plus per-entry caps, one set
	// per memory kind. The fused rate recomputation holds both kinds' demand
	// sets at once, so they cannot share a backing.
	demandIdx  []int32
	demandCap  []float64
	keepIdx    []int32
	demandIdx2 []int32
	demandCap2 []float64
	keepIdx2   []int32
}

// launchWork is the dispatch-time image of one grid block: the remaining-work
// seeds and bookkeeping constants the launch path stores into a resident
// slot. A Simulator derives the table once per (device, kernel) pair so that
// dispatch — which runs once per grid block — reads one dense 40-byte record
// instead of ranging over the full BlockWork struct.
type launchWork struct {
	comp, dram, l2   float64 // work seeds; comp includes the block overhead
	warps, capFactor float64
}

// Simulator owns the reusable working set of the kernel simulation: the
// resident-block scratch, the per-SM load tables and the result buffers.
// After a warm-up run, a run allocates nothing in steady state, so tuners and
// serving loops that simulate thousands of kernels back to back reuse one
// Simulator instead of re-growing the same slices every call.
//
// A run can also be driven one scheduling event at a time: Start launches the
// kernel, each Step processes one event, and Result reports the outcome once
// Step says the grid has drained. Run is exactly that loop. Between steps,
// Now reports the simulated time and TagBounds bounds every tag's final
// TagTime from below, which lets a caller comparing tags stop a run whose
// outcome is already decided.
//
// A Simulator is not safe for concurrent use; give each goroutine its own.
//
// Start assumes the Device and Kernel it is given are not mutated between
// calls that reuse them: when the same device and kernel (by identity) are
// passed again, validation and the grid-constant counter sums are reused from
// the previous call instead of being recomputed.
type Simulator struct {
	st  simState
	res SimResult

	// Validated-input memo (see the type comment). lastBlocks/lastNB pin the
	// identity of the block slice as well, so a kernel whose Blocks field was
	// swapped out is re-validated even under the same Kernel pointer.
	lastDev    *Device
	lastKernel *Kernel
	lastBlocks *BlockWork
	lastNB     int
	sums       threadSums
	launch     []launchWork // per-block dispatch image, derived once per kernel
	tags       []int        // per-block tag, densely packed for the retire path

	// State of the run between Start and the step that drains the grid.
	dev                          *Device
	kernel                       *Kernel
	next                         int // next grid block to dispatch
	dramDemand, l2Demand         int // residents with DRAM / L2 work left
	resDirty, dramDirty, l2Dirty bool
	now                          float64
	acct                         counterAccum
}

// NewSimulator returns a Simulator with empty scratch; the first Start sizes
// it to the kernel at hand.
func NewSimulator() *Simulator { return &Simulator{} }

// Simulate runs kernel k on device d and returns the timing result. The
// simulation is deterministic: identical inputs produce identical outputs.
//
// Scheduling follows the GPU contract the paper's Figure 5 illustrates:
// blocks are dispatched in grid order to SMs with free slots (round-robin at
// launch, released-slot-first afterwards) and run non-preemptively until they
// drain. Between events, resident blocks drain their compute, DRAM and L2
// work at rates set by the current contention state; see rates.go.
//
// Each call allocates a fresh result; hot loops that can tolerate the result
// being overwritten by the next call should hold a Simulator and use Run.
func Simulate(d *Device, k *Kernel) (*SimResult, error) {
	return new(Simulator).Run(d, k)
}

// Run is Simulate over the Simulator's reusable scratch: Start, then Step
// until the grid drains. The returned SimResult is owned by the Simulator and
// overwritten by the next run; callers that retain it across runs must copy
// what they keep. On error the result buffers hold no meaningful data.
func (s *Simulator) Run(d *Device, k *Kernel) (*SimResult, error) {
	if err := s.Start(d, k); err != nil {
		return nil, err
	}
	for {
		more, err := s.Step()
		if err != nil {
			return nil, err
		}
		if !more {
			return s.Result(), nil
		}
	}
}

// Start validates kernel k against device d, resets the result buffers and
// launches the grid: the initial round-robin fill of the SMs at t=0. No block
// has drained yet; Step advances the run.
func (s *Simulator) Start(d *Device, k *Kernel) error {
	s.st.active = s.st.active[:0] // a failed Start leaves nothing to step
	var blocksID *BlockWork
	if len(k.Blocks) > 0 {
		blocksID = &k.Blocks[0]
	}
	if d != s.lastDev || k != s.lastKernel || blocksID != s.lastBlocks || len(k.Blocks) != s.lastNB {
		if err := d.Validate(); err != nil {
			return err
		}
		if err := k.Validate(d); err != nil {
			return err
		}
		s.sums = gridThreadSums(d, k)
		if cap(s.launch) < len(k.Blocks) {
			s.launch = make([]launchWork, len(k.Blocks))
		}
		s.launch = s.launch[:len(k.Blocks)]
		if cap(s.tags) < len(k.Blocks) {
			s.tags = make([]int, len(k.Blocks))
		}
		s.tags = s.tags[:len(k.Blocks)]
		for i := range k.Blocks {
			b := &k.Blocks[i]
			rq := 32.0
			if b.MemRequests > 0 {
				rq = (b.DRAMBytes + b.L2Bytes) / b.MemRequests
				if rq <= 0 {
					rq = 32.0
				}
			}
			lw := &s.launch[i]
			lw.comp = b.CompCycles + d.BlockOverheadCycles
			lw.dram = b.DRAMBytes
			lw.l2 = b.L2Bytes
			lw.warps = float64(b.Warps)
			lw.capFactor = float64(b.Warps) * rq
			s.tags[i] = b.Tag
		}
		s.lastDev, s.lastKernel, s.lastBlocks, s.lastNB = d, k, blocksID, len(k.Blocks)
	}
	bps := k.EffectiveBlocksPerSM(d)
	slots := d.ParallelBlockSlots(bps)
	if slots <= 0 {
		return fmt.Errorf("gpusim: kernel %q has zero parallel block slots", k.Name)
	}
	nb := len(k.Blocks)
	if slots > nb {
		slots = nb
	}

	res := &s.res
	res.Time = 0
	// Every entry of the per-block buffers is written before the run ends
	// (each block dispatches exactly once and retires exactly once), so the
	// reused backing needs no zeroing.
	res.BlockTime = growFloats(res.BlockTime, nb)
	res.BlockStart = growFloats(res.BlockStart, nb)
	if cap(res.BlockSM) < nb {
		res.BlockSM = make([]int32, nb)
	}
	res.BlockSM = res.BlockSM[:nb]
	if res.TagTime == nil {
		res.TagTime = make(map[int]float64)
		res.TagBlocks = make(map[int]int)
	} else {
		clear(res.TagTime)
		clear(res.TagBlocks)
	}
	res.BlocksPerSM = bps
	res.Counters = Counters{}

	st := &s.st
	if cap(st.active) < slots {
		st.active = make([]resident, 0, slots)
		st.meta = make([]residentMeta, 0, slots)
		st.demandIdx = make([]int32, 0, slots)
		st.demandCap = make([]float64, 0, slots)
		st.keepIdx = make([]int32, 0, slots)
		st.demandIdx2 = make([]int32, 0, slots)
		st.demandCap2 = make([]float64, 0, slots)
		st.keepIdx2 = make([]int32, 0, slots)
	}
	st.meta = st.meta[:0]
	st.smWarps = growFloats(st.smWarps, d.NumSMs)
	if cap(st.smLoad) < d.NumSMs {
		st.smLoad = make([]int, d.NumSMs)
	}
	st.smLoad = st.smLoad[:d.NumSMs]
	for i := range st.smLoad {
		st.smLoad[i] = 0
		st.smWarps[i] = 0
	}
	s.dev, s.kernel = d, k
	s.next = 0
	s.dramDemand, s.l2Demand = 0, 0
	// Rate recomputation is demand-driven: issue-slot shares change only
	// when residency changes, and a memory resource's water-filling shares
	// change only when its demand set does. Events that merely advance
	// still-draining streams skip the corresponding passes — the rates left
	// in place are bit-identical to what recomputation would produce, so
	// results are unchanged; only redundant work is elided.
	s.resDirty, s.dramDirty, s.l2Dirty = true, true, true
	s.now = 0
	s.acct = counterAccum{}

	// Initial round-robin fill, mirroring the hardware's launch-time
	// distribution of blocks across SMs. Capacity slots was reserved above,
	// so the reslices never reallocate.
	// (The wrap is an add-and-compare rather than a modulo: this loop runs
	// once per launched block, and integer division is serialized on the
	// loop-carried sm.)
	for sm := 0; s.next < nb && len(st.active) < slots; {
		if st.smLoad[sm] < bps {
			n := len(st.active)
			st.active = st.active[:n+1]
			st.meta = st.meta[:n+1]
			s.dispatchInto(n, sm, 0)
		}
		if sm++; sm == d.NumSMs {
			sm = 0
		}
	}
	return nil
}

// dispatchInto constructs the next grid block directly in resident slot w —
// at launch the next free entry of the active array, at backfill time the
// slot just vacated by a retirement — so the event loop never appends to (and
// never reallocates) the array it is iterating. Field-wise stores throughout:
// the slot is written in place, with no struct temporary on the way in.
//
// dramDemand/l2Demand count the residents with any work remaining — strictly
// positive, so a zero count proves every remainder is exactly zero. That
// lets Step skip a bandwidth re-share whose demand set is empty, and skip
// that stream's drain arithmetic outright: with no positive remainder, both
// passes are exact no-ops.
func (s *Simulator) dispatchInto(w, sm int, now float64) {
	st := &s.st
	next := s.next
	lw := &s.launch[next]
	rb := &st.active[w]
	rb.remComp = lw.comp
	rb.remDRAM = lw.dram
	rb.remL2 = lw.l2
	rb.rateComp = 0
	rb.rateDRAM = 0
	rb.rateL2 = 0
	m := &st.meta[w]
	m.idx = int32(next)
	m.sm = int32(sm)
	m.warps = lw.warps
	m.capFactor = lw.capFactor
	m.start = now
	if lw.dram > 0 {
		s.dramDemand++
	}
	if lw.l2 > 0 {
		s.l2Demand++
	}
	st.smLoad[sm]++
	st.smWarps[sm] += lw.warps
	s.res.BlockStart[next] = now
	s.res.BlockSM[next] = int32(sm)
	s.next = next + 1
}

// Now returns the simulated time of the run: zero after Start, the time of
// the last processed event after each Step.
func (s *Simulator) Now() float64 { return s.now }

// Result returns the run's outcome. It is complete once Step has reported
// that the grid drained. While the run is in progress it holds what has
// happened so far: the dispatched blocks' BlockStart and BlockSM, the retired
// blocks' BlockTime, and TagTime and TagBlocks over the retired blocks; Time
// and Counters are set by the step that drains the grid. The buffers are
// owned by the Simulator and overwritten by the next Start.
func (s *Simulator) Result() *SimResult { return &s.res }

// Step processes one scheduling event: it advances time to the next stream
// completion, drains every resident block, retires the drained ones and
// backfills their slots. It reports whether blocks remain in flight; the
// step that drains the grid finalizes the result and returns false, as does
// any later call. An error (a stalled kernel) ends the run.
func (s *Simulator) Step() (more bool, err error) {
	st := &s.st
	if len(st.active) == 0 {
		return false, nil
	}
	d := s.dev
	res := &s.res
	tags := s.tags
	nb := len(s.launch)
	resDirty, dramDirty, l2Dirty := s.resDirty, s.dramDirty, s.l2Dirty

	// Earliest dimension completion among residents: freed bandwidth is
	// redistributed when a stream ends. Near-simultaneous completions are
	// batched into one event (eventBatchTol) — a bounded approximation that
	// collapses the event storm of large heterogeneous grids.
	//
	// A full recomputation event gets the minimum as a byproduct of the fused
	// rate pass; events that reuse rates run the explicit scan. The
	// per-dimension comparisons are open-coded because this is the widest
	// scan of the event loop, and a dimension with zero outstanding demand is
	// skipped wholesale — its clause would be false for every block.
	var dt float64
	if resDirty {
		dt = computeRatesFusedDT(d, st)
	} else {
		if dramDirty && s.dramDemand > 0 {
			shareBandwidth(d, st, memDRAM)
		}
		if l2Dirty && s.l2Demand > 0 {
			shareBandwidth(d, st, memL2)
		}
		dt = math.Inf(1)
		scanDRAM, scanL2 := s.dramDemand > 0, s.l2Demand > 0
		for i := range st.active {
			rb := &st.active[i]
			if rb.remComp > simEps && rb.rateComp > 0 {
				if ft := rb.remComp / rb.rateComp; ft < dt {
					dt = ft
				}
			}
			if scanDRAM && rb.remDRAM > simEps && rb.rateDRAM > 0 {
				if ft := rb.remDRAM / rb.rateDRAM; ft < dt {
					dt = ft
				}
			}
			if scanL2 && rb.remL2 > simEps && rb.rateL2 > 0 {
				if ft := rb.remL2 / rb.rateL2; ft < dt {
					dt = ft
				}
			}
		}
	}
	resDirty, dramDirty, l2Dirty = false, false, false
	if math.IsInf(dt, 1) || dt < 0 {
		n := len(st.active)
		st.active = st.active[:0]
		return false, fmt.Errorf("gpusim: kernel %q stalled at t=%gs with %d resident blocks", s.kernel.Name, s.now, n)
	}
	dt *= 1 + eventBatchTol
	now := s.now + dt
	s.now = now

	// One fused scan: drain each block (integrating the traffic actually
	// moved — exact even when the batched step overshoots a stream's
	// remaining work), then retire it if fully drained and backfill its slot
	// in place. A write index compacts survivors leftward, and a retirement
	// with grid blocks remaining constructs the backfilled block directly in
	// the freed slot. Processing stays in grid-slot order — same retirement
	// order, same TagTime accumulation order, same dispatch order as the
	// append-based form this replaces — but the resident array is never
	// appended to mid-iteration, where the old form reallocated it on every
	// backfill once at capacity.
	var dramMoved, l2Moved float64
	// A memory stream with zero outstanding demand needs no drain at all:
	// every remainder is exactly zero, so the arithmetic below would move
	// nothing and change nothing. The gates are loop-invariant (frozen at
	// loop entry; blocks backfilled mid-scan are never drained in the same
	// event), so a finished stream costs one predictable branch per block.
	doDRAM, doL2 := s.dramDemand > 0, s.l2Demand > 0
	w := 0
	n0 := len(st.active)
	for i := 0; i < n0; i++ {
		rb := &st.active[i]
		rb.remComp = drain(rb.remComp, rb.rateComp, dt)
		if doDRAM {
			before := rb.remDRAM
			rb.remDRAM = drain(before, rb.rateDRAM, dt)
			dramMoved += before - rb.remDRAM
			if before > simEps && rb.remDRAM <= simEps {
				dramDirty = true // DRAM stream ended: re-share its bandwidth
			}
			if before > 0 && rb.remDRAM == 0 {
				s.dramDemand--
			}
		}
		if doL2 {
			before := rb.remL2
			rb.remL2 = drain(before, rb.rateL2, dt)
			l2Moved += before - rb.remL2
			if before > simEps && rb.remL2 <= simEps {
				l2Dirty = true
			}
			if before > 0 && rb.remL2 == 0 {
				s.l2Demand--
			}
		}
		if rb.remComp <= simEps && rb.remDRAM <= simEps && rb.remL2 <= simEps {
			m := &st.meta[i]
			bt := now - m.start
			res.BlockTime[m.idx] = bt
			if tag := tags[m.idx]; tag >= 0 {
				res.TagTime[tag] += bt
				res.TagBlocks[tag]++
			}
			sm := int(m.sm)
			st.smLoad[sm]--
			st.smWarps[sm] -= m.warps
			resDirty = true
			if s.next < nb {
				// The retiring block's fields are fully consumed; when
				// w == i this overwrites the slots rb and m point into.
				// The fresh block is dispatched at now and not drained
				// until the next event, exactly as with the separate
				// drain and retire scans.
				s.dispatchInto(w, sm, now)
				w++
			}
		} else {
			if w != i {
				st.active[w] = *rb
				st.meta[w] = st.meta[i]
			}
			w++
		}
	}
	st.active = st.active[:w]
	st.meta = st.meta[:w]
	s.acct.observe(dramMoved, l2Moved, dt)
	s.resDirty, s.dramDirty, s.l2Dirty = resDirty, dramDirty, l2Dirty
	if w > 0 {
		return true, nil
	}

	res.Time = now
	if s.kernel.IncludeLaunchOverhead {
		res.Time += d.KernelLaunchOverhead
	}
	res.Counters = s.acct.finalize(d, res.Time, s.sums)
	return false, nil
}

// TagBounds writes into lower[t], for every tag t in [0, len(lower)), a lower
// bound on the TagTime[t] the run will end with, and into pending[t] the
// number of tag-t blocks that have not retired yet; pending must be at least
// as long as lower. Tags outside that range are ignored. A tag with no
// pending blocks gets its final TagTime exactly.
//
// The bound adds to the retired blocks' sum, for each resident block, its
// elapsed time plus its remaining work over its rate ceilings, and for each
// undispatched block, its whole work over its ceilings. A block's ceilings
// are min(warps·PerWarpIssue, IssueSlotsPerSM)·ClockHz for issue and, for
// each memory kind, the smaller of its latency cap and the kind's bandwidth:
// no rate the event loop assigns exceeds them (rates.go), and event batching
// only ever delays a retirement. Since the work of a block's streams drains
// concurrently, its time is bounded by the slowest stream's. Valid at any
// point after a successful Start, including after the grid drained.
func (s *Simulator) TagBounds(lower []float64, pending []int) {
	pending = pending[:len(lower)]
	for t := range lower {
		lower[t] = 0
		pending[t] = 0
	}
	st := &s.st
	tags := s.tags
	now := s.now
	c := newCeilings(s.dev)
	for i := range st.active {
		m := &st.meta[i]
		t := tags[m.idx]
		if uint(t) >= uint(len(lower)) {
			continue
		}
		rb := &st.active[i]
		lower[t] += now - m.start + c.drainBound(rb.remComp, rb.remDRAM, rb.remL2, m.warps, m.capFactor)
		pending[t]++
	}
	for i := s.next; i < len(s.launch); i++ {
		if t := tags[i]; uint(t) < uint(len(lower)) {
			lw := &s.launch[i]
			lower[t] += c.drainBound(lw.comp, lw.dram, lw.l2, lw.warps, lw.capFactor)
			pending[t]++
		}
	}
	for t := range lower {
		lower[t] = s.res.TagTime[t] + lower[t]
	}
}

// ceilings holds a device's per-block rate ceilings in the form drainBound
// reads them: the issue constants, and each memory kind's bandwidth and
// latency-cap constants (memParams).
type ceilings struct {
	perWarpIssue, issuePeak, clockHz float64
	dramBW, dramScale, dramFallback  float64
	l2BW, l2Scale, l2Fallback        float64
}

func newCeilings(d *Device) ceilings {
	c := ceilings{perWarpIssue: d.PerWarpIssue, issuePeak: float64(d.IssueSlotsPerSM), clockHz: d.ClockHz}
	c.dramBW, c.dramScale, c.dramFallback = memParams(d, memDRAM)
	c.l2BW, c.l2Scale, c.l2Fallback = memParams(d, memL2)
	return c
}

// drainBound is the least time in which a block with the given remaining
// work can drain it: each stream needs its remainder (less the event
// epsilon, below which a stream counts as drained) over its rate ceiling,
// and the block retires only when its slowest stream does.
func (c *ceilings) drainBound(comp, dram, l2, warps, capFactor float64) float64 {
	t := 0.0
	if comp > simEps {
		issue := warps * c.perWarpIssue
		if c.issuePeak < issue {
			issue = c.issuePeak
		}
		t = (comp - simEps) / (issue * c.clockHz)
	}
	if dram > simEps {
		ceil := latencyCap(capFactor, c.dramScale, c.dramFallback)
		if c.dramBW < ceil {
			ceil = c.dramBW
		}
		if v := (dram - simEps) / ceil; v > t {
			t = v
		}
	}
	if l2 > simEps {
		ceil := latencyCap(capFactor, c.l2Scale, c.l2Fallback)
		if c.l2BW < ceil {
			ceil = c.l2BW
		}
		if v := (l2 - simEps) / ceil; v > t {
			t = v
		}
	}
	return t
}

// growFloats returns s resized to n, reallocating only when capacity is
// short. Contents are unspecified.
func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// drain advances one work stream by dt at the given rate, clamping the
// remainder to exactly zero once it falls below the event epsilon so finished
// streams compare cleanly.
func drain(rem, rate, dt float64) float64 {
	rem -= rate * dt
	if rem < simEps {
		return 0
	}
	return rem
}

// SerialUpperBound returns the time the kernel would take if every block ran
// alone on one SM sequentially — a loose upper bound used by tests.
func SerialUpperBound(d *Device, k *Kernel) float64 {
	total := 0.0
	for i := range k.Blocks {
		b := &k.Blocks[i]
		comp := (b.CompCycles + d.BlockOverheadCycles) / (float64(b.Warps) * d.PerWarpIssue * d.ClockHz)
		mem := b.DRAMBytes/d.DRAMBandwidth + b.L2Bytes/d.L2Bandwidth
		lat := 0.0
		if b.MemRequests > 0 {
			reqBytes := (b.DRAMBytes + b.L2Bytes) / b.MemRequests
			if reqBytes > 0 {
				cap := float64(b.Warps) * d.MemParallelism * reqBytes * d.ClockHz / d.DRAMLatencyCycles
				lat = (b.DRAMBytes + b.L2Bytes) / cap
			}
		}
		total += comp + math.Max(mem, lat)
	}
	return total
}

// RooflineLowerBound returns max(compute, DRAM, L2) aggregate-resource time,
// a valid lower bound on any schedule of the kernel's blocks.
func RooflineLowerBound(d *Device, k *Kernel) float64 {
	comp, dram, l2 := k.TotalWork()
	comp += float64(len(k.Blocks)) * d.BlockOverheadCycles
	// Peak issue throughput across the device, in warp-cycles per second.
	peakIssue := float64(d.NumSMs*d.IssueSlotsPerSM) * d.ClockHz
	t := comp / peakIssue
	t = math.Max(t, dram/d.DRAMBandwidth)
	t = math.Max(t, l2/d.L2Bandwidth)
	return t
}
