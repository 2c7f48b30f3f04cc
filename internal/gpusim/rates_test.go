package gpusim

import (
	"math"
	"math/rand"
	"testing"
)

// buildState assembles a simState with the given residents for direct rate
// checks.
func buildState(d *Device, blocks []BlockWork) (*simState, *Kernel) {
	k := &Kernel{Name: "rates", Resources: KernelResources{ThreadsPerBlock: 256}, Blocks: blocks}
	st := &simState{
		smWarps:    make([]float64, d.NumSMs),
		smLoad:     make([]int, d.NumSMs),
		demandIdx:  make([]int32, 0, len(blocks)),
		demandCap:  make([]float64, 0, len(blocks)),
		keepIdx:    make([]int32, 0, len(blocks)),
		demandIdx2: make([]int32, 0, len(blocks)),
		demandCap2: make([]float64, 0, len(blocks)),
		keepIdx2:   make([]int32, 0, len(blocks)),
	}
	for i := range blocks {
		b := &blocks[i]
		reqBytes := 32.0
		if b.MemRequests > 0 {
			reqBytes = (b.DRAMBytes + b.L2Bytes) / b.MemRequests
		}
		st.active = append(st.active, resident{
			remComp: b.CompCycles, remDRAM: b.DRAMBytes, remL2: b.L2Bytes,
		})
		st.meta = append(st.meta, residentMeta{
			idx: int32(i), sm: int32(i % d.NumSMs), warps: float64(b.Warps),
			capFactor: float64(b.Warps) * reqBytes,
		})
		// The event loop maintains the per-SM warp totals incrementally;
		// direct-rate tests mirror that bookkeeping here.
		st.smWarps[i%d.NumSMs] += float64(b.Warps)
		st.smLoad[i%d.NumSMs]++
	}
	return st, k
}

// Property: allocated DRAM rates never exceed the device bandwidth, every
// demander gets a positive rate, and no block exceeds its latency cap.
func TestWaterFillingConservationProperty(t *testing.T) {
	d := V100()
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(300)
		blocks := make([]BlockWork, n)
		for i := range blocks {
			blocks[i] = BlockWork{
				CompCycles:  float64(rng.Intn(10000)),
				DRAMBytes:   float64(rng.Intn(1 << 18)),
				L2Bytes:     float64(rng.Intn(1 << 16)),
				MemRequests: float64(1 + rng.Intn(2000)),
				Warps:       1 + rng.Intn(8),
				ActiveFrac:  1,
			}
		}
		st, _ := buildState(d, blocks)
		computeRatesFusedDT(d, st)
		var sumDRAM, sumL2 float64
		for i := range st.active {
			rb := &st.active[i]
			sumDRAM += rb.rateDRAM
			sumL2 += rb.rateL2
			if rb.remDRAM > simEps && rb.rateDRAM <= 0 {
				t.Fatalf("trial %d: DRAM demander %d starved", trial, i)
			}
			if rb.remDRAM <= simEps && rb.rateDRAM != 0 {
				t.Fatalf("trial %d: non-demander %d got DRAM rate", trial, i)
			}
			cap := st.meta[i].capFactor * d.MemParallelism * d.ClockHz / d.DRAMLatencyCycles
			if rb.rateDRAM > cap*(1+1e-9) {
				t.Fatalf("trial %d: block %d above latency cap: %g > %g", trial, i, rb.rateDRAM, cap)
			}
			if rb.remComp > simEps && rb.rateComp <= 0 {
				t.Fatalf("trial %d: block %d has no compute rate", trial, i)
			}
		}
		if sumDRAM > d.DRAMBandwidth*(1+1e-9) {
			t.Fatalf("trial %d: DRAM oversubscribed: %g > %g", trial, sumDRAM, d.DRAMBandwidth)
		}
		if sumL2 > d.L2Bandwidth*(1+1e-9) {
			t.Fatalf("trial %d: L2 oversubscribed: %g > %g", trial, sumL2, d.L2Bandwidth)
		}
	}
}

// Water-filling must be work-conserving: when aggregate demand caps exceed
// the bandwidth, the full bandwidth is handed out.
func TestWaterFillingWorkConserving(t *testing.T) {
	d := V100()
	blocks := make([]BlockWork, 600)
	for i := range blocks {
		blocks[i] = BlockWork{
			CompCycles:  1000,
			DRAMBytes:   1 << 20,
			MemRequests: 1 << 20 / 128, // large coalesced requests: high caps
			Warps:       8,
			ActiveFrac:  1,
		}
	}
	st, _ := buildState(d, blocks)
	computeRatesFusedDT(d, st)
	var sum float64
	for i := range st.active {
		sum += st.active[i].rateDRAM
	}
	if math.Abs(sum-d.DRAMBandwidth)/d.DRAMBandwidth > 1e-9 {
		t.Errorf("allocated %g of %g despite oversubscription", sum, d.DRAMBandwidth)
	}
}

// Capped blocks surrender bandwidth that uncapped blocks pick up.
func TestWaterFillingRedistribution(t *testing.T) {
	d := V100()
	blocks := []BlockWork{
		// Tiny requests: harshly latency-capped.
		{CompCycles: 1, DRAMBytes: 1 << 20, MemRequests: 1 << 20 / 4, Warps: 1, ActiveFrac: 1},
		// Huge requests: effectively uncapped.
		{CompCycles: 1, DRAMBytes: 1 << 20, MemRequests: 1, Warps: 8, ActiveFrac: 1},
	}
	st, _ := buildState(d, blocks)
	computeRatesFusedDT(d, st)
	capped := st.active[0].rateDRAM
	uncapped := st.active[1].rateDRAM
	fair := d.DRAMBandwidth / 2
	if capped >= fair {
		t.Errorf("latency-capped block got %g, at or above fair share %g", capped, fair)
	}
	if uncapped <= fair {
		t.Errorf("uncapped block got %g, should exceed fair share %g with redistribution", uncapped, fair)
	}
}

// Compute issue shares: a lone warp cannot saturate an SM, and shares scale
// with warp counts under contention.
func TestComputeIssueShares(t *testing.T) {
	d := V100()
	lone := []BlockWork{{CompCycles: 1000, Warps: 1, ActiveFrac: 1}}
	st, _ := buildState(d, lone)
	computeRatesFusedDT(d, st)
	want := d.PerWarpIssue * d.ClockHz
	if math.Abs(st.active[0].rateComp-want) > 1e-6*want {
		t.Errorf("lone warp rate %g, want per-warp ceiling %g", st.active[0].rateComp, want)
	}

	// Two blocks on the same SM: 2 and 6 warps; issue shared 1:3.
	pair := []BlockWork{
		{CompCycles: 1000, Warps: 2, ActiveFrac: 1},
		{CompCycles: 1000, Warps: 6, ActiveFrac: 1},
	}
	st2, _ := buildState(d, pair)
	// Move block 1 onto block 0's SM, mirroring the incremental warp-total
	// bookkeeping the event loop would perform.
	st2.smWarps[st2.meta[1].sm] -= st2.meta[1].warps
	st2.meta[1].sm = st2.meta[0].sm
	st2.smWarps[st2.meta[1].sm] += st2.meta[1].warps
	computeRatesFusedDT(d, st2)
	r0, r1 := st2.active[0].rateComp, st2.active[1].rateComp
	if math.Abs(r1/r0-3) > 1e-9 {
		t.Errorf("issue shares %g:%g, want 1:3", r0, r1)
	}
	total := (r0 + r1) / d.ClockHz
	if total > float64(d.IssueSlotsPerSM)*(1+1e-9) {
		t.Errorf("SM issue oversubscribed: %g slots", total)
	}
}
