package gpusim

import (
	"math"
	"math/rand"
	"testing"
)

// boundsKernel draws a random kernel for the TagBounds checks: tags in
// [-1, boundTags] (so tag boundTags falls outside the bounded range),
// compute-only and zero-work blocks among memory-moving ones, warp counts up
// to maxWarps, and an occupancy override when override is in range.
func boundsKernel(d *Device, seed int64, n, maxWarps, override int) *Kernel {
	rng := rand.New(rand.NewSource(seed))
	blocks := make([]BlockWork, n)
	for i := range blocks {
		b := BlockWork{Warps: 1 + rng.Intn(maxWarps), ActiveFrac: 1, Tag: rng.Intn(boundTags+2) - 1}
		switch rng.Intn(4) {
		case 0: // zero work: only the device's per-block overhead remains
		case 1:
			b.CompCycles = float64(1 + rng.Intn(40000))
		default:
			b.CompCycles = float64(rng.Intn(40000))
			b.DRAMBytes = float64(rng.Intn(1 << 17))
			b.L2Bytes = float64(rng.Intn(1 << 15))
			b.MemRequests = float64(rng.Intn(2000)) // zero exercises the default request size
		}
		blocks[i] = b
	}
	k := &Kernel{Name: "bounds", Resources: KernelResources{ThreadsPerBlock: maxWarps * d.WarpSize}, Blocks: blocks}
	if natural := k.Resources.BlocksPerSM(d); override <= natural {
		k.BlocksPerSMOverride = override
	}
	return k
}

const boundTags = 4

// checkTagBounds steps k to completion on a fresh Simulator, calling
// TagBounds before the first step and after every step. Each bound must be at
// most the tag's final TagTime×(1+1e-12), each pending count must equal the
// tag's blocks less those retired so far, and once the grid drains every
// bound must equal its TagTime exactly with nothing pending.
func checkTagBounds(t *testing.T, d *Device, k *Kernel) {
	t.Helper()
	total := make([]int, boundTags)
	for i := range k.Blocks {
		if tag := k.Blocks[i].Tag; tag >= 0 && tag < boundTags {
			total[tag]++
		}
	}
	sim := NewSimulator()
	if err := sim.Start(d, k); err != nil {
		t.Fatal(err)
	}
	lower := make([]float64, boundTags)
	pending := make([]int, boundTags)
	var history [][]float64
	for more := true; more; {
		sim.TagBounds(lower, pending)
		history = append(history, append([]float64(nil), lower...))
		r := sim.Result()
		for tag := range pending {
			if want := total[tag] - r.TagBlocks[tag]; pending[tag] != want {
				t.Fatalf("step %d tag %d: pending %d, want %d", len(history)-1, tag, pending[tag], want)
			}
		}
		var err error
		if more, err = sim.Step(); err != nil {
			t.Fatal(err)
		}
	}
	r := sim.Result()
	sim.TagBounds(lower, pending)
	for tag := range lower {
		if pending[tag] != 0 || math.Float64bits(lower[tag]) != math.Float64bits(r.TagTime[tag]) {
			t.Fatalf("drained tag %d: bound %v pending %d, want TagTime %v and 0", tag, lower[tag], pending[tag], r.TagTime[tag])
		}
		for step, h := range history {
			if h[tag] > r.TagTime[tag]*(1+1e-12) {
				t.Fatalf("step %d tag %d: bound %v exceeds final TagTime %v", step, tag, h[tag], r.TagTime[tag])
			}
		}
	}
}

// TestTagBoundsSound runs the bound checks over a fixed spread of kernels on
// both devices, with and without occupancy overrides.
func TestTagBoundsSound(t *testing.T) {
	for _, d := range []*Device{V100(), A100()} {
		for seed := int64(0); seed < 24; seed++ {
			n := 1 + int(seed*37)%400
			checkTagBounds(t, d, boundsKernel(d, seed, n, 1+int(seed)%8, int(seed)%4))
		}
	}
}

// FuzzTagBounds checks TagBounds' soundness on random kernels: at every step
// of a run, each tag's bound is at most its final TagTime and its pending
// count is its unretired block count.
func FuzzTagBounds(f *testing.F) {
	f.Add(int64(1), uint16(40), uint8(8), uint8(0), false)
	f.Add(int64(7), uint16(300), uint8(2), uint8(1), true)
	f.Add(int64(42), uint16(1), uint8(1), uint8(3), false)
	f.Fuzz(func(t *testing.T, seed int64, n uint16, maxWarps, override uint8, a100 bool) {
		d := V100()
		if a100 {
			d = A100()
		}
		w := 1 + int(maxWarps)%32
		checkTagBounds(t, d, boundsKernel(d, seed, 1+int(n)%600, w, int(override)%9))
	})
}
