package gpusim

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"testing"
)

// goldenPath pins the simulator's exact float64 outputs. The file was
// generated from the pre-optimization event loop; the optimized loop must
// reproduce it bit for bit (same retirement order, same float operation
// order), so any rewrite of the hot path is provably behavior-preserving.
// Regenerate deliberately with:
//
//	REGEN_SIM_GOLDENS=1 go test ./internal/gpusim -run TestSimulateMatchesGoldens
const goldenPath = "testdata/golden_sim.json"

// goldenKernels returns the deterministic scenarios the golden file covers:
// a wide launch that never backfills, a saturated grid that spends the whole
// run in the retire/backfill regime (the loop the aliasing fix rewrote), and
// a mixed grid with compute-only blocks, padding tags and uneven warp counts.
func goldenKernels() []*Kernel {
	wide := make([]BlockWork, 200)
	for i := range wide {
		wide[i] = BlockWork{
			CompCycles: 15000 + float64(i%9)*2500, DRAMBytes: float64(48<<10) + float64(i%4)*4096,
			L2Bytes: 12 << 10, MemRequests: 512, Warps: 8, ActiveFrac: 1, Tag: i % 8,
		}
	}
	saturated := make([]BlockWork, 320)
	for i := range saturated {
		saturated[i] = BlockWork{
			CompCycles: 10000 + float64(i%7)*3000, DRAMBytes: float64(32<<10) + float64(i%5)*8192,
			L2Bytes: 8 << 10, MemRequests: 320, Warps: 8, ActiveFrac: 1, Tag: i % 16,
		}
	}
	mixed := make([]BlockWork, 300)
	for i := range mixed {
		b := BlockWork{
			CompCycles: 8000 + float64(i%11)*1500, Warps: 4 + i%5,
			ActiveFrac: 0.75 + 0.25*float64(i%2), PredOffFrac: 0.1, Tag: i%6 - 1,
		}
		if i%3 != 0 { // two thirds move memory, one third is compute-only
			b.DRAMBytes = float64(16<<10) + float64(i%3)*8192
			b.L2Bytes = 4 << 10
			b.MemRequests = 128
		}
		mixed[i] = b
	}
	return []*Kernel{
		{Name: "wide", Resources: KernelResources{ThreadsPerBlock: 256}, Blocks: wide},
		{Name: "saturated", Resources: KernelResources{ThreadsPerBlock: 256, SharedMemPerBlock: 96 * 1024}, Blocks: saturated},
		{Name: "mixed", Resources: KernelResources{ThreadsPerBlock: 256, SharedMemPerBlock: 96 * 1024}, Blocks: mixed},
	}
}

// goldenSim stores floats as hex-float strings ("%x"), which round-trip
// float64 values exactly.
type goldenSim struct {
	Name       string            `json:"name"`
	Time       string            `json:"time"`
	BlockTime  []string          `json:"blockTime"`
	BlockStart []string          `json:"blockStart"`
	BlockSM    []int32           `json:"blockSM"`
	TagTime    map[string]string `json:"tagTime"`
	TagBlocks  map[string]int    `json:"tagBlocks"`
}

func hexFloat(v float64) string { return fmt.Sprintf("%x", v) }

func parseHexFloat(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("golden float %q: %v", s, err)
	}
	return v
}

func encodeGolden(name string, r *SimResult) goldenSim {
	g := goldenSim{
		Name:       name,
		Time:       hexFloat(r.Time),
		BlockTime:  make([]string, len(r.BlockTime)),
		BlockStart: make([]string, len(r.BlockStart)),
		BlockSM:    append([]int32(nil), r.BlockSM...),
		TagTime:    make(map[string]string, len(r.TagTime)),
		TagBlocks:  make(map[string]int, len(r.TagBlocks)),
	}
	for i, v := range r.BlockTime {
		g.BlockTime[i] = hexFloat(v)
	}
	for i, v := range r.BlockStart {
		g.BlockStart[i] = hexFloat(v)
	}
	for tag, v := range r.TagTime {
		g.TagTime[strconv.Itoa(tag)] = hexFloat(v)
	}
	for tag, n := range r.TagBlocks {
		g.TagBlocks[strconv.Itoa(tag)] = n
	}
	return g
}

func checkGolden(t *testing.T, label string, g *goldenSim, r *SimResult) {
	t.Helper()
	if want := parseHexFloat(t, g.Time); r.Time != want {
		t.Errorf("%s: Time = %x, want %x", label, r.Time, want)
	}
	if len(r.BlockTime) != len(g.BlockTime) {
		t.Fatalf("%s: %d block times, want %d", label, len(r.BlockTime), len(g.BlockTime))
	}
	for i := range g.BlockTime {
		if want := parseHexFloat(t, g.BlockTime[i]); r.BlockTime[i] != want {
			t.Fatalf("%s: BlockTime[%d] = %x, want %x", label, i, r.BlockTime[i], want)
		}
		if want := parseHexFloat(t, g.BlockStart[i]); r.BlockStart[i] != want {
			t.Fatalf("%s: BlockStart[%d] = %x, want %x", label, i, r.BlockStart[i], want)
		}
		if r.BlockSM[i] != g.BlockSM[i] {
			t.Fatalf("%s: BlockSM[%d] = %d, want %d", label, i, r.BlockSM[i], g.BlockSM[i])
		}
	}
	if len(r.TagTime) != len(g.TagTime) {
		t.Fatalf("%s: %d tags, want %d", label, len(r.TagTime), len(g.TagTime))
	}
	for tag, v := range r.TagTime {
		key := strconv.Itoa(tag)
		ws, ok := g.TagTime[key]
		if !ok {
			t.Fatalf("%s: unexpected tag %d", label, tag)
		}
		if want := parseHexFloat(t, ws); v != want {
			t.Errorf("%s: TagTime[%d] = %x, want %x", label, tag, v, want)
		}
		if r.TagBlocks[tag] != g.TagBlocks[key] {
			t.Errorf("%s: TagBlocks[%d] = %d, want %d", label, tag, r.TagBlocks[tag], g.TagBlocks[key])
		}
	}
}

// TestSimulateMatchesGoldens pins Simulate's exact outputs — block residency
// times, dispatch times, SM assignments and per-tag sums — against goldens
// captured before the event-loop optimization. Exact float equality, not
// tolerance: the optimized retire/backfill loop must preserve processing
// order and float operation order.
func TestSimulateMatchesGoldens(t *testing.T) {
	d := V100()
	kernels := goldenKernels()

	if os.Getenv("REGEN_SIM_GOLDENS") != "" {
		var out []goldenSim
		for _, k := range kernels {
			r, err := Simulate(d, k)
			if err != nil {
				t.Fatalf("%s: %v", k.Name, err)
			}
			out = append(out, encodeGolden(k.Name, r))
		}
		sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
		buf, err := json.MarshalIndent(out, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s (%d cases)", goldenPath, len(out))
		return
	}

	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read goldens (REGEN_SIM_GOLDENS=1 to generate): %v", err)
	}
	var goldens []goldenSim
	if err := json.Unmarshal(raw, &goldens); err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]*goldenSim, len(goldens))
	for i := range goldens {
		byName[goldens[i].Name] = &goldens[i]
	}
	for _, k := range kernels {
		g := byName[k.Name]
		if g == nil {
			t.Fatalf("no golden for %q", k.Name)
		}
		r, err := Simulate(d, k)
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		checkGolden(t, k.Name+"/Simulate", g, r)
	}

	// One reused Simulator across all cases, each case run twice back to
	// back: warm scratch from a previous (and differently shaped) kernel
	// must not leak into the next result.
	sim := NewSimulator()
	for pass := 0; pass < 2; pass++ {
		for _, k := range kernels {
			r, err := sim.Run(d, k)
			if err != nil {
				t.Fatalf("%s: %v", k.Name, err)
			}
			checkGolden(t, fmt.Sprintf("%s/Run-pass%d", k.Name, pass), byName[k.Name], r)
		}
	}

	// NaN guard on the helper itself.
	if hexFloat(math.Pi) != fmt.Sprintf("%x", math.Pi) {
		t.Fatal("hexFloat drifted")
	}
}

// TestSimulatorRunSteadyStateAllocFree pins the tentpole's allocation claim:
// after a warm-up run, re-running a kernel on a reused Simulator allocates
// nothing — including the saturated grid whose retire/backfill loop used to
// reallocate the resident array on every backfilled dispatch. The same holds
// for a stepped run that asks for tag bounds between steps.
func TestSimulatorRunSteadyStateAllocFree(t *testing.T) {
	d := V100()
	lower := make([]float64, 16)
	pending := make([]int, 16)
	stepped := func(sim *Simulator, k *Kernel) {
		if err := sim.Start(d, k); err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		for more := true; more; {
			sim.TagBounds(lower, pending)
			var err error
			if more, err = sim.Step(); err != nil {
				t.Fatalf("%s: %v", k.Name, err)
			}
		}
	}
	for _, k := range goldenKernels() {
		sim := NewSimulator()
		if _, err := sim.Run(d, k); err != nil {
			t.Fatalf("%s: warm-up: %v", k.Name, err)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := sim.Run(d, k); err != nil {
				t.Fatalf("%s: %v", k.Name, err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: steady-state Run allocates %.1f objects/run, want 0", k.Name, allocs)
		}
		stepped(sim, k)
		allocs = testing.AllocsPerRun(10, func() { stepped(sim, k) })
		if allocs != 0 {
			t.Errorf("%s: steady-state Start/Step/TagBounds loop allocates %.1f objects/run, want 0", k.Name, allocs)
		}
	}
}
