package gpusim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBlocksPerSMWarpSlotBound(t *testing.T) {
	d := V100()
	r := KernelResources{ThreadsPerBlock: 256} // 8 warps, no reg/smem pressure
	if got := r.BlocksPerSM(d); got != 8 {
		t.Errorf("BlocksPerSM = %d, want 8 (64 warp slots / 8 warps)", got)
	}
	if got := r.OccupancyWarps(d); got != 64 {
		t.Errorf("OccupancyWarps = %d, want 64", got)
	}
}

func TestBlocksPerSMRegisterBound(t *testing.T) {
	d := V100()
	// 256 threads * 64 regs = 16384 regs per block; 65536/16384 = 4 blocks.
	r := KernelResources{ThreadsPerBlock: 256, RegsPerThread: 64}
	if got := r.BlocksPerSM(d); got != 4 {
		t.Errorf("BlocksPerSM = %d, want 4 (register bound)", got)
	}
}

func TestBlocksPerSMSharedMemBound(t *testing.T) {
	d := V100()
	// 48KB smem per block; 96KB per SM -> 2 blocks.
	r := KernelResources{ThreadsPerBlock: 128, SharedMemPerBlock: 48 * 1024}
	if got := r.BlocksPerSM(d); got != 2 {
		t.Errorf("BlocksPerSM = %d, want 2 (shared memory bound)", got)
	}
}

func TestBlocksPerSMBlockSlotBound(t *testing.T) {
	d := V100()
	r := KernelResources{ThreadsPerBlock: 32} // 1 warp: 64 by warps but 32 block slots
	if got := r.BlocksPerSM(d); got != 32 {
		t.Errorf("BlocksPerSM = %d, want 32 (block slot bound)", got)
	}
}

// Property: granting more per-thread registers can only lower (never raise)
// occupancy, and shrinking shared memory can only raise it.
func TestOccupancyMonotonicProperty(t *testing.T) {
	d := V100()
	f := func(threadsRaw, regsRaw, smemRaw uint16) bool {
		threads := 32 * (1 + int(threadsRaw)%32) // 32..1024
		regs := int(regsRaw) % 129               // 0..128
		smem := (int(smemRaw) % 97) * 1024       // 0..96KB
		r := KernelResources{ThreadsPerBlock: threads, RegsPerThread: regs, SharedMemPerBlock: smem}
		base := r.BlocksPerSM(d)
		moreRegs := r
		moreRegs.RegsPerThread = regs + 16
		if moreRegs.RegsPerThread*threads <= d.RegistersPerSM && moreRegs.BlocksPerSM(d) > base {
			return false
		}
		lessSmem := r
		lessSmem.SharedMemPerBlock = smem / 2
		return lessSmem.BlocksPerSM(d) >= base
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestOccupancyLevels(t *testing.T) {
	d := V100()
	levels := OccupancyLevels(d, 8) // 256-thread blocks
	if len(levels) != 8 {
		t.Fatalf("len(levels) = %d, want 8", len(levels))
	}
	for i, l := range levels {
		if l != i+1 {
			t.Errorf("levels[%d] = %d, want %d", i, l, i+1)
		}
	}
	if got := OccupancyLevels(d, 0); got != nil {
		t.Errorf("OccupancyLevels(0 warps) = %v, want nil", got)
	}
	// 1-warp blocks: limited by MaxBlocksPerSM=32, not 64 warp slots.
	if got := len(OccupancyLevels(d, 1)); got != 32 {
		t.Errorf("len(OccupancyLevels(1 warp)) = %d, want 32", got)
	}
}

func TestControlOccupancyReachesTargetExactly(t *testing.T) {
	d := V100()
	r := KernelResources{ThreadsPerBlock: 256, RegsPerThread: 32, SharedMemPerBlock: 1024}
	for _, target := range OccupancyLevels(d, r.WarpsPerBlock(d)) {
		adj, spilled, err := r.ControlOccupancy(d, target)
		if err != nil {
			t.Fatalf("target %d: %v", target, err)
		}
		if got := adj.BlocksPerSM(d); got != target {
			t.Errorf("target %d: achieved %d", target, got)
		}
		if spilled < 0 {
			t.Errorf("target %d: negative spill %d", target, spilled)
		}
	}
}

func TestControlOccupancySpillsWhenRegisterHungry(t *testing.T) {
	d := V100()
	// 128 regs/thread * 256 threads = 32768 regs/block: naturally 2 blocks/SM.
	r := KernelResources{ThreadsPerBlock: 256, RegsPerThread: 128}
	adj, spilled, err := r.ControlOccupancy(d, 8)
	if err != nil {
		t.Fatal(err)
	}
	if adj.BlocksPerSM(d) != 8 {
		t.Errorf("achieved %d blocks/SM, want 8", adj.BlocksPerSM(d))
	}
	// Budget at 8 blocks is 65536/(8*256)=32 regs; 96 must spill.
	if spilled != 96 {
		t.Errorf("spilled = %d, want 96", spilled)
	}
	if adj.RegsPerThread != 32 {
		t.Errorf("capped regs = %d, want 32", adj.RegsPerThread)
	}
}

func TestControlOccupancyPadsSharedMemory(t *testing.T) {
	d := V100()
	r := KernelResources{ThreadsPerBlock: 256, RegsPerThread: 16}
	adj, spilled, err := r.ControlOccupancy(d, 2) // throttle 8 -> 2
	if err != nil {
		t.Fatal(err)
	}
	if spilled != 0 {
		t.Errorf("spilled = %d, want 0", spilled)
	}
	if adj.BlocksPerSM(d) != 2 {
		t.Errorf("achieved %d blocks/SM, want 2", adj.BlocksPerSM(d))
	}
	if adj.SharedMemPerBlock <= r.SharedMemPerBlock {
		t.Error("expected shared-memory padding to grow the footprint")
	}
}

func TestControlOccupancyRejectsUnreachableTargets(t *testing.T) {
	d := V100()
	r := KernelResources{ThreadsPerBlock: 256}
	if _, _, err := r.ControlOccupancy(d, 9); err == nil {
		t.Error("target above warp-slot bound should fail")
	}
	if _, _, err := r.ControlOccupancy(d, 0); err == nil {
		t.Error("zero target should fail")
	}
	big := KernelResources{ThreadsPerBlock: 128, SharedMemPerBlock: 96 * 1024}
	if _, _, err := big.ControlOccupancy(d, 2); err == nil {
		t.Error("shared-memory-impossible target should fail")
	}
}

// Property: ControlOccupancy either errors or achieves exactly the target.
func TestControlOccupancyExactProperty(t *testing.T) {
	d := V100()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		r := KernelResources{
			ThreadsPerBlock:   32 * (1 + rng.Intn(32)),
			RegsPerThread:     rng.Intn(129),
			SharedMemPerBlock: rng.Intn(96) * 1024,
		}
		target := 1 + rng.Intn(32)
		adj, _, err := r.ControlOccupancy(d, target)
		if err != nil {
			continue
		}
		if got := adj.BlocksPerSM(d); got != target {
			t.Fatalf("case %d: resources %+v target %d achieved %d", i, r, target, got)
		}
	}
}

func TestSpillBytesPerThread(t *testing.T) {
	if got := SpillBytesPerThread(0, 3); got != 0 {
		t.Errorf("no spill should cost 0 bytes, got %g", got)
	}
	if got := SpillBytesPerThread(-5, 3); got != 0 {
		t.Errorf("negative spill should cost 0 bytes, got %g", got)
	}
	// 10 regs * 4 bytes * 2 (st+ld) * reuse 3 = 240.
	if got := SpillBytesPerThread(10, 3); got != 240 {
		t.Errorf("SpillBytesPerThread(10,3) = %g, want 240", got)
	}
}

func TestChargeSpill(t *testing.T) {
	d := V100()
	b := BlockWork{Warps: 2, L2Bytes: 1, DRAMBytes: 1, MemRequests: 1}
	ChargeSpill(d, &b, 10)
	// 10 regs * 4 bytes * 2 (st+ld) * reuse 4 = 320 bytes for each of 64 threads.
	bytes := 320.0 * 64
	if b.L2Bytes != 1+bytes*0.8 || b.DRAMBytes != 1+bytes*0.2 || b.MemRequests != 1+bytes/128 {
		t.Errorf("charged %+v, want %g B split 80/20 over L2/DRAM in 128 B requests", b, bytes)
	}
	for _, c := range []struct {
		warps, regs int
	}{{0, 10}, {2, 0}} {
		b := BlockWork{Warps: c.warps}
		ChargeSpill(d, &b, c.regs)
		if b != (BlockWork{Warps: c.warps}) {
			t.Errorf("warps %d, spilled %d: charged %+v, want nothing", c.warps, c.regs, b)
		}
	}
}

func TestKernelResourcesValidate(t *testing.T) {
	d := V100()
	good := KernelResources{ThreadsPerBlock: 256, RegsPerThread: 32, SharedMemPerBlock: 2048}
	if err := good.Validate(d); err != nil {
		t.Errorf("valid resources rejected: %v", err)
	}
	bad := []KernelResources{
		{ThreadsPerBlock: 0},
		{ThreadsPerBlock: 2048},
		{ThreadsPerBlock: 256, RegsPerThread: 300},
		{ThreadsPerBlock: 256, SharedMemPerBlock: -1},
		{ThreadsPerBlock: 256, SharedMemPerBlock: 1 << 20},
		{ThreadsPerBlock: 1024, RegsPerThread: 255},
	}
	for i, r := range bad {
		if err := r.Validate(d); err == nil {
			t.Errorf("case %d: invalid resources %+v accepted", i, r)
		}
	}
}
