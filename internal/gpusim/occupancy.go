package gpusim

import "fmt"

// KernelResources is the static resource footprint of one kernel, the inputs
// of the CUDA occupancy calculation. RecFlex controls occupancy explicitly by
// adjusting these values (register capping with spill, shared-memory padding).
type KernelResources struct {
	ThreadsPerBlock   int
	RegsPerThread     int
	SharedMemPerBlock int // bytes
}

// WarpsPerBlock returns the number of warp slots one block occupies.
func (r KernelResources) WarpsPerBlock(d *Device) int {
	return (r.ThreadsPerBlock + d.WarpSize - 1) / d.WarpSize
}

// Validate checks the resource footprint against device limits.
func (r KernelResources) Validate(d *Device) error {
	switch {
	case r.ThreadsPerBlock <= 0:
		return fmt.Errorf("gpusim: ThreadsPerBlock must be positive, got %d", r.ThreadsPerBlock)
	case r.ThreadsPerBlock > d.MaxThreadsPerBlock:
		return fmt.Errorf("gpusim: ThreadsPerBlock %d exceeds device limit %d", r.ThreadsPerBlock, d.MaxThreadsPerBlock)
	case r.RegsPerThread < 0 || r.RegsPerThread > d.MaxRegsPerThread:
		return fmt.Errorf("gpusim: RegsPerThread %d outside [0,%d]", r.RegsPerThread, d.MaxRegsPerThread)
	case r.SharedMemPerBlock < 0:
		return fmt.Errorf("gpusim: SharedMemPerBlock must be non-negative, got %d", r.SharedMemPerBlock)
	case r.SharedMemPerBlock > d.SharedMemPerBlock:
		return fmt.Errorf("gpusim: SharedMemPerBlock %d exceeds device limit %d", r.SharedMemPerBlock, d.SharedMemPerBlock)
	case r.RegsPerThread*r.ThreadsPerBlock > d.RegistersPerSM:
		return fmt.Errorf("gpusim: one block needs %d registers, SM has %d", r.RegsPerThread*r.ThreadsPerBlock, d.RegistersPerSM)
	}
	return nil
}

// BlocksPerSM computes the CUDA occupancy in resident blocks per SM: the
// minimum over the warp-slot, block-slot, register-file and shared-memory
// constraints. A zero register or shared-memory usage does not constrain.
func (r KernelResources) BlocksPerSM(d *Device) int {
	warps := r.WarpsPerBlock(d)
	if warps == 0 {
		return 0
	}
	blocks := d.MaxBlocksPerSM
	if byWarps := d.MaxWarpsPerSM / warps; byWarps < blocks {
		blocks = byWarps
	}
	if r.RegsPerThread > 0 {
		perBlock := r.RegsPerThread * r.ThreadsPerBlock
		if byRegs := d.RegistersPerSM / perBlock; byRegs < blocks {
			blocks = byRegs
		}
	}
	if r.SharedMemPerBlock > 0 {
		if bySmem := d.SharedMemPerSM / r.SharedMemPerBlock; bySmem < blocks {
			blocks = bySmem
		}
	}
	return blocks
}

// OccupancyWarps returns the occupancy in active warps per SM, the quantity
// the paper calls O.
func (r KernelResources) OccupancyWarps(d *Device) int {
	return r.BlocksPerSM(d) * r.WarpsPerBlock(d)
}

// OccupancyLevels enumerates the achievable blocks-per-SM values for a kernel
// with the given warps per block on device d, from 1 up to the warp-slot
// bound. These are the K candidate occupancy values of the tuner's local
// stage ("the count is often less than ten" for realistic block sizes).
func OccupancyLevels(d *Device, warpsPerBlock int) []int {
	if warpsPerBlock <= 0 {
		return nil
	}
	maxBlocks := d.MaxWarpsPerSM / warpsPerBlock
	if maxBlocks > d.MaxBlocksPerSM {
		maxBlocks = d.MaxBlocksPerSM
	}
	levels := make([]int, 0, maxBlocks)
	for b := 1; b <= maxBlocks; b++ {
		levels = append(levels, b)
	}
	return levels
}

// ControlOccupancy returns an adjusted resource footprint whose natural
// occupancy equals target blocks per SM, together with the number of
// registers per thread that had to be spilled to reach it (0 when the target
// is reached by shared-memory padding alone).
//
// This mirrors RecFlex's explicit occupancy control: kernels whose natural
// occupancy is above the target get their shared memory padded; kernels whose
// register usage forbids the target get registers capped, with the overflow
// spilled to local (global) memory. The caller is responsible for charging
// the spill traffic to the block work (see SpillBytesPerThread).
func (r KernelResources) ControlOccupancy(d *Device, target int) (KernelResources, int, error) {
	if target <= 0 {
		return r, 0, fmt.Errorf("gpusim: occupancy target must be positive, got %d", target)
	}
	warps := r.WarpsPerBlock(d)
	maxByWarps := d.MaxWarpsPerSM / warps
	if maxByWarps > d.MaxBlocksPerSM {
		maxByWarps = d.MaxBlocksPerSM
	}
	if target > maxByWarps {
		return r, 0, fmt.Errorf("gpusim: occupancy target %d blocks/SM unreachable with %d warps/block (max %d)", target, warps, maxByWarps)
	}
	adjusted := r
	spilled := 0

	// Cap registers so that `target` blocks fit in the register file.
	regBudget := RegisterCap(d, target, r.ThreadsPerBlock)
	if adjusted.RegsPerThread > regBudget {
		spilled = adjusted.RegsPerThread - regBudget
		adjusted.RegsPerThread = regBudget
	}

	// Shared memory must also fit `target` blocks.
	smemBudget := d.SharedMemPerSM / target
	if adjusted.SharedMemPerBlock > smemBudget {
		return r, 0, fmt.Errorf("gpusim: occupancy target %d blocks/SM unreachable: block needs %dB shared memory, budget %dB",
			target, adjusted.SharedMemPerBlock, smemBudget)
	}

	// Pad shared memory to force occupancy *down* to the target if the
	// kernel would naturally run wider.
	if natural := adjusted.BlocksPerSM(d); natural > target {
		pad := d.SharedMemPerSM / target
		if pad > d.SharedMemPerBlock {
			pad = d.SharedMemPerBlock
		}
		if pad > adjusted.SharedMemPerBlock {
			adjusted.SharedMemPerBlock = pad
		}
	}

	if got := adjusted.BlocksPerSM(d); got != target {
		return r, 0, fmt.Errorf("gpusim: occupancy control failed: wanted %d blocks/SM, achieved %d", target, got)
	}
	return adjusted, spilled, nil
}

// RegisterCap is the per-thread register budget ControlOccupancy imposes to
// fit blocksPerSM blocks of threadsPerBlock threads in one SM's register file:
// the file's share per thread, and at least one register.
func RegisterCap(d *Device, blocksPerSM, threadsPerBlock int) int {
	regs := d.RegistersPerSM / (blocksPerSM * threadsPerBlock)
	if regs < 1 {
		regs = 1
	}
	return regs
}

// SpillBytesPerThread converts a per-thread spilled register count into the
// local-memory traffic it induces: each spilled register is stored and
// reloaded spillReuse times over the block lifetime, 4 bytes per access.
// RecFlex's Figure 12 attributes the collapse of schedules 0-20 on features 0
// and 2 to exactly this traffic.
func SpillBytesPerThread(spilledRegs int, spillReuse float64) float64 {
	if spilledRegs <= 0 {
		return 0
	}
	return float64(spilledRegs) * 4 * 2 * spillReuse // store + load per reuse
}

// ChargeSpill adds the local-memory traffic of spilledRegs per-thread spilled
// registers to a block. Each spilled register is reused 4 times over the
// block lifetime (SpillBytesPerThread); the traffic is mostly absorbed by the
// cache hierarchy (80% charged to L2) with a residual DRAM share for capacity
// misses, in 128-byte requests. The fusion compiler and the tuner's local
// stage both charge spill through here, so the two see one spill model.
func ChargeSpill(d *Device, b *BlockWork, spilledRegs int) {
	if spilledRegs <= 0 || b.Warps <= 0 {
		return
	}
	bytes := SpillBytesPerThread(spilledRegs, 4) * float64(b.Warps*d.WarpSize)
	b.L2Bytes += bytes * 0.8
	b.DRAMBytes += bytes * 0.2
	b.MemRequests += bytes / 128
}
