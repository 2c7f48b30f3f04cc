// Package fusion implements RecFlex's heterogeneous schedule fusion compiler:
// it takes one selected schedule per feature and produces a single fused GPU
// kernel in which different block groups run different schedules, mirroring
// the generated CUDA kernel of the paper's Figure 8.
//
// The compiler owns the four mechanisms of §IV-B:
//
//   - Runtime thread mapping: the host analyzes the input workload and builds
//     the d_task_map / d_blocks_map arrays that tell each block which feature
//     it processes and its relative index within that feature's block group.
//     Static mapping variants (average / maximum historical workload) exist
//     for the Figure 13 ablation.
//   - Occupancy control: the fused kernel's register usage can be capped (with
//     the overflow spilled to global memory and charged as DRAM traffic) and
//     its shared memory padded, so the tuner can pin any occupancy value.
//   - Shared-memory union: the fused kernel's shared memory is the maximum
//     over schedules, as the block groups never overlap.
//   - Branch dispatch: per-block if-else dispatch costs a few integer
//     comparisons; the function-pointer alternative the paper measured at
//     45% slower is available as an ablation mode.
package fusion

import (
	"fmt"

	"repro/internal/embedding"
	"repro/internal/gpusim"
	"repro/internal/sched"
)

// FeatureInfo describes one feature field of the model being compiled.
type FeatureInfo struct {
	Name      string
	Dim       int
	TableRows int
	Pool      embedding.PoolMode
}

// MappingMode selects how blocks are assigned to features.
type MappingMode int

const (
	// MapRuntime sizes each feature's block group from the actual input
	// workload at every batch (RecFlex's design).
	MapRuntime MappingMode = iota
	// MapStaticAvg allocates a fixed block count per feature from the
	// average historical workload; excess work folds into the allocated
	// blocks serially (workload imbalance).
	MapStaticAvg
	// MapStaticMax allocates from the maximum historical workload; unused
	// blocks launch and exit idle (resource wastage).
	MapStaticMax
)

// String implements fmt.Stringer.
func (m MappingMode) String() string {
	switch m {
	case MapRuntime:
		return "runtime"
	case MapStaticAvg:
		return "static-avg"
	case MapStaticMax:
		return "static-max"
	default:
		return fmt.Sprintf("MappingMode(%d)", int(m))
	}
}

// DispatchMode selects how the fused kernel routes a block to its schedule.
type DispatchMode int

const (
	// DispatchIfElse inlines every schedule behind block-level branches
	// (the paper's choice: negligible overhead even with thousands of
	// branches).
	DispatchIfElse DispatchMode = iota
	// DispatchFuncPtr jumps through a device function-pointer array, which
	// the paper measured at 45% slower due to call overhead.
	DispatchFuncPtr
)

// funcPtrOverheadFactor is the measured slowdown of function-pointer dispatch.
const funcPtrOverheadFactor = 1.45

// ifElseCyclesPerCompare is the cost of one block-level branch comparison.
const ifElseCyclesPerCompare = 2.0

// Options configures compilation.
type Options struct {
	// TargetBlocksPerSM, when positive, pins the fused kernel's occupancy
	// (explicit occupancy control). Zero lets the natural occupancy stand.
	TargetBlocksPerSM int

	// Mapping selects runtime or static thread mapping.
	Mapping MappingMode

	// StaticBlocks[f] is the per-feature block allocation for the static
	// mapping modes (ignored for MapRuntime).
	StaticBlocks []int

	// Dispatch selects branch or function-pointer dispatch.
	Dispatch DispatchMode
}

// Fused is the compiled fused kernel plus everything needed to execute it
// functionally and to account per-feature time.
type Fused struct {
	Device   *gpusim.Device
	Features []FeatureInfo
	Choices  []sched.Schedule
	Plans    []*sched.Plan
	Kernel   gpusim.Kernel
	Map      TaskMap
	Opts     Options

	// SpilledRegs[f] is the number of per-thread registers feature f's
	// schedule spilled under occupancy control.
	SpilledRegs []int

	// UniqueSchedules is the number of distinct schedules after sharing
	// (features with identical schedule and dimension share code, which
	// shortens the dispatch chain).
	UniqueSchedules int
}

// WorkingSetBytes estimates the bytes the batch touches across all features,
// the grid-level L2 pressure term.
func WorkingSetBytes(features []FeatureInfo, ws []sched.Workload) float64 {
	total := 0.0
	for f := range ws {
		rowBytes := float64(features[f].Dim) * 4
		touched := float64(ws[f].UniqueRows) * rowBytes
		tableBytes := float64(features[f].TableRows) * rowBytes
		if touched > tableBytes {
			touched = tableBytes
		}
		total += touched
	}
	return total
}

// AnalyzeBatch performs the host-side workload analysis of every feature.
// In production this folds into CPU preprocessing; its cost is measured by
// the overhead experiment.
func AnalyzeBatch(features []FeatureInfo, batch *embedding.Batch) ([]sched.Workload, error) {
	if len(features) != len(batch.Features) {
		return nil, fmt.Errorf("fusion: %d features described, batch has %d", len(features), len(batch.Features))
	}
	ws := make([]sched.Workload, len(features))
	for f := range features {
		ws[f] = sched.AnalyzeWorkload(&batch.Features[f], features[f].Dim, features[f].TableRows)
	}
	return ws, nil
}

// Compile builds the fused kernel for one batch under the given per-feature
// schedule choices.
func Compile(dev *gpusim.Device, features []FeatureInfo, choices []sched.Schedule, batch *embedding.Batch, opts Options) (*Fused, error) {
	if len(features) == 0 {
		return nil, fmt.Errorf("fusion: no features")
	}
	if len(choices) != len(features) {
		return nil, fmt.Errorf("fusion: %d choices for %d features", len(choices), len(features))
	}
	if opts.Mapping != MapRuntime && len(opts.StaticBlocks) != len(features) {
		return nil, fmt.Errorf("fusion: %s mapping needs StaticBlocks for all %d features", opts.Mapping, len(features))
	}
	ws, err := AnalyzeBatch(features, batch)
	if err != nil {
		return nil, err
	}

	l2 := sched.L2Context{
		CacheBytes:      float64(dev.L2SizeBytes),
		WorkingSetBytes: WorkingSetBytes(features, ws),
	}

	// Fused kernel resources: the launch geometry is the widest block, the
	// register footprint the hungriest schedule, and the shared memory the
	// union (max) since block groups never coexist within a block.
	res := gpusim.KernelResources{ThreadsPerBlock: 1}
	needRegs := make([]int, len(features))
	for f, s := range choices {
		r := s.Resources(features[f].Dim)
		needRegs[f] = r.RegsPerThread
		if r.ThreadsPerBlock > res.ThreadsPerBlock {
			res.ThreadsPerBlock = r.ThreadsPerBlock
		}
		if r.RegsPerThread > res.RegsPerThread {
			res.RegsPerThread = r.RegsPerThread
		}
		if r.SharedMemPerBlock > res.SharedMemPerBlock {
			res.SharedMemPerBlock = r.SharedMemPerBlock
		}
	}

	// Explicit occupancy control.
	spilled := make([]int, len(features))
	if opts.TargetBlocksPerSM > 0 {
		adj, _, err := res.ControlOccupancy(dev, opts.TargetBlocksPerSM)
		if err != nil {
			return nil, fmt.Errorf("fusion: %w", err)
		}
		for f := range features {
			if needRegs[f] > adj.RegsPerThread {
				spilled[f] = needRegs[f] - adj.RegsPerThread
			}
		}
		res = adj
	}

	// Plan every feature.
	plans := make([]*sched.Plan, len(features))
	for f, s := range choices {
		if !s.Supports(&ws[f]) {
			return nil, fmt.Errorf("fusion: feature %d (%s): schedule %s unsupported", f, features[f].Name, s.Name())
		}
		p, err := s.Plan(&ws[f], dev, l2)
		if err != nil {
			return nil, fmt.Errorf("fusion: feature %d (%s): %w", f, features[f].Name, err)
		}
		plans[f] = p
	}

	unique := countUniqueSchedules(features, choices)

	fused := &Fused{
		Device:          dev,
		Features:        features,
		Choices:         choices,
		Plans:           plans,
		Opts:            opts,
		SpilledRegs:     spilled,
		UniqueSchedules: unique,
	}
	if err := fused.buildTaskMap(); err != nil {
		return nil, err
	}
	fused.buildKernel(res)
	return fused, nil
}

// countUniqueSchedules counts distinct (schedule name, dim) pairs: features
// with identical workload shape share the compiled schedule body.
func countUniqueSchedules(features []FeatureInfo, choices []sched.Schedule) int {
	type key struct {
		name string
		dim  int
	}
	seen := make(map[key]struct{}, len(choices))
	for f, s := range choices {
		seen[key{s.Name(), features[f].Dim}] = struct{}{}
	}
	return len(seen)
}

// buildKernel assembles the gpusim kernel from the task map and plans,
// charging dispatch overhead and spill traffic.
func (fu *Fused) buildKernel(res gpusim.KernelResources) {
	blocks := make([]gpusim.BlockWork, len(fu.Map.Feature))
	// Average dispatch depth: with code sharing the chain has
	// UniqueSchedules branches and a block falls through half on average.
	branchCycles := ifElseCyclesPerCompare * float64(fu.UniqueSchedules) / 2

	for i := range blocks {
		f := int(fu.Map.Feature[i])
		w := fu.Map.blockWork(fu, i)

		// Every block reads its d_task_map / d_blocks_map entries from
		// global memory before dispatching.
		w.DRAMBytes += 32
		w.MemRequests++

		switch fu.Opts.Dispatch {
		case DispatchFuncPtr:
			// The indirect call blocks inlining: instruction overhead per
			// call plus fragmented memory-request batching across the
			// call boundary (the 45% degradation of §IV-B).
			w.CompCycles = w.CompCycles*funcPtrOverheadFactor + 50
			w.MemRequests *= funcPtrOverheadFactor
		default:
			w.CompCycles += branchCycles
		}
		gpusim.ChargeSpill(fu.Device, &w, fu.SpilledRegs[f])
		w.Tag = f
		w.Sub = int(fu.Map.Rel[i])
		blocks[i] = w
	}
	fu.Kernel = gpusim.Kernel{
		Name:                fmt.Sprintf("fused_%s_%d", fu.Opts.Mapping, len(fu.Features)),
		Resources:           res,
		Blocks:              blocks,
		BlocksPerSMOverride: fu.Opts.TargetBlocksPerSM,
	}
}

// Simulate runs the fused kernel on the device.
func (fu *Fused) Simulate() (*gpusim.SimResult, error) {
	return gpusim.Simulate(fu.Device, &fu.Kernel)
}
