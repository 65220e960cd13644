// Package perfmodel provides the performance model that substitutes for the
// paper's physical hardware (GeForce GTX TITAN X + Intel Core i7-6700, see
// DESIGN.md §2). It converts the exact operation and memory-traffic counts
// produced by the cudasim functional simulator into wall-clock estimates,
// and models the PCIe transfers of the paper's Table IV (H2G/G2H columns).
//
// Calibration notes (documented, not hidden): the paper's per-cell bitwise
// operation counts exceed the instructions a Maxwell GPU actually issues,
// because LOP3.LUT fuses arbitrary three-input boolean functions into one
// instruction. The model therefore applies a logic-fusion factor to ALU op
// counts. With the factor below, the model lands within ~15% of every GPU
// cell of the paper's Table IV; see EXPERIMENTS.md for the side-by-side.
package perfmodel

import (
	"fmt"
	"time"
)

// DeviceSpec describes a GPU for the timing model.
type DeviceSpec struct {
	Name       string
	SMs        int
	CoresPerSM int
	ClockHz    float64
	WarpSize   int
	// IPC is sustained simple-ALU instructions per core per cycle.
	IPC float64
	// LogicFusion is the average number of issued instructions per counted
	// bitwise operation (< 1 because LOP3 fuses 2-3 logic ops into one).
	LogicFusion float64
	// GlobalBandwidth is sustained DRAM bandwidth in bytes/second.
	GlobalBandwidth float64
	// SharedBytesPerCycle is shared-memory bandwidth per SM per cycle.
	SharedBytesPerCycle float64
	// KernelLaunchOverhead is charged once per kernel launch.
	KernelLaunchOverhead time.Duration
	// MaxThreadsPerSM bounds occupancy.
	MaxThreadsPerSM int
	// RegistersPerSM bounds occupancy by register pressure.
	RegistersPerSM int
	// ThreadsForPeak is the resident-thread count per SM needed to fully
	// hide ALU latency; below it, sustained issue rate degrades linearly.
	ThreadsForPeak int
}

// Cores returns the total core count.
func (d DeviceSpec) Cores() int { return d.SMs * d.CoresPerSM }

// InstrRate returns sustained instructions per second across the device.
func (d DeviceSpec) InstrRate() float64 {
	return float64(d.Cores()) * d.ClockHz * d.IPC
}

// TitanX models the paper's GPU using the figures the paper itself states
// (28 SMs × 128 cores) plus public TITAN X parameters.
var TitanX = DeviceSpec{
	Name:                 "GeForce GTX TITAN X (as described in the paper)",
	SMs:                  28,
	CoresPerSM:           128,
	ClockHz:              1.0e9,
	WarpSize:             32,
	IPC:                  1.0,
	LogicFusion:          0.42, // LOP3.LUT fusion of 3-input boolean ops
	GlobalBandwidth:      300e9,
	SharedBytesPerCycle:  128,
	KernelLaunchOverhead: 8 * time.Microsecond,
	MaxThreadsPerSM:      2048,
	RegistersPerSM:       65536,
	ThreadsForPeak:       1024,
}

// PCIeLink models the host-device interconnect.
type PCIeLink struct {
	Latency   time.Duration
	Bandwidth float64 // bytes/second
}

// PaperPCIe reproduces the effective transfer rate implied by the paper's
// H2G column (≈37.7 MB in 5.51 ms at n=1024 ⇒ ≈6.9 GB/s, PCIe gen3 x16).
var PaperPCIe = PCIeLink{Latency: 12 * time.Microsecond, Bandwidth: 6.9e9}

// Transfer returns the modelled time to move n bytes across the link.
func (l PCIeLink) Transfer(bytes int64) time.Duration {
	if bytes < 0 {
		panic("perfmodel: negative transfer size")
	}
	return l.Latency + time.Duration(float64(bytes)/l.Bandwidth*float64(time.Second))
}

// KernelCost aggregates the work one kernel launch performs, as counted by
// the functional simulator (exact, per DESIGN.md the counts are measured on
// a representative block and scaled by the block count, which is exact for
// data-independent kernels like these).
type KernelCost struct {
	// ALUOps is the total bitwise/arithmetic operation count across all
	// threads.
	ALUOps int64
	// FuseLogic marks kernels whose ALU stream is long chains of 2-input
	// boolean operations, which the hardware's LOP3.LUT compresses by the
	// device's LogicFusion factor. Integer-arithmetic kernels (the
	// wordwise baseline) leave it false.
	FuseLogic bool
	// GlobalBytes is total DRAM traffic (reads + writes, after coalescing).
	GlobalBytes int64
	// SharedBytes is total shared-memory traffic including bank-conflict
	// replays.
	SharedBytes int64
	// Blocks and ThreadsPerBlock describe the launch shape.
	Blocks          int
	ThreadsPerBlock int
	// RegsPerThread is the kernel's register footprint in 32-bit registers
	// (0 = negligible). High footprints reduce resident threads per SM and
	// with them the latency hiding the issue pipelines depend on — the
	// mechanism behind the paper's 64-bit GPU penalty (Table IV).
	RegsPerThread int
}

// Time converts the cost to a wall-clock estimate on the device: the kernel
// is limited by whichever of ALU throughput, DRAM bandwidth, or shared
// bandwidth binds, with a launch overhead and an occupancy-derived tail
// correction when there are too few blocks to fill the machine.
func (c KernelCost) Time(d DeviceSpec) time.Duration {
	if c.Blocks == 0 || c.ThreadsPerBlock == 0 {
		return 0
	}
	instr := float64(c.ALUOps)
	if c.FuseLogic {
		instr *= d.LogicFusion
	}

	// Occupancy: how many cores the launch can actually keep busy. A block
	// occupies min(threads, available) lanes; resident blocks per SM are
	// bounded by the thread limit and by register pressure.
	threadLimit := d.MaxThreadsPerSM
	if c.RegsPerThread > 0 && d.RegistersPerSM > 0 {
		threadLimit = min(threadLimit, d.RegistersPerSM/c.RegsPerThread)
	}
	blocksPerSM := threadLimit / c.ThreadsPerBlock
	if blocksPerSM < 1 {
		blocksPerSM = 1
	}
	resident := min(c.Blocks, d.SMs*blocksPerSM)
	activeThreads := resident * c.ThreadsPerBlock
	effCores := min(activeThreads, d.Cores())
	if effCores < 1 {
		effCores = 1
	}
	// Latency hiding: when register pressure caps resident threads per SM
	// below what the issue pipelines need, dependent instructions stall.
	issue := 1.0
	if d.ThreadsForPeak > 0 {
		if perSM := blocksPerSM * c.ThreadsPerBlock; perSM < d.ThreadsForPeak {
			issue = float64(perSM) / float64(d.ThreadsForPeak)
		}
	}
	alu := instr / (float64(effCores) * d.ClockHz * d.IPC * issue)

	mem := float64(c.GlobalBytes) / d.GlobalBandwidth
	// Shared bandwidth scales with the SMs actually hosting blocks.
	activeSMs := min(d.SMs, resident)
	shared := float64(c.SharedBytes) / (float64(activeSMs) * d.SharedBytesPerCycle * d.ClockHz)
	t := max(alu, mem, shared)
	return d.KernelLaunchOverhead + time.Duration(t*float64(time.Second))
}

// CPUSpec models the sequential baseline processor. The CPU columns of our
// Table IV are measured (real Go code, real wall clock); CPUSpec exists to
// rescale measurements taken at a reduced workload up to the paper's
// workload (time is linear in the pair count) and to sanity-check them.
type CPUSpec struct {
	Name    string
	ClockHz float64
}

// PaperCPU is the paper's Intel Core i7-6700.
var PaperCPU = CPUSpec{Name: "Intel Core i7-6700", ClockHz: 3.6e9}

// GCUPS returns billions of cell updates per second for a workload of
// `pairs` alignments of an m×n matrix completed in t.
func GCUPS(pairs, m, n int, t time.Duration) float64 {
	if t <= 0 {
		return 0
	}
	cells := float64(pairs) * float64(m) * float64(n)
	return cells / t.Seconds() / 1e9
}

// Scale linearly rescales a measured duration from `measured` pairs to
// `target` pairs. It panics on a non-positive measured count, which would
// silently produce zero estimates.
func Scale(t time.Duration, measured, target int) time.Duration {
	if measured <= 0 {
		panic(fmt.Sprintf("perfmodel: Scale with measured=%d", measured))
	}
	return time.Duration(float64(t) * float64(target) / float64(measured))
}
