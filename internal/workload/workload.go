// Package workload defines the benchmarks of the UGPU evaluation (Table 2
// plus the Tango AI workloads) as synthetic kernel behaviour generators, and
// constructs the multi-program mixes of Section 5.
//
// The paper drives GPGPU-sim with CUDA traces; those are not reproducible
// offline, so each benchmark is modelled by per-kernel parameters — memory
// instruction fraction, streaming stride, hot-set locality, divergence and
// memory-level parallelism — chosen so the simulated LLC accesses per kilo
// instruction (APKI) and memory-bandwidth demand land in the same class
// (compute- vs memory-bound) and ordering as Table 2. Classification drives
// every result in the paper; absolute MPKI values only need to preserve the
// ordering.
//
// # Seeding contract
//
// The package holds no global RNG state, so concurrent simulations (the
// internal/parallel sweep fan-out) never share randomness:
//
//   - Mix generation is either fully deterministic (HeterogeneousPairs,
//     HomogeneousPairs, AIMixes enumerate in sorted order) or seeded
//     explicitly: FourProgramMixes/EightProgramMixes take a seed int64 and
//     build a private rand.Rand from it. Equal seeds produce equal mixes.
//   - Address streams never consult math/rand at all: each WarpStream owns
//     an xorshift64 state derived from the seed passed to NewWarpStream /
//     InitWarpStream. The sm package derives that seed deterministically
//     from (App.SeedBase, SM id, kernel launch, TB index, warp index), so a
//     simulation's entire address trace is a pure function of its
//     construction arguments.
//
// Never use package-level rand functions (rand.Intn etc.) here: they share
// a process-global source, which would make parallel sweep output depend on
// worker interleaving.
package workload

import (
	"fmt"
	"math/rand"
	"sort"
)

// Class is the paper's bandwidth-demand classification.
type Class int

const (
	// ComputeBound applications have bandwidth demand below supply.
	ComputeBound Class = iota
	// MemoryBound applications saturate their memory channels.
	MemoryBound
)

func (c Class) String() string {
	if c == ComputeBound {
		return "compute-bound"
	}
	return "memory-bound"
}

// Kernel describes one synthetic kernel's behaviour.
type Kernel struct {
	// MemFraction is the probability an issued warp instruction is a load.
	MemFraction float64
	// StrideBytes is the streaming-access stride; strides below the line
	// size create spatial L1 hits.
	StrideBytes uint64
	// HotProb is the probability a load targets the hot set instead of the
	// streaming cursor.
	HotProb float64
	// HotPages is the unscaled hot-set size in pages.
	HotPages uint64
	// InstrPerWarp is the warp instruction budget per thread block.
	InstrPerWarp int
	// TBs is the number of thread blocks per kernel launch.
	TBs int
	// Divergence is the number of distinct cache lines touched per memory
	// instruction (1 = fully coalesced).
	Divergence int
	// MaxOutstanding is the per-warp load MLP before the warp stalls.
	MaxOutstanding int
}

// Benchmark is one application of Table 2 (or an AI workload).
type Benchmark struct {
	Name        string
	Abbr        string
	Class       Class
	TableMPKI   float64 // Table 2's reported MPKI, for reference/reporting
	TableKnls   int     // Table 2's kernel count
	FootprintMB int     // Table 2's memory footprint
	Kernels     []Kernel
}

func (b Benchmark) String() string { return b.Abbr }

// kernelDefaults fills the common fields of a kernel spec.
func kern(memFrac float64, stride uint64, hotProb float64, hotPages uint64, div int) Kernel {
	return Kernel{
		MemFraction:    memFrac,
		StrideBytes:    stride,
		HotProb:        hotProb,
		HotPages:       hotPages,
		InstrPerWarp:   20000,
		TBs:            512,
		Divergence:     div,
		MaxOutstanding: 6,
	}
}

// memKern is a strongly memory-bound kernel: loads stream at line stride,
// the hot set exceeds the L1 but partially fits the LLC. Memory-bound
// kernels get deep per-warp MLP so they saturate bandwidth rather than
// stall on latency.
func memKern(memFrac, hotProb float64, hotPages uint64, div int) Kernel {
	k := kern(memFrac, 128, hotProb, hotPages, div)
	k.MaxOutstanding = 12
	return k
}

// cmpKern is a compute-bound kernel: few loads, sub-line strides, and a hot
// set that fits in the L1.
func cmpKern(memFrac float64, stride uint64, hotProb float64) Kernel {
	return kern(memFrac, stride, hotProb, 8, 1)
}

// cmpKernLLC is a compute-bound kernel whose hot set exceeds the L1 but
// fits comfortably in an isolated LLC share, with shallow memory-level
// parallelism (dependent loads): it keeps low bandwidth demand under
// isolation but is latency- and LLC-thrash-sensitive when memory resources
// are shared (the MPS contention of Section 6.7).
func cmpKernLLC(memFrac float64, hotProb float64, hotPages uint64) Kernel {
	k := kern(memFrac, 64, hotProb, hotPages, 1)
	k.MaxOutstanding = 2
	return k
}

// Table2 returns the 15 GPU-compute benchmarks of the paper's Table 2.
// Classification follows the paper's memory-bandwidth-demand criterion: the
// seven high-MPKI benchmarks are memory-bound, the rest compute-bound.
func Table2() []Benchmark {
	return []Benchmark{
		{Name: "Page View Count", Abbr: "PVC", Class: MemoryBound, TableMPKI: 4.79, TableKnls: 1, FootprintMB: 3810,
			Kernels: []Kernel{memKern(0.100, 0.20, 2048, 1)}},
		{Name: "Lattice-Boltzmann Method", Abbr: "LBM", Class: MemoryBound, TableMPKI: 6.09, TableKnls: 3, FootprintMB: 389,
			Kernels: []Kernel{memKern(0.130, 0.18, 2048, 1), memKern(0.110, 0.20, 1536, 1), memKern(0.140, 0.15, 2048, 1)}},
		{Name: "BlackScholes", Abbr: "BH", Class: ComputeBound, TableMPKI: 1.54, TableKnls: 14, FootprintMB: 48,
			Kernels: []Kernel{cmpKernLLC(0.045, 0.80, 256), cmpKernLLC(0.040, 0.82, 256)}},
		{Name: "DWT2D", Abbr: "DWT2D", Class: MemoryBound, TableMPKI: 2.72, TableKnls: 1, FootprintMB: 301,
			Kernels: []Kernel{memKern(0.075, 0.15, 2048, 1)}},
		{Name: "EULER3D", Abbr: "EULER3D", Class: MemoryBound, TableMPKI: 4.39, TableKnls: 7, FootprintMB: 286,
			Kernels: []Kernel{memKern(0.050, 0.20, 1536, 2), memKern(0.090, 0.22, 2048, 1), memKern(0.055, 0.20, 1536, 2)}},
		{Name: "FastWalshTransform", Abbr: "FWT", Class: MemoryBound, TableMPKI: 2.23, TableKnls: 4, FootprintMB: 269,
			Kernels: []Kernel{memKern(0.065, 0.15, 2048, 1), memKern(0.058, 0.16, 2048, 1)}},
		{Name: "Lavamd", Abbr: "LAVAMD", Class: MemoryBound, TableMPKI: 10.45, TableKnls: 1, FootprintMB: 123,
			Kernels: []Kernel{memKern(0.085, 0.10, 1024, 2)}},
		{Name: "Streamcluster", Abbr: "SC", Class: MemoryBound, TableMPKI: 3.42, TableKnls: 2, FootprintMB: 302,
			Kernels: []Kernel{memKern(0.080, 0.14, 2048, 1), memKern(0.072, 0.16, 2048, 1)}},
		{Name: "Convolution Separable", Abbr: "CONVS", Class: ComputeBound, TableMPKI: 1.14, TableKnls: 4, FootprintMB: 151,
			Kernels: []Kernel{cmpKernLLC(0.035, 0.80, 192), cmpKernLLC(0.030, 0.82, 192)}},
		{Name: "Srad_v2", Abbr: "SRAD", Class: ComputeBound, TableMPKI: 1.09, TableKnls: 1, FootprintMB: 1048,
			Kernels: []Kernel{cmpKernLLC(0.032, 0.80, 256)}},
		{Name: "DXTC", Abbr: "DXTC", Class: ComputeBound, TableMPKI: 0.0004, TableKnls: 2, FootprintMB: 20,
			Kernels: []Kernel{cmpKern(0.0020, 32, 0.995), cmpKern(0.0015, 32, 0.995)}},
		{Name: "HOTSPOT", Abbr: "HOTSPOT", Class: ComputeBound, TableMPKI: 0.08, TableKnls: 1, FootprintMB: 130,
			Kernels: []Kernel{cmpKern(0.0045, 32, 0.95)}},
		{Name: "PATHFINDER", Abbr: "PF", Class: ComputeBound, TableMPKI: 0.06, TableKnls: 5, FootprintMB: 792,
			Kernels: []Kernel{cmpKern(0.0040, 32, 0.96), cmpKern(0.0030, 32, 0.96)}},
		{Name: "Coulombic Potential", Abbr: "CP", Class: ComputeBound, TableMPKI: 0.02, TableKnls: 1, FootprintMB: 40,
			Kernels: []Kernel{cmpKern(0.0025, 32, 0.98)}},
		{Name: "MRI-Q", Abbr: "MRI-Q", Class: ComputeBound, TableMPKI: 0.01, TableKnls: 3, FootprintMB: 50,
			Kernels: []Kernel{cmpKern(0.0018, 32, 0.98), cmpKern(0.0012, 32, 0.99)}},
	}
}

// AIWorkloads returns the five Tango DNN workloads of Section 6.6, modelled
// as layer sequences that alternate bandwidth-heavy (conv/FC weight
// streaming) and compute-heavy phases.
func AIWorkloads() []Benchmark {
	convLayer := func(memFrac float64) Kernel { return memKern(memFrac, 0.20, 1536, 1) }
	gemmLayer := func(memFrac float64) Kernel { return cmpKern(memFrac, 64, 0.70) }
	seq := func(layers ...Kernel) []Kernel {
		// Layers are long enough that one phase dominates an epoch (the
		// paper's observation that kernels must run for a sufficient
		// duration for epoch profiling to steer reallocation).
		for i := range layers {
			layers[i].InstrPerWarp = 12000
			layers[i].TBs = 1536
		}
		return layers
	}
	return []Benchmark{
		{Name: "AlexNet", Abbr: "ALEXNET", Class: MemoryBound, TableMPKI: 3.5, TableKnls: 8, FootprintMB: 240,
			Kernels: seq(convLayer(0.094), gemmLayer(0.020), convLayer(0.086), gemmLayer(0.016), convLayer(0.101), gemmLayer(0.020), convLayer(0.079), gemmLayer(0.018))},
		{Name: "ResNet", Abbr: "RESNET", Class: MemoryBound, TableMPKI: 4.1, TableKnls: 12, FootprintMB: 420,
			Kernels: seq(convLayer(0.101), convLayer(0.086), gemmLayer(0.020), convLayer(0.094), gemmLayer(0.016), convLayer(0.108), convLayer(0.079), gemmLayer(0.018), convLayer(0.094), gemmLayer(0.020), convLayer(0.086), gemmLayer(0.016))},
		{Name: "SqueezeNet", Abbr: "SQUEEZENET", Class: MemoryBound, TableMPKI: 2.8, TableKnls: 10, FootprintMB: 160,
			Kernels: seq(convLayer(0.079), gemmLayer(0.018), convLayer(0.072), gemmLayer(0.016), convLayer(0.086), gemmLayer(0.020), convLayer(0.072), gemmLayer(0.014), convLayer(0.079), gemmLayer(0.016))},
		{Name: "GRU", Abbr: "GRU", Class: MemoryBound, TableMPKI: 5.2, TableKnls: 6, FootprintMB: 310,
			Kernels: seq(convLayer(0.115), convLayer(0.108), gemmLayer(0.020), convLayer(0.122), convLayer(0.101), gemmLayer(0.018))},
		{Name: "LSTM", Abbr: "LSTM", Class: MemoryBound, TableMPKI: 5.8, TableKnls: 6, FootprintMB: 350,
			Kernels: seq(convLayer(0.122), convLayer(0.115), gemmLayer(0.016), convLayer(0.108), convLayer(0.122), gemmLayer(0.020))},
	}
}

// ByAbbr looks a benchmark up by its Table 2 abbreviation (AI workloads
// included).
func ByAbbr(abbr string) (Benchmark, error) {
	for _, b := range Table2() {
		if b.Abbr == abbr {
			return b, nil
		}
	}
	for _, b := range AIWorkloads() {
		if b.Abbr == abbr {
			return b, nil
		}
	}
	return Benchmark{}, fmt.Errorf("workload: unknown benchmark %q", abbr)
}

// Mix is a named multi-program workload.
type Mix struct {
	Name   string
	Apps   []Benchmark
	Hetero bool // true if it mixes compute- and memory-bound apps
}

func mkMix(apps ...Benchmark) Mix {
	name := apps[0].Abbr
	hasC, hasM := false, false
	for i, a := range apps {
		if i > 0 {
			name += "_" + a.Abbr
		}
		if a.Class == ComputeBound {
			hasC = true
		} else {
			hasM = true
		}
	}
	return Mix{Name: name, Apps: apps, Hetero: hasC && hasM}
}

// HeterogeneousPairs builds up to n two-program mixes pairing each
// memory-bound benchmark with each compute-bound one (the paper's 50
// heterogeneous mixes; there are 7x8 = 56 combinations, the first n are
// used in deterministic order).
func HeterogeneousPairs(n int) []Mix {
	var mem, cmp []Benchmark
	for _, b := range Table2() {
		if b.Class == MemoryBound {
			mem = append(mem, b)
		} else {
			cmp = append(cmp, b)
		}
	}
	var mixes []Mix
	for _, m := range mem {
		for _, c := range cmp {
			mixes = append(mixes, mkMix(m, c))
		}
	}
	sort.Slice(mixes, func(i, j int) bool { return mixes[i].Name < mixes[j].Name })
	if n > 0 && n < len(mixes) {
		mixes = mixes[:n]
	}
	return mixes
}

// HomogeneousPairs builds up to n two-program mixes of same-class
// benchmarks (the paper's 55 homogeneous mixes).
func HomogeneousPairs(n int) []Mix {
	all := Table2()
	var mixes []Mix
	for i := range all {
		for j := i; j < len(all); j++ {
			if all[i].Class == all[j].Class {
				mixes = append(mixes, mkMix(all[i], all[j]))
			}
		}
	}
	sort.Slice(mixes, func(i, j int) bool { return mixes[i].Name < mixes[j].Name })
	if n > 0 && n < len(mixes) {
		mixes = mixes[:n]
	}
	return mixes
}

// AllPairs returns the full 105-mix evaluation set: 50 heterogeneous plus 55
// homogeneous two-program mixes.
func AllPairs() []Mix {
	return append(HeterogeneousPairs(50), HomogeneousPairs(55)...)
}

// FourProgramMixes builds n mixes of 2 memory-bound + 2 compute-bound
// benchmarks (Section 6.5), deterministically from the seed.
func FourProgramMixes(n int, seed int64) []Mix {
	return kProgramMixes(n, rand.New(rand.NewSource(seed)), 2, 2)
}

// EightProgramMixes builds n mixes of 4 memory-bound + 4 compute-bound
// benchmarks (Section 6.5's 200 random eight-program workloads).
func EightProgramMixes(n int, seed int64) []Mix {
	return kProgramMixes(n, rand.New(rand.NewSource(seed)), 4, 4)
}

func kProgramMixes(n int, rng *rand.Rand, nMem, nCmp int) []Mix {
	var mem, cmp []Benchmark
	for _, b := range Table2() {
		if b.Class == MemoryBound {
			mem = append(mem, b)
		} else {
			cmp = append(cmp, b)
		}
	}
	mixes := make([]Mix, 0, n)
	for len(mixes) < n {
		apps := make([]Benchmark, 0, nMem+nCmp)
		mp := rng.Perm(len(mem))
		cp := rng.Perm(len(cmp))
		for i := 0; i < nMem; i++ {
			apps = append(apps, mem[mp[i]])
		}
		for i := 0; i < nCmp; i++ {
			apps = append(apps, cmp[cp[i]])
		}
		mixes = append(mixes, mkMix(apps...))
	}
	return mixes
}

// AIMixes pairs each AI workload with a compute-bound Table 2 benchmark
// (Section 6.6).
func AIMixes() []Mix {
	var cmp []Benchmark
	for _, b := range Table2() {
		if b.Class == ComputeBound {
			cmp = append(cmp, b)
		}
	}
	var mixes []Mix
	for i, ai := range AIWorkloads() {
		for j := 0; j < 2; j++ {
			mixes = append(mixes, mkMix(ai, cmp[(i*2+j)%len(cmp)]))
		}
	}
	return mixes
}
