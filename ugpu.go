// Package ugpu is a simulation library reproducing "UGPU: Dynamically
// Constructing Unbalanced GPUs for Enhanced Resource Efficiency"
// (ISCA 2025).
//
// The library simulates a multitasking GPU (Table 1 of the paper: 80 SMs, 4
// HBM stacks with 32 memory channels, a 6 MB LLC, full TLB hierarchy) whose
// compute and memory resources can be partitioned into isolated, unbalanced
// GPU slices. The paper's demand-aware partitioning algorithm and the
// PageMove page-migration hardware are implemented alongside the baselines
// it is evaluated against.
//
// Quick start:
//
//	cfg := ugpu.DefaultConfig()
//	mix, _ := ugpu.MixOf("PVC", "DXTC")
//	res, _ := ugpu.Run(cfg, ugpu.NewUGPU(cfg), mix)
//	fmt.Println(res.TotalIPC())
//
// See DESIGN.md for the architecture and EXPERIMENTS.md for the
// paper-vs-measured comparison of every table and figure.
package ugpu

import (
	"fmt"
	"strings"

	clusterserve "ugpu/internal/cluster/serve"
	"ugpu/internal/config"
	"ugpu/internal/core"
	"ugpu/internal/experiments"
	"ugpu/internal/fault"
	"ugpu/internal/gpu"
	"ugpu/internal/metrics"
	"ugpu/internal/power"
	"ugpu/internal/serve"
	"ugpu/internal/workload"
)

// Config holds the simulated GPU architecture parameters (Table 1).
type Config = config.Config

// DefaultConfig returns the Table 1 architecture with scaled-down run
// lengths (1M-cycle runs, 100K-cycle epochs).
func DefaultConfig() Config { return config.Default() }

// PaperConfig returns the Table 1 architecture with the paper's run lengths
// (25M-cycle runs, 5M-cycle epochs).
func PaperConfig() Config { return config.PaperScale() }

// Benchmark is one application of the paper's Table 2 (or a Tango AI
// workload), modelled as a synthetic kernel behaviour generator.
type Benchmark = workload.Benchmark

// Mix is a multi-program workload.
type Mix = workload.Mix

// Benchmark classes (Table 2's memory-/compute-bound split).
const (
	MemoryBound  = workload.MemoryBound
	ComputeBound = workload.ComputeBound
)

// Benchmarks returns the 15 GPU-compute benchmarks of Table 2.
func Benchmarks() []Benchmark { return workload.Table2() }

// AIBenchmarks returns the five Tango DNN workloads of Section 6.6.
func AIBenchmarks() []Benchmark { return workload.AIWorkloads() }

// BenchmarkByName looks a benchmark up by its Table 2 abbreviation.
func BenchmarkByName(abbr string) (Benchmark, error) { return workload.ByAbbr(abbr) }

// MixOf builds a mix from benchmark abbreviations.
func MixOf(abbrs ...string) (Mix, error) {
	var apps []Benchmark
	hasC, hasM := false, false
	for _, a := range abbrs {
		b, err := workload.ByAbbr(a)
		if err != nil {
			return Mix{}, err
		}
		apps = append(apps, b)
		if b.Class == workload.ComputeBound {
			hasC = true
		} else {
			hasM = true
		}
	}
	if len(apps) == 0 {
		return Mix{}, fmt.Errorf("ugpu: empty mix")
	}
	names := make([]string, len(apps))
	for i, b := range apps {
		names[i] = b.Abbr
	}
	return Mix{Name: strings.Join(names, "_"), Apps: apps, Hetero: hasC && hasM}, nil
}

// HeterogeneousMixes returns up to n two-program mixes pairing memory- and
// compute-bound benchmarks (the paper's 50 heterogeneous mixes; n <= 0
// returns all).
func HeterogeneousMixes(n int) []Mix { return workload.HeterogeneousPairs(n) }

// HomogeneousMixes returns up to n same-class two-program mixes.
func HomogeneousMixes(n int) []Mix { return workload.HomogeneousPairs(n) }

// AllMixes returns the full 105-mix evaluation set.
func AllMixes() []Mix { return workload.AllPairs() }

// FourProgramMixes returns n mixes of 2 memory- + 2 compute-bound apps.
func FourProgramMixes(n int, seed int64) []Mix { return workload.FourProgramMixes(n, seed) }

// EightProgramMixes returns n mixes of 4 memory- + 4 compute-bound apps.
func EightProgramMixes(n int, seed int64) []Mix { return workload.EightProgramMixes(n, seed) }

// AIMixes pairs AI workloads with compute-bound benchmarks (Section 6.6).
func AIMixes() []Mix { return workload.AIMixes() }

// Policy decides the GPU partition (see the policy constructors below).
type Policy = core.Policy

// Target is one application's resource share (SMs and memory channel
// groups; one group is one channel index across all four stacks).
type Target = core.Target

// Result summarises a policy run over one mix.
type Result = core.Result

// Policy constructors (Section 6's designs).
var (
	// NewUGPU is the paper's design: demand-aware dynamic partitioning
	// with PageMove migration.
	NewUGPU = core.NewUGPU
	// NewUGPUOri is UGPU without PageMove (traditional migration).
	NewUGPUOri = core.NewUGPUOri
	// NewUGPUSoft is UGPU with the software parts of PageMove only.
	NewUGPUSoft = core.NewUGPUSoft
	// NewUGPUOffline fixes an offline-profiled partition.
	NewUGPUOffline = core.NewUGPUOffline
	// NewBP is the balanced (MIG-like) partition.
	NewBP = core.NewBP
	// NewBPBS and NewBPSB are static big/small splits.
	NewBPBS = core.NewBPBS
	NewBPSB = core.NewBPSB
	// NewMPS shares memory channels between SM partitions.
	NewMPS = core.NewMPS
	// NewCDSearch moves only SMs (the Section 6.4 comparison).
	NewCDSearch = core.NewCDSearch
	// NewUGPUQoS, NewBPQoS and NewMPSQoS are the Section 6.7 QoS designs.
	NewUGPUQoS = core.NewUGPUQoS
	NewBPQoS   = core.NewBPQoS
	NewMPSQoS  = core.NewMPSQoS
)

// PolicyNames lists the names accepted by PolicyByName.
func PolicyNames() []string {
	return []string{"ugpu", "ugpu-ori", "ugpu-soft", "bp", "bp-bs", "bp-sb", "mps", "cd-search"}
}

// PolicyByName constructs a policy from its evaluation name.
func PolicyByName(name string, cfg Config) (Policy, error) {
	switch strings.ToLower(name) {
	case "ugpu":
		return core.NewUGPU(cfg), nil
	case "ugpu-ori":
		return core.NewUGPUOri(cfg), nil
	case "ugpu-soft":
		return core.NewUGPUSoft(cfg), nil
	case "bp":
		return core.NewBP(), nil
	case "bp-bs":
		return core.NewBPBS(), nil
	case "bp-sb":
		return core.NewBPSB(), nil
	case "mps":
		return core.NewMPS(nil), nil
	case "cd-search", "cdsearch":
		return core.NewCDSearch(cfg), nil
	}
	return nil, fmt.Errorf("ugpu: unknown policy %q (want one of %v)", name, PolicyNames())
}

// Options tunes mechanism details of a policy run (migration mode,
// footprint scaling, data-correctness checking).
type Options = gpu.Options

// WithOptions returns the policy with modified mechanism options.
var WithOptions = core.WithOptions

// Run simulates one policy over one mix for cfg.MaxCycles.
func Run(cfg Config, p Policy, mix Mix) (Result, error) { return core.RunPolicy(cfg, p, mix) }

// Simulation gives step-by-step control over a run (epoch stepping,
// inspection of the underlying GPU model).
type Simulation = core.Runner

// NewSimulation builds a Simulation.
func NewSimulation(cfg Config, p Policy, mix Mix) (*Simulation, error) {
	return core.NewRunner(cfg, p, mix)
}

// Metrics (Section 5).
var (
	// STP is Equation 3 (system throughput, higher is better).
	STP = metrics.STP
	// ANTT is Equation 4 (average normalized turnaround time, lower is
	// better).
	ANTT = metrics.ANTT
	// NP is one application's normalized progress.
	NP = metrics.NP
	// Score computes STP and ANTT for a run result.
	Score = metrics.Score
)

// AloneIPC measures and caches solo-run IPC references for STP/ANTT.
type AloneIPC = metrics.AloneIPC

// NewAloneIPC builds the reference runner.
func NewAloneIPC(cfg Config, opt Options) *AloneIPC { return metrics.NewAloneIPC(cfg, opt) }

// DefaultOptions returns the UGPU mechanism defaults (PPMM migration,
// fault-driven only).
func DefaultOptions() Options { return gpu.DefaultOptions() }

// EnergyModel is the event-based energy model of Figure 12b.
type EnergyModel = metrics.EnergyModel

// DefaultEnergy returns the calibrated energy model.
func DefaultEnergy() EnergyModel { return metrics.DefaultEnergy() }

// Experiments regenerates the paper's tables and figures.
type Experiments = experiments.Options

// DefaultExperiments returns laptop-scale experiment options.
func DefaultExperiments() Experiments { return experiments.Default() }

// NewHillClimb is the model-free feedback-search baseline of Section 3.1's
// prior-work discussion: it probes partitions and keeps improvements,
// paying real reallocation cost per probe.
var NewHillClimb = core.NewHillClimb

// Online serving (extension, see DESIGN.md "Online serving layer"): tenants
// arrive over time, wait under an admission policy, run on live-attached GPU
// slices, and depart through a two-phase detach. Identical seeds give
// byte-identical reports.

// QoS is a job's service class (latency-critical or best-effort).
type QoS = workload.QoS

// Service classes.
const (
	LatencyCritical = workload.LatencyCritical
	BestEffort      = workload.BestEffort
)

// ArrivalSpec parameterises a seeded Poisson/burst arrival schedule.
type ArrivalSpec = workload.ArrivalSpec

// Job is one tenant of the open-world serving model.
type Job = workload.Job

// ServePolicy selects the admission discipline of a Server.
type ServePolicy = serve.Policy

// Admission policies.
const (
	// ServeInOrder admits strictly in arrival order (FIFO baseline with
	// head-of-line blocking).
	ServeInOrder = serve.InOrder
	// ServeClassAware drains the latency-critical queue first and preempts
	// best-effort tenants when LC work is blocked.
	ServeClassAware = serve.ClassAware
	// ServeLoadAware is class-aware plus a DRAM-bandwidth admission gate
	// for memory-bound best-effort jobs.
	ServeLoadAware = serve.LoadAware
)

// ServePolicies lists every admission policy in presentation order.
func ServePolicies() []ServePolicy { return serve.Policies() }

// ServeConfig parameterises one serve run (simulator config, arrival spec,
// admission policy, queue capacity, SLO targets).
type ServeConfig = serve.Config

// ServeReport is a serve run's outcome: per-job outcomes plus the folded
// SLO report.
type ServeReport = serve.Report

// Server drives one dynamically partitioned GPU through an arrival
// schedule, admitting, preempting, and detaching tenants at epoch
// boundaries.
type Server = serve.Server

// NewServer validates the configuration, generates the arrival schedule,
// and builds an initially empty GPU. Run with (*Server).Run.
func NewServer(cfg ServeConfig) (*Server, error) { return serve.New(cfg) }

// SLOSpec holds the per-class slowdown targets.
type SLOSpec = metrics.SLOSpec

// DefaultSLO returns the default serving targets (LC 6x alone, BE 16x).
func DefaultSLO() SLOSpec { return metrics.DefaultSLO() }

// SLOReport aggregates job outcomes: slowdown percentiles, queueing delay,
// goodput, rejection and preemption rates.
type SLOReport = metrics.SLOReport

// JobOutcome records one job's passage through the system.
type JobOutcome = metrics.JobOutcome

// Slowdown is a completed job's (finish-arrival)/alone ratio.
var Slowdown = metrics.Slowdown

// ClusterServeConfig parameterises a cluster serving run: N backend GPUs,
// a shared arrival stream, a seeded whole-GPU crash schedule, periodic
// checkpoint/restore, and the tiered brownout controller.
type ClusterServeConfig = clusterserve.Config

// ClusterServeReport is a cluster serving run's outcome, including the
// crash log, lost work, and the failover-aware SLO report (availability,
// MTTR).
type ClusterServeReport = clusterserve.Report

// ClusterFrontend routes an arrival stream across per-GPU Servers, fails
// over crashed GPUs from checkpoints, and sheds load under brownout.
type ClusterFrontend = clusterserve.Frontend

// ClusterAllDeadError is the terminal error of a run that lost every GPU;
// the accompanying report still accounts the run up to the point of death.
type ClusterAllDeadError = clusterserve.AllDeadError

// NewClusterFrontend validates the configuration and builds the cluster.
// Run with (*ClusterFrontend).Run.
func NewClusterFrontend(cfg ClusterServeConfig) (*ClusterFrontend, error) {
	return clusterserve.New(cfg)
}

// PlanGPUCrashes builds the seeded whole-GPU crash schedule used by the
// failover experiment: crashes in the middle 60% of the horizon, distinct
// victims, at least one survivor.
var PlanGPUCrashes = fault.PlanGPUCrashes

// Gray-failure resilience (extension, see DESIGN.md "Gray failures &
// quarantine"): seeded degraded-GPU injection (a victim runs slow without
// dying), a peer-median health scorer with hysteresis, and a quarantine
// state machine that drains latency-critical work with live progress.
// Enable injection with ClusterServeConfig.Gray (or an explicit GrayPlan)
// and detection with ClusterServeConfig.Health.

// GraySpec describes how many GPUs to gray-degrade and how hard (P-state
// floors, NoC drop, window fraction). The zero GraySpec injects nothing.
type GraySpec = fault.GraySpec

// GrayFault is one planned degradation window on one GPU.
type GrayFault = fault.GrayFault

// ParseGraySpec parses a "gpus=1,sm=3,noc=0.005,window=0.25" gray-fault
// spec; every error restates the accepted grammar.
var ParseGraySpec = fault.ParseGraySpec

// PlanGrayFaults builds the seeded gray-degradation schedule used by the
// gray experiment: windows in the middle 60% of the horizon, distinct
// victims, at least one fully healthy GPU.
var PlanGrayFaults = fault.PlanGrayFaults

// HealthConfig tunes the cluster health scorer and quarantine state machine
// (zero fields take defaults).
type HealthConfig = clusterserve.HealthConfig

// HealthState is one backend's position in the quarantine state machine
// (healthy, suspect, quarantined, probing).
type HealthState = clusterserve.HealthState

// HealthTransition is one recorded health state-machine move.
type HealthTransition = clusterserve.HealthTransition

// ShedReason explains why the cluster frontend dropped a job (brownout,
// circuit-break, retry exhaustion).
type ShedReason = metrics.ShedReason

// CrashOutcome is one whole-GPU loss with its recovery point.
type CrashOutcome = metrics.CrashOutcome

// Power management (extension, see DESIGN.md "Power management"): a
// deterministic DVFS model with discrete operating points per SM frequency
// domain and per HBM channel, an epoch-boundary governor driven by the same
// demand/supply profiling that drives partitioning, and a power-cap
// controller. Enable by setting Options.Power (e.g. to &PowerConfig{});
// byte-identity across -parallel and fast-forward on/off is preserved.

// PowerConfig selects the DVFS operating-point tables (nil tables take the
// package defaults).
type PowerConfig = power.Config

// PState is one discrete frequency/voltage operating point.
type PState = power.PState

// PowerBreakdown is the DVFS-scaled energy report of a run.
type PowerBreakdown = power.Breakdown

// Power model defaults.
var (
	// DefaultSMStates is the SM-domain operating-point table (nominal plus
	// three throttle points).
	DefaultSMStates = power.DefaultSMStates
	// DefaultHBMStates is the HBM-channel operating-point table.
	DefaultHBMStates = power.DefaultHBMStates
	// DefaultPowerWeights returns the event-energy weights the meter
	// attributes per operating state (DefaultEnergy's table).
	DefaultPowerWeights = power.DefaultWeights
)
