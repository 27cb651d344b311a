// Package cluster extends UGPU to multi-GPU cloud clusters (the Section 6.6
// discussion: cloud providers run many physical GPUs, each co-hosting
// tenants; idle compute or memory resources on one GPU can serve other
// tenants' demands).
//
// The cluster model is deliberately simple: a set of identical physical
// GPUs, a list of tenant jobs, a placement policy that packs tenants onto
// GPUs, and a per-GPU partitioning policy. Each GPU then runs as an
// independent simulation. The interesting interaction is between placement
// and partitioning: class-aware placement (pairing memory-bound with
// compute-bound tenants) creates exactly the heterogeneity UGPU exploits,
// while oblivious placement leaves homogeneous GPUs where no reallocation
// helps.
package cluster

import (
	"fmt"
	"sort"
	"strings"

	"ugpu/internal/config"
	"ugpu/internal/core"
	"ugpu/internal/metrics"
	"ugpu/internal/parallel"
	"ugpu/internal/workload"
)

// Placement selects how tenants are packed onto GPUs.
type Placement int

const (
	// PlaceInOrder fills GPUs with tenants in arrival order.
	PlaceInOrder Placement = iota
	// PlaceClassAware pairs memory-bound tenants with compute-bound ones
	// so every GPU hosts a heterogeneous mix when possible.
	PlaceClassAware
)

func (p Placement) String() string {
	if p == PlaceClassAware {
		return "class-aware"
	}
	return "in-order"
}

// Cluster is a set of identical GPUs.
type Cluster struct {
	Cfg           config.Config
	GPUs          int
	TenantsPerGPU int
}

// New builds a cluster of n GPUs hosting perGPU tenants each.
func New(cfg config.Config, n, perGPU int) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if n <= 0 || perGPU <= 0 {
		return nil, fmt.Errorf("cluster: need positive GPU and tenant counts, got %d/%d", n, perGPU)
	}
	if perGPU > cfg.ChannelGroups() {
		return nil, fmt.Errorf("cluster: %d tenants per GPU exceeds %d channel groups", perGPU, cfg.ChannelGroups())
	}
	return &Cluster{Cfg: cfg, GPUs: n, TenantsPerGPU: perGPU}, nil
}

// Capacity is the number of tenants the cluster can host.
func (c *Cluster) Capacity() int { return c.GPUs * c.TenantsPerGPU }

// Place assigns tenants to GPUs. Jobs beyond capacity are rejected.
func (c *Cluster) Place(jobs []workload.Benchmark, p Placement) ([][]workload.Benchmark, error) {
	if len(jobs) > c.Capacity() {
		return nil, fmt.Errorf("cluster: %d jobs exceed capacity %d", len(jobs), c.Capacity())
	}
	ordered := append([]workload.Benchmark(nil), jobs...)
	if p == PlaceClassAware {
		// Memory-bound first, compute-bound last; dealing round-robin then
		// spreads the classes so each GPU gets a heterogeneous set.
		sort.SliceStable(ordered, func(i, j int) bool {
			return ordered[i].Class == workload.MemoryBound && ordered[j].Class != workload.MemoryBound
		})
	}
	out := make([][]workload.Benchmark, c.GPUs)
	for i, job := range ordered {
		out[i%c.GPUs] = append(out[i%c.GPUs], job)
	}
	return out, nil
}

// GPUReport is one GPU's outcome.
type GPUReport struct {
	Mix    workload.Mix
	Result core.Result
	STP    float64
	ANTT   float64
}

// Report aggregates a cluster run.
type Report struct {
	Placement Placement
	Policy    string
	PerGPU    []GPUReport

	// ClusterSTP sums per-GPU STP: total normalized work the cluster
	// completes per unit time.
	ClusterSTP float64
	// MeanANTT averages tenant slowdowns across the cluster.
	MeanANTT float64
}

// Run places the jobs and simulates every GPU under the policy produced by
// mkPolicy (one fresh policy instance per GPU — policies carry state).
func (c *Cluster) Run(jobs []workload.Benchmark, p Placement, mkPolicy func() core.Policy, alone *metrics.AloneIPC) (Report, error) {
	placed, err := c.Place(jobs, p)
	if err != nil {
		return Report{}, err
	}
	rep := Report{Placement: p, Policy: mkPolicy().Name()}

	// Each occupied GPU is an independent simulation: fan the set out over
	// a GOMAXPROCS-sized worker pool. Every task builds its own policy
	// instance (policies carry state) and GPU; shared state is limited to
	// the singleflight-guarded AloneIPC cache. Reports are aggregated in
	// GPU-index order so the output is identical to a serial run (see
	// internal/parallel's determinism contract).
	type slot struct {
		gi  int
		mix workload.Mix
	}
	var slots []slot
	for gi, tenants := range placed {
		if len(tenants) == 0 {
			continue
		}
		names := make([]string, len(tenants))
		hasC, hasM := false, false
		for i, b := range tenants {
			names[i] = b.Abbr
			if b.Class == workload.ComputeBound {
				hasC = true
			} else {
				hasM = true
			}
		}
		slots = append(slots, slot{gi: gi, mix: workload.Mix{
			Name: strings.Join(names, "_"), Apps: tenants, Hetero: hasC && hasM}})
	}
	reports, err := parallel.Map(parallel.New(0), len(slots), func(i int) (GPUReport, error) {
		s := slots[i]
		res, err := core.RunPolicy(c.Cfg, mkPolicy(), s.mix)
		if err != nil {
			return GPUReport{}, fmt.Errorf("gpu %d (%s): %w", s.gi, s.mix.Name, err)
		}
		ref, err := alone.Table(s.mix)
		if err != nil {
			return GPUReport{}, err
		}
		stp, antt := metrics.Score(res, ref)
		return GPUReport{Mix: s.mix, Result: res, STP: stp, ANTT: antt}, nil
	})
	if err != nil {
		return Report{}, err
	}
	anttN := 0
	for _, gr := range reports {
		rep.PerGPU = append(rep.PerGPU, gr)
		rep.ClusterSTP += gr.STP
		rep.MeanANTT += gr.ANTT * float64(len(gr.Mix.Apps))
		anttN += len(gr.Mix.Apps)
	}
	if anttN > 0 {
		rep.MeanANTT /= float64(anttN)
	}
	return rep, nil
}
