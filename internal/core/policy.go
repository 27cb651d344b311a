package core

import (
	"fmt"

	"ugpu/internal/config"
	"ugpu/internal/dram"
	"ugpu/internal/gpu"
)

// Policy decides the GPU partition: its initial shape and (for dynamic
// policies) a new target at each epoch boundary.
type Policy interface {
	Name() string
	// Options selects the mechanism configuration (migration mode etc.).
	Options() gpu.Options
	// Initial returns the starting partition for n applications.
	Initial(n int, cfg config.Config) ([]Target, error)
	// Decide inspects epoch profiles and returns new targets. ok reports
	// whether a reallocation is requested; latency is the decision cost in
	// cycles charged before the reallocation is applied.
	Decide(cycle uint64, stats []gpu.EpochStats) (targets []Target, latency int, ok bool)
}

// evenTargets splits SMs and channel groups evenly (the BP baseline).
func evenTargets(n int, cfg config.Config) ([]Target, error) {
	if n <= 0 || n > cfg.NumSMs || n > cfg.ChannelGroups() {
		return nil, fmt.Errorf("core: cannot partition for %d applications", n)
	}
	t := make([]Target, n)
	smLeft, grLeft := cfg.NumSMs, cfg.ChannelGroups()
	for i := range t {
		t[i] = Target{SMs: smLeft / (n - i), Groups: grLeft / (n - i)}
		smLeft -= t[i].SMs
		grLeft -= t[i].Groups
	}
	return t, nil
}

// staticPolicy never reallocates.
type staticPolicy struct {
	name    string
	opt     gpu.Options
	initial func(n int, cfg config.Config) ([]Target, error)
}

func (p *staticPolicy) Name() string         { return p.name }
func (p *staticPolicy) Options() gpu.Options { return p.opt }
func (p *staticPolicy) Initial(n int, cfg config.Config) ([]Target, error) {
	return p.initial(n, cfg)
}
func (p *staticPolicy) Decide(uint64, []gpu.EpochStats) ([]Target, int, bool) {
	return nil, 0, false
}

// NewBP is the balanced partition: the GPU is divided into equal balanced
// slices (the MIG-like baseline of Section 2).
func NewBP() Policy {
	return &staticPolicy{name: "BP", opt: gpu.DefaultOptions(), initial: evenTargets}
}

// NewBPBS is the big/small static split: app 0 gets the 60-SM/24-channel
// partition, app 1 the 20-SM/8-channel one (two-program mixes only).
func NewBPBS() Policy {
	return &staticPolicy{name: "BP-BS", opt: gpu.DefaultOptions(), initial: bigSmall(true)}
}

// NewBPSB is the small/big static split (app 0 small).
func NewBPSB() Policy {
	return &staticPolicy{name: "BP-SB", opt: gpu.DefaultOptions(), initial: bigSmall(false)}
}

func bigSmall(firstBig bool) func(int, config.Config) ([]Target, error) {
	return func(n int, cfg config.Config) ([]Target, error) {
		if n != 2 {
			return nil, fmt.Errorf("core: BP-BS/BP-SB are defined for 2 applications, got %d", n)
		}
		big := Target{SMs: cfg.NumSMs * 3 / 4, Groups: cfg.ChannelGroups() * 3 / 4}
		small := Target{SMs: cfg.NumSMs - big.SMs, Groups: cfg.ChannelGroups() - big.Groups}
		if firstBig {
			return []Target{big, small}, nil
		}
		return []Target{small, big}, nil
	}
}

// NewMPS models CUDA MPS (Section 6.7): SMs are partitioned but all memory
// channels are shared, with no page migration and no isolation.
// smShare optionally fixes per-app SM counts (nil = even split).
func NewMPS(smShare []int) Policy {
	return &staticPolicy{
		name: "MPS",
		opt: func() gpu.Options {
			o := gpu.DefaultOptions()
			o.DisableMigration = true
			return o
		}(),
		initial: func(n int, cfg config.Config) ([]Target, error) {
			t, err := evenTargets(n, cfg)
			if err != nil {
				return nil, err
			}
			for i := range t {
				if smShare != nil {
					t[i].SMs = smShare[i]
				}
				t[i].Groups = cfg.ChannelGroups() // shared: everyone gets all
			}
			return t, nil
		},
	}
}

// NewUGPUOffline fixes the partition at the given targets from cycle zero
// (the offline-profiled ideal of Section 6.1: no reallocation overhead).
func NewUGPUOffline(targets []Target) Policy {
	return &staticPolicy{
		name: "UGPU-offline",
		opt:  gpu.DefaultOptions(),
		initial: func(n int, cfg config.Config) ([]Target, error) {
			if n != len(targets) {
				return nil, fmt.Errorf("core: offline targets for %d apps, mix has %d", len(targets), n)
			}
			return targets, nil
		},
	}
}

// UGPU is the demand-aware dynamic policy (Section 3). Variants share the
// decision logic and differ in the PageMove mechanism configuration.
type UGPU struct {
	name string
	alg  *Algorithm
	opt  gpu.Options
}

// NewUGPU returns the full design: demand-aware partitioning + PageMove.
func NewUGPU(cfg config.Config) *UGPU {
	return &UGPU{name: "UGPU", alg: NewAlgorithm(cfg), opt: gpu.DefaultOptions()}
}

// NewUGPUOri is the ablation without PageMove: traditional cross-stack
// read/write migration and whole-footprint reshuffling.
func NewUGPUOri(cfg config.Config) *UGPU {
	opt := gpu.DefaultOptions()
	opt.MigrationMode = dram.ModeCrossStack
	opt.OriReshuffle = true
	return &UGPU{name: "UGPU-Ori", alg: NewAlgorithm(cfg), opt: opt}
}

// NewUGPUSoft is the ablation with the customized mapping and VM updates
// but no crossbar/PPMM hardware: in-stack read/write migration.
func NewUGPUSoft(cfg config.Config) *UGPU {
	opt := gpu.DefaultOptions()
	opt.MigrationMode = dram.ModeReadWrite
	return &UGPU{name: "UGPU-Soft", alg: NewAlgorithm(cfg), opt: opt}
}

func (p *UGPU) Name() string         { return p.name }
func (p *UGPU) Options() gpu.Options { return p.opt }

// Initial starts from the balanced partition, as the paper does.
func (p *UGPU) Initial(n int, cfg config.Config) ([]Target, error) { return evenTargets(n, cfg) }

// Decide runs the demand-aware algorithm on the epoch profiles.
func (p *UGPU) Decide(cycle uint64, stats []gpu.EpochStats) ([]Target, int, bool) {
	profiles := make([]Profile, len(stats))
	for i, e := range stats {
		profiles[i] = ProfileOf(e)
	}
	d := p.alg.Run(profiles)
	if !d.Changed {
		return nil, 0, false
	}
	return d.Targets, d.LatencyCycles(), true
}

// CDSearch reallocates only SMs between balanced GPU instances, driven by
// classification plus throughput feedback (the BP(CD-Search) comparison of
// Section 6.4). Channel groups never move.
type CDSearch struct {
	bw       Bandwidth
	step     int
	minSMs   int
	prevIPC  float64
	lastFrom int
	lastTo   int
	settled  bool
}

// NewCDSearch builds the comparison policy. The 8-SM step matches the
// cited work's coarse-to-fine search pace at our scaled epoch lengths.
func NewCDSearch(cfg config.Config) *CDSearch {
	return &CDSearch{bw: BandwidthFor(cfg), step: 8, minSMs: 4, lastFrom: -1}
}

func (p *CDSearch) Name() string         { return "BP(CD-Search)" }
func (p *CDSearch) Options() gpu.Options { return gpu.DefaultOptions() }
func (p *CDSearch) Initial(n int, cfg config.Config) ([]Target, error) {
	return evenTargets(n, cfg)
}

// Decide moves SMs from the most memory-bound app to the most compute-bound
// one while system throughput keeps improving; a throughput regression
// undoes the last move and settles.
func (p *CDSearch) Decide(cycle uint64, stats []gpu.EpochStats) ([]Target, int, bool) {
	total := 0.0
	for _, e := range stats {
		total += e.IPC()
	}
	targets := make([]Target, len(stats))
	for i, e := range stats {
		targets[i] = Target{SMs: e.SMs, Groups: e.Groups}
	}
	if p.settled {
		return nil, 0, false
	}
	if p.lastFrom >= 0 && total < p.prevIPC {
		// Regression: revert the last move and stop searching.
		targets[p.lastFrom].SMs += p.step
		targets[p.lastTo].SMs -= p.step
		p.settled = true
		p.prevIPC = total
		return targets, 0, true
	}
	p.prevIPC = total

	cb, mb := -1, -1
	var cbDeg, mbDeg float64
	for i, e := range stats {
		deg := p.bw.Degree(ProfileOf(e))
		if deg <= 1 && (cb < 0 || deg < cbDeg) {
			cb, cbDeg = i, deg
		}
		if deg > 1 && e.SMs-p.step >= p.minSMs && (mb < 0 || deg > mbDeg) {
			mb, mbDeg = i, deg
		}
	}
	if cb < 0 || mb < 0 {
		return nil, 0, false
	}
	targets[cb].SMs += p.step
	targets[mb].SMs -= p.step
	p.lastFrom, p.lastTo = mb, cb
	return targets, 0, true
}

// optionsOverride wraps a policy with modified mechanism options (tests and
// experiments tweak footprint scale or enable data-correctness checking).
type optionsOverride struct {
	Policy
	opt gpu.Options
}

func (o optionsOverride) Options() gpu.Options { return o.opt }

// WithOptions returns the policy with its mechanism options transformed by
// mod. The policy's decision logic is unchanged.
func WithOptions(p Policy, mod func(*gpu.Options)) Policy {
	opt := p.Options()
	mod(&opt)
	return optionsOverride{Policy: p, opt: opt}
}
