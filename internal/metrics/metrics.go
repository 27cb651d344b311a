// Package metrics implements the evaluation metrics of Section 5: system
// throughput (STP) and average normalized turnaround time (ANTT), the
// solo-run IPC references they need, and the event-based energy model used
// for Figure 12b.
package metrics

import (
	"sync"

	"ugpu/internal/config"
	"ugpu/internal/core"
	"ugpu/internal/gpu"
	"ugpu/internal/power"
	"ugpu/internal/workload"
)

// STP is Equation 3: the sum of per-application normalized progress
// (higher is better; n co-running apps can reach at most n).
func STP(ipc, alone []float64) float64 {
	s := 0.0
	for i := range ipc {
		if alone[i] > 0 {
			s += ipc[i] / alone[i]
		}
	}
	return s
}

// ANTT is Equation 4: the average per-application slowdown (lower is
// better; 1 means no slowdown).
func ANTT(ipc, alone []float64) float64 {
	if len(ipc) == 0 {
		return 0
	}
	s := 0.0
	for i := range ipc {
		if ipc[i] > 0 {
			s += alone[i] / ipc[i]
		}
	}
	return s / float64(len(ipc))
}

// NP is one application's normalized progress.
func NP(ipc, alone float64) float64 {
	if alone <= 0 {
		return 0
	}
	return ipc / alone
}

// ThroughputLoss is the relative throughput lost to degradation: 1 -
// post/pre, where pre is the healthy-epoch mean IPC and post the mean after
// the first fault. 0 when there is no healthy baseline; negative values mean
// the app sped up (e.g. it inherited resources from a failed neighbour).
func ThroughputLoss(pre, post float64) float64 {
	if pre <= 0 {
		return 0
	}
	return 1 - post/pre
}

// AloneIPC measures a benchmark's IPC running alone on the full GPU for the
// configured MaxCycles — the IPC_alone reference of Equations 3-4. Results
// are cached per (benchmark, config-shape) so sweeps do not repeat solo
// runs. It is safe for concurrent use: concurrent Get calls for the same
// benchmark are coalesced onto one in-flight solo simulation
// (singleflight), so parallel sweeps measure each benchmark exactly once.
type AloneIPC struct {
	cfg config.Config
	opt gpu.Options

	mu       sync.Mutex
	cache    map[string]float64
	inflight map[string]*aloneCall
	measures uint64 // solo simulations actually executed (tests/diagnostics)
}

// aloneCall is one in-flight solo measurement; waiters block on done.
type aloneCall struct {
	done chan struct{}
	v    float64
	err  error
}

// NewAloneIPC builds a reference runner for the given configuration.
func NewAloneIPC(cfg config.Config, opt gpu.Options) *AloneIPC {
	return &AloneIPC{
		cfg:      cfg,
		opt:      opt,
		cache:    make(map[string]float64),
		inflight: make(map[string]*aloneCall),
	}
}

// Get returns the benchmark's solo IPC, measuring it on first use. If
// another goroutine is already measuring the same benchmark, Get waits for
// that measurement instead of running a duplicate simulation; measurement
// errors propagate to every waiter and are not cached (a later Get
// retries).
func (a *AloneIPC) Get(b workload.Benchmark) (float64, error) {
	a.mu.Lock()
	if v, ok := a.cache[b.Abbr]; ok {
		a.mu.Unlock()
		return v, nil
	}
	if c, ok := a.inflight[b.Abbr]; ok {
		// Another goroutine is mid-measurement: wait for its result rather
		// than running the same solo simulation twice.
		a.mu.Unlock()
		<-c.done
		return c.v, c.err
	}
	c := &aloneCall{done: make(chan struct{})}
	a.inflight[b.Abbr] = c
	a.mu.Unlock()

	c.v, c.err = a.measure(b)

	a.mu.Lock()
	if c.err == nil {
		a.cache[b.Abbr] = c.v
	}
	delete(a.inflight, b.Abbr)
	a.mu.Unlock()
	close(c.done)
	return c.v, c.err
}

// Measurements reports how many solo simulations actually ran (each cached
// benchmark should cost exactly one, even under concurrent sweeps).
func (a *AloneIPC) Measurements() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.measures
}

// measure runs the solo simulation (no locks held).
func (a *AloneIPC) measure(b workload.Benchmark) (float64, error) {
	a.mu.Lock()
	a.measures++
	a.mu.Unlock()
	groups := make([]int, a.cfg.ChannelGroups())
	for i := range groups {
		groups[i] = i
	}
	g, err := gpu.New(a.cfg, []gpu.AppSpec{{Bench: b, SMs: a.cfg.NumSMs, Groups: groups}}, a.opt)
	if err != nil {
		return 0, err
	}
	g.Run(uint64(a.cfg.MaxCycles))
	st := g.EndEpoch()[0]
	return st.IPC(), nil
}

// Table returns solo IPCs for every app of a mix.
func (a *AloneIPC) Table(mix workload.Mix) ([]float64, error) {
	out := make([]float64, len(mix.Apps))
	for i, b := range mix.Apps {
		v, err := a.Get(b)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// Prime stores a precomputed value (tests).
func (a *AloneIPC) Prime(abbr string, ipc float64) {
	a.mu.Lock()
	a.cache[abbr] = ipc
	a.mu.Unlock()
}

// Score computes STP and ANTT for a run result.
func Score(res core.Result, alone []float64) (stp, antt float64) {
	ipc := make([]float64, len(res.Apps))
	for i, app := range res.Apps {
		ipc[i] = app.IPC
	}
	return STP(ipc, alone), ANTT(ipc, alone)
}

// EnergyModel holds per-event energy weights (arbitrary units; Figure 12b
// uses only relative energy). It is the DVFS meter's weight table
// (power.EnergyWeights), applied post hoc to whole-run counters, so an
// all-nominal power report equals Energy. Defaults are calibrated so the GPU
// core takes ~88% and the HBM system ~12% of energy for heterogeneous
// workloads (Section 6.3, citing AccelWattch).
type EnergyModel power.EnergyWeights

// DefaultEnergy returns the calibrated model.
func DefaultEnergy() EnergyModel { return EnergyModel(power.DefaultWeights()) }

// Breakdown is a run's energy split.
type Breakdown struct {
	Core      float64
	HBM       float64
	Migration float64 // subset of HBM spent on MIGRATION/copy commands
}

// Total is core plus memory energy.
func (b Breakdown) Total() float64 { return b.Core + b.HBM }

// MemFraction is the HBM share of total energy.
func (b Breakdown) MemFraction() float64 {
	t := b.Total()
	if t == 0 {
		return 0
	}
	return b.HBM / t
}

// Energy computes the breakdown for a run result under the model.
func (m EnergyModel) Energy(cfg config.Config, res core.Result) Breakdown {
	totalSMCycles := float64(res.Cycles) * float64(cfg.NumSMs)
	active := float64(res.SMActiveCycles)
	if active > totalSMCycles {
		active = totalSMCycles
	}
	idle := totalSMCycles - active

	var b Breakdown
	b.Core = active*m.SMActiveCycle + idle*m.SMIdleCycle + float64(res.Cycles)*m.CoreStatic

	h := res.HBM
	b.Migration = float64(h.Migrations) * m.DRAMMigration
	b.HBM = float64(h.Activates)*m.DRAMActivate +
		float64(h.Reads+h.Writes)*m.DRAMAccess +
		b.Migration +
		float64(res.Cycles)*float64(cfg.NumChannels())*m.DRAMStatic
	return b
}
