// Package config defines the simulated GPU architecture parameters.
//
// The default configuration reproduces Table 1 of the UGPU paper (ISCA'25):
// an 80-SM GPU with 4 HBM stacks of 8 channels each, a 6 MB LLC split into 64
// slices, per-SM L1 caches and TLBs, a shared L2 TLB, and HBM timing
// parameters. Run lengths and epoch lengths are scaled down from the paper's
// 25M/5M cycles so the full experiment suite is runnable on a laptop; both
// are plain fields and can be set back to the paper's values.
package config

import "fmt"

// Config holds every architectural and simulation parameter. The zero value
// is not usable; start from Default() and override fields.
type Config struct {
	// Compute resources.
	NumSMs          int // total streaming multiprocessors (Table 1: 80)
	WarpsPerSM      int // max resident warps per SM (Table 1: 64)
	ThreadsPerWarp  int // SIMT width (Table 1: 32)
	SchedulersPerSM int // warp schedulers, i.e. max issue per cycle (Table 1: 2)
	WarpsPerTB      int // warps per thread block (2048 threads / 8 TBs = 8 warps)
	SMClockMHz      int // SM operating frequency (Table 1: 1400)

	// L1 data cache (per SM).
	L1Sets       int // Table 1: 64 sets
	L1Ways       int // Table 1: 6-way
	L1LineBytes  int // Table 1: 128 B
	L1MSHRs      int // Table 1: 128 entries
	L1HitLatency int // pipeline latency of an L1 hit, GPU cycles

	// LLC. Total capacity = LLCSlices * LLCSets * LLCWays * L1LineBytes
	// (Table 1: 6 MB over 64 slices, 16-way, 48 sets, 120-cycle latency).
	// Slices are bound to memory channels: LLCSlices/NumChannels per channel.
	LLCSlices  int
	LLCSets    int
	LLCWays    int
	LLCLatency int

	// TLBs and page table walker.
	L1TLBEntries   int // per SM, fully associative (Table 1: 64)
	L2TLBEntries   int // shared (Table 1: 512)
	L2TLBWays      int // Table 1: 16
	L2TLBLatency   int // GPU cycles for an L2 TLB lookup
	PTWThreads     int // concurrent page table walks (Table 1: 64)
	PTWLevels      int // page table levels (Table 1: 4)
	PTWStepLatency int // cycles per page-table level access
	PageFaultDelay int // far-fault latency, GPU cycles (paper: 20us ~ 28000)

	// NoC: SMs x (LLC slices) crossbar (Table 1: 80x64, 32 B links).
	NoCLatency   int // pipeline traversal latency, GPU cycles
	NoCLinkBytes int // link width per cycle (Table 1: 32 B)

	// Memory system (Table 1: 4 stacks, 8 channels/stack, 4 bank groups per
	// channel, 4 banks per group, FR-FCFS, open page, 64-entry queues,
	// 900 GB/s aggregate).
	NumStacks        int
	ChannelsPerStack int
	BankGroups       int // per channel
	BanksPerGroup    int
	QueueEntries     int // per-channel scheduler queue capacity
	BurstCycles      int // GPU cycles a 128 B burst occupies the channel data bus
	Timing           HBMTiming

	// Virtual memory.
	PageBytes       int // Table/eval baseline: 4096
	DriverDelay     int // GPU driver software delay per fault, cycles (paper: 1000)
	MigrationCycles int // MIGRATION command latency, GPU cycles (paper: ~40)

	// Epoch-based control.
	EpochCycles int // profiling/reallocation epoch (paper: 5M; scaled default 100K)

	// Simulation.
	MaxCycles int // default run length (paper: 25M; scaled default 1M)
	Seed      int64

	// WatchdogCycles is the liveness heartbeat window: if the simulation
	// makes no observable forward progress (no instruction retired, no event
	// fired, no message or DRAM line served) for this many cycles while work
	// is outstanding, the run fails with a typed gpu.StallError carrying a
	// diagnostic snapshot instead of hanging a sweep forever. 0 disables the
	// watchdog.
	WatchdogCycles int

	// DigestEvery records a canonical machine-state digest every N epochs
	// into the run's digest chain (Result.Digest / the serve report). The
	// chain is byte-identical across execution modes — serial vs parallel,
	// fast-forward on/off, trace on/off, DVFS nominal — so comparing chains
	// between two runs localizes the first diverging epoch; the bisector
	// (-bisect) then names the component and cycle. 0 disables digesting
	// entirely (zero cost); 1 digests every epoch.
	DigestEvery int
}

// HBMTiming holds DRAM timing parameters in memory-controller cycles
// (Table 1, from the HBM specs of Chatterjee et al. and Ramulator).
type HBMTiming struct {
	TRC   int // row cycle
	TRCD  int // RAS-to-CAS delay
	TRP   int // row precharge
	TCL   int // CAS latency
	TWL   int // write latency
	TRAS  int // row active time
	TRRDL int // row-to-row, same bank group
	TRRDS int // row-to-row, different bank group
	TFAW  int // four-activation window
	TRTP  int // read-to-precharge
	TCCDL int // CAS-to-CAS, same bank group
	TCCDS int // CAS-to-CAS, different bank group
	TWTRL int // write-to-read, same bank group
	TWTRS int // write-to-read, different bank group
}

// Default returns the Table 1 configuration with scaled-down run lengths.
func Default() Config {
	return Config{
		NumSMs:          80,
		WarpsPerSM:      64,
		ThreadsPerWarp:  32,
		SchedulersPerSM: 2,
		WarpsPerTB:      8,
		SMClockMHz:      1400,

		L1Sets:       64,
		L1Ways:       6,
		L1LineBytes:  128,
		L1MSHRs:      128,
		L1HitLatency: 28,

		LLCSlices:  64,
		LLCSets:    48,
		LLCWays:    16,
		LLCLatency: 120,

		L1TLBEntries:   64,
		L2TLBEntries:   512,
		L2TLBWays:      16,
		L2TLBLatency:   20,
		PTWThreads:     64,
		PTWLevels:      4,
		PTWStepLatency: 60,
		PageFaultDelay: 28000,

		NoCLatency:   20,
		NoCLinkBytes: 32,

		NumStacks:        4,
		ChannelsPerStack: 8,
		BankGroups:       4,
		BanksPerGroup:    4,
		QueueEntries:     64,
		BurstCycles:      6,
		Timing: HBMTiming{
			TRC: 47, TRCD: 14, TRP: 14, TCL: 14, TWL: 2, TRAS: 33,
			TRRDL: 6, TRRDS: 4, TFAW: 20, TRTP: 4,
			TCCDL: 2, TCCDS: 1, TWTRL: 8, TWTRS: 3,
		},

		PageBytes:       4096,
		DriverDelay:     1000,
		MigrationCycles: 40,

		EpochCycles: 100_000,

		MaxCycles: 1_000_000,
		Seed:      1,

		WatchdogCycles: 50_000,
	}
}

// PaperScale returns the configuration with the paper's unscaled run and
// epoch lengths (25M-cycle runs, 5M-cycle epochs).
func PaperScale() Config {
	c := Default()
	c.EpochCycles = 5_000_000
	c.MaxCycles = 25_000_000
	return c
}

// NumChannels reports the total memory channel count (Table 1: 32).
func (c Config) NumChannels() int { return c.NumStacks * c.ChannelsPerStack }

// ChannelGroups reports the number of memory allocation units. A channel
// group is one channel index across all stacks (see DESIGN.md): the
// customized address mapping spreads every page over all stacks, so channels
// are granted to applications in groups of NumStacks.
func (c Config) ChannelGroups() int { return c.ChannelsPerStack }

// ChannelsPerGroup reports how many physical channels one group contains.
func (c Config) ChannelsPerGroup() int { return c.NumStacks }

// SlicesPerChannel reports LLC slices bound to each memory channel.
func (c Config) SlicesPerChannel() int { return c.LLCSlices / c.NumChannels() }

// LLCBytes reports total LLC capacity.
func (c Config) LLCBytes() int { return c.LLCSlices * c.LLCSets * c.LLCWays * c.L1LineBytes }

// L1Bytes reports per-SM L1 capacity.
func (c Config) L1Bytes() int { return c.L1Sets * c.L1Ways * c.L1LineBytes }

// LinesPerPage reports cache lines per memory page.
func (c Config) LinesPerPage() int { return c.PageBytes / c.L1LineBytes }

// ThreadsPerSM reports the maximum resident threads per SM.
func (c Config) ThreadsPerSM() int { return c.WarpsPerSM * c.ThreadsPerWarp }

// TBsPerSM reports the maximum resident thread blocks per SM.
func (c Config) TBsPerSM() int { return c.WarpsPerSM / c.WarpsPerTB }

// ChannelBandwidthBytesPerCycle reports the modelled per-channel data-bus
// bandwidth in bytes per GPU cycle.
func (c Config) ChannelBandwidthBytesPerCycle() float64 {
	return float64(c.L1LineBytes) / float64(c.BurstCycles)
}

// AggregateBandwidthGBs reports the modelled peak memory bandwidth in GB/s,
// which should be close to Table 1's 900 GB/s with the default config.
func (c Config) AggregateBandwidthGBs() float64 {
	bytesPerCycle := c.ChannelBandwidthBytesPerCycle() * float64(c.NumChannels())
	return bytesPerCycle * float64(c.SMClockMHz) * 1e6 / 1e9
}

// Geometry bounds. The SM's ready-warp set and an HBM channel's non-empty
// bank set are each one 64-bit mask. Table 1 (64 warps, 16 banks per
// channel) is inside them.
const (
	MaxWarpsPerSM      = 64
	MaxBanksPerChannel = 64
)

// FieldError is a typed configuration validation failure naming the exact
// offending field. Callers can match it with errors.As to report which knob
// to fix.
type FieldError struct {
	Field  string // the Config field (or field pair) that is invalid
	Value  any    // the rejected value
	Reason string // what the field must satisfy
}

func (e *FieldError) Error() string {
	return fmt.Sprintf("config: %s = %v: %s", e.Field, e.Value, e.Reason)
}

func fieldErr(field string, value any, reason string) *FieldError {
	return &FieldError{Field: field, Value: value, Reason: reason}
}

// Validate checks structural consistency. It returns a *FieldError naming
// the first violated constraint, or nil. The zero Config is invalid; so are
// zero or negative epoch lengths, run lengths, and channel-group counts —
// rejecting those here (and in ugpu.New/cluster.New, which call Validate)
// prevents silently accepting configurations that would divide by zero or
// never reach an epoch boundary deep inside the simulator.
func (c Config) Validate() error {
	switch {
	case c.NumSMs <= 0:
		return fieldErr("NumSMs", c.NumSMs, "must be positive")
	case c.WarpsPerSM <= 0:
		return fieldErr("WarpsPerSM", c.WarpsPerSM, "must be positive")
	case c.WarpsPerSM > MaxWarpsPerSM:
		return fieldErr("WarpsPerSM", c.WarpsPerSM, fmt.Sprintf("must be at most %d", MaxWarpsPerSM))
	case c.WarpsPerTB <= 0:
		return fieldErr("WarpsPerTB", c.WarpsPerTB, "must be positive")
	case c.WarpsPerSM%c.WarpsPerTB != 0:
		return fieldErr("WarpsPerSM", c.WarpsPerSM, fmt.Sprintf("must be a multiple of WarpsPerTB (%d)", c.WarpsPerTB))
	case c.SchedulersPerSM <= 0:
		return fieldErr("SchedulersPerSM", c.SchedulersPerSM, "must be positive")
	case c.L1LineBytes <= 0 || c.L1LineBytes&(c.L1LineBytes-1) != 0:
		return fieldErr("L1LineBytes", c.L1LineBytes, "must be a positive power of two")
	case c.PageBytes <= 0 || c.PageBytes&(c.PageBytes-1) != 0:
		return fieldErr("PageBytes", c.PageBytes, "must be a positive power of two")
	case c.PageBytes < c.L1LineBytes:
		return fieldErr("PageBytes", c.PageBytes, fmt.Sprintf("must be >= L1LineBytes (%d)", c.L1LineBytes))
	case c.NumStacks <= 0:
		return fieldErr("NumStacks", c.NumStacks, "must be positive")
	case c.ChannelsPerStack <= 0:
		return fieldErr("ChannelsPerStack", c.ChannelsPerStack, "must be positive (it is the channel-group count)")
	case c.NumStacks&(c.NumStacks-1) != 0:
		return fieldErr("NumStacks", c.NumStacks, "must be a power of two")
	case c.ChannelsPerStack&(c.ChannelsPerStack-1) != 0:
		return fieldErr("ChannelsPerStack", c.ChannelsPerStack, "must be a power of two")
	case c.BankGroups <= 0 || c.BankGroups&(c.BankGroups-1) != 0:
		return fieldErr("BankGroups", c.BankGroups, "must be a positive power of two")
	case c.BanksPerGroup <= 0 || c.BanksPerGroup&(c.BanksPerGroup-1) != 0:
		return fieldErr("BanksPerGroup", c.BanksPerGroup, "must be a positive power of two")
	case c.BankGroups*c.BanksPerGroup > MaxBanksPerChannel:
		return fieldErr("BanksPerGroup", c.BanksPerGroup, fmt.Sprintf("times BankGroups (%d) must be at most %d banks per channel", c.BankGroups, MaxBanksPerChannel))
	case c.LLCSlices <= 0 || c.LLCSlices%c.NumChannels() != 0:
		return fieldErr("LLCSlices", c.LLCSlices, fmt.Sprintf("must be a positive multiple of the channel count (%d)", c.NumChannels()))
	case c.L1Sets <= 0:
		return fieldErr("L1Sets", c.L1Sets, "must be positive")
	case c.L1Ways <= 0:
		return fieldErr("L1Ways", c.L1Ways, "must be positive")
	case c.LLCSets <= 0:
		return fieldErr("LLCSets", c.LLCSets, "must be positive")
	case c.LLCWays <= 0:
		return fieldErr("LLCWays", c.LLCWays, "must be positive")
	case c.BurstCycles <= 0:
		return fieldErr("BurstCycles", c.BurstCycles, "must be positive")
	case c.EpochCycles <= 0:
		return fieldErr("EpochCycles", c.EpochCycles, "must be positive")
	case c.MaxCycles <= 0:
		return fieldErr("MaxCycles", c.MaxCycles, "must be positive")
	case c.QueueEntries <= 0:
		return fieldErr("QueueEntries", c.QueueEntries, "must be positive")
	case c.MigrationCycles <= 0:
		return fieldErr("MigrationCycles", c.MigrationCycles, "must be positive")
	case c.WatchdogCycles < 0:
		return fieldErr("WatchdogCycles", c.WatchdogCycles, "must be >= 0 (0 disables the watchdog)")
	case c.DigestEvery < 0:
		return fieldErr("DigestEvery", c.DigestEvery, "must be >= 0 (0 disables state digesting)")
	}
	return nil
}
