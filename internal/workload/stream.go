package workload

// This file generates the synthetic instruction and address streams that
// stand in for CUDA traces. Streams are deterministic given the seed, cheap
// (integer-threshold RNG, no floats on the hot path), and produce the two
// locality components the cache hierarchy needs: a per-warp streaming cursor
// (spatial locality controlled by StrideBytes) and a shared hot set
// (temporal locality controlled by HotProb/HotPages).

const lineBytes = 128

// TBSpec identifies one thread block handed to an SM.
type TBSpec struct {
	Kernel   *Kernel
	KernelID int // index into the benchmark's kernel list
	Launch   int // how many kernel launches preceded this one
	TBIndex  int // thread block index within the kernel
}

// Dispatcher hands out thread blocks for one application, cycling through
// the benchmark's kernels forever (the paper re-launches benchmarks that
// finish early).
type Dispatcher struct {
	bench     Benchmark
	footPages uint64
	hotPages  uint64

	kernelIdx int
	launches  int
	tbNext    int

	// KernelSwitches counts kernel boundary crossings (phase changes).
	KernelSwitches int
}

// NewDispatcher builds a dispatcher. footprintScale divides the benchmark's
// Table 2 footprint (DESIGN.md's run-length scaling); pageBytes is the
// configured page size.
//
// Scaling never shrinks a footprint below min(true footprint, 32 MB): a
// benchmark whose real working set dwarfs the 6 MB LLC must keep that
// property after scaling, or streaming reuse would turn memory-bound
// benchmarks into cache-resident ones.
func NewDispatcher(bench Benchmark, footprintScale int, pageBytes int) *Dispatcher {
	if footprintScale <= 0 {
		footprintScale = 1
	}
	pages := uint64(bench.FootprintMB) << 20 / uint64(pageBytes) / uint64(footprintScale)
	floorMB := bench.FootprintMB
	if floorMB > 32 {
		floorMB = 32
	}
	if floor := uint64(floorMB) << 20 / uint64(pageBytes); pages < floor {
		pages = floor
	}
	if pages < 64 {
		pages = 64
	}
	return &Dispatcher{bench: bench, footPages: pages}
}

// Benchmark returns the benchmark being dispatched.
func (d *Dispatcher) Benchmark() Benchmark { return d.bench }

// FootprintPages reports the scaled footprint in pages — the pages the
// driver maps eagerly at launch.
func (d *Dispatcher) FootprintPages() uint64 { return d.footPages }

// NextTB returns the next thread block to schedule. It never fails.
func (d *Dispatcher) NextTB() TBSpec {
	k := &d.bench.Kernels[d.kernelIdx]
	tb := TBSpec{Kernel: k, KernelID: d.kernelIdx, Launch: d.launches, TBIndex: d.tbNext}
	d.tbNext++
	if d.tbNext >= k.TBs {
		d.tbNext = 0
		d.kernelIdx++
		d.KernelSwitches++
		if d.kernelIdx >= len(d.bench.Kernels) {
			d.kernelIdx = 0
			d.launches++
		}
	}
	return tb
}

// hotSpan returns the hot-set size in pages, clamped to half the footprint.
func (d *Dispatcher) hotSpan(k *Kernel) uint64 {
	h := k.HotPages
	if h > d.footPages/2 {
		h = d.footPages / 2
	}
	if h == 0 {
		h = 1
	}
	return h
}

// WarpStream generates one warp's instruction stream. The fields every
// instruction reads (the RNG, the issue count and quota, the memory
// threshold) come first.
type WarpStream struct {
	rng    uint64
	issued int
	quota  int

	memThresh uint32 // MemFraction in fixed point
	hotThresh uint32 // HotProb in fixed point

	diverge   int
	modeHot   bool
	modeLeft  int
	hotRun    int    // hot accesses per burst (0 = never hot)
	streamRun int    // streaming accesses per burst
	cursor    uint64 // streaming byte cursor within the footprint
	stride    uint64
	footBytes uint64
	hotBytes  uint64
	pageBytes uint64
	hotPage   uint64 // current clustered hot page base

	kernel *Kernel

	// immHash is the digest of every field above that never changes after
	// InitWarpStream (kernel parameters, thresholds, geometry). Caching it
	// keeps the per-epoch state digest to a handful of folds per stream; see
	// AppendDigest in digest.go.
	immHash uint64
}

// NewWarpStream builds the stream for warp warpIdx of the given TB.
//
// Warps of one TB interleave within a shared streaming region — warp w
// starts at offset w*stride and advances by warpsPerTB*stride — matching
// the page locality of coalesced CUDA kernels (the whole TB walks the same
// pages together). warpsPerTB is inferred from the kernel's geometry by the
// caller via WarpsPerTB.
func (d *Dispatcher) NewWarpStream(tb TBSpec, warpIdx int, pageBytes int, seed uint64) *WarpStream {
	ws := new(WarpStream)
	d.InitWarpStream(ws, tb, warpIdx, pageBytes, seed)
	return ws
}

// InitWarpStream is NewWarpStream without the allocation: it (re)initialises
// ws in place, overwriting all fields. The sm package uses it to recycle the
// WarpStream of a retired warp for the next thread block, keeping TB refill
// allocation-free in steady state. The resulting stream is identical to one
// built by NewWarpStream with the same arguments.
func (d *Dispatcher) InitWarpStream(ws *WarpStream, tb TBSpec, warpIdx int, pageBytes int, seed uint64) {
	const warpsPerTB = 8
	k := tb.Kernel
	footBytes := d.footPages * uint64(pageBytes)
	hotBytes := d.hotSpan(k) * uint64(pageBytes)
	// Each TB streams from its own offset so TBs cover the whole footprint;
	// the multiplier keeps offsets well spread.
	start := (uint64(tb.TBIndex)*2654435761 + uint64(tb.Launch)*97) % d.footPages
	stride := k.StrideBytes
	if stride == 0 {
		stride = lineBytes
	}
	// Hot and streaming accesses alternate in runs whose lengths realise
	// HotProb on average; runs keep a warp on one page for many consecutive
	// accesses, the page locality real coalesced kernels exhibit.
	const burst = 48
	hotRun := int(k.HotProb*burst + 0.5)
	*ws = WarpStream{
		kernel:    k,
		memThresh: uint32(k.MemFraction * (1 << 32)),
		hotThresh: uint32(k.HotProb * (1 << 32)),
		cursor:    start*uint64(pageBytes) + uint64(warpIdx)*stride,
		footBytes: footBytes,
		hotBytes:  hotBytes,
		pageBytes: uint64(pageBytes),
		hotRun:    hotRun,
		streamRun: burst - hotRun,
		stride:    stride * warpsPerTB,
		diverge:   k.Divergence,
		quota:     k.InstrPerWarp,
		rng:       seed*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03,
	}
	if ws.diverge < 1 {
		ws.diverge = 1
	}
	ws.immHash = ws.immutableHash()
}

func (ws *WarpStream) next() uint64 {
	ws.rng ^= ws.rng << 13
	ws.rng ^= ws.rng >> 7
	ws.rng ^= ws.rng << 17
	return ws.rng
}

// NextInstr issues one warp instruction. If it is a memory instruction, the
// line-aligned virtual addresses of its coalesced accesses are appended to
// buf (up to Divergence of them) and returned; otherwise the instruction is
// pure compute and the returned slice is empty.
func (ws *WarpStream) NextInstr(buf []uint64) []uint64 {
	ws.issued++
	r := ws.next()
	if uint32(r) >= ws.memThresh {
		return buf[:0]
	}
	buf = buf[:0]
	for i := 0; i < ws.diverge; i++ {
		r2 := ws.next()
		var va uint64
		if ws.modeLeft == 0 {
			// Switch between a hot run (dwelling on one hot page) and a
			// streaming run.
			if ws.modeHot || ws.hotRun == 0 {
				ws.modeHot = false
				ws.modeLeft = ws.streamRun
			} else {
				ws.modeHot = true
				ws.modeLeft = ws.hotRun
				pages := ws.hotBytes / ws.pageBytes
				if pages == 0 {
					pages = 1
				}
				ws.hotPage = ((r2 >> 32) * 2654435761 % pages) * ws.pageBytes
			}
		}
		ws.modeLeft--
		if ws.modeHot {
			va = ws.hotPage + (r2>>32)%ws.pageBytes
		} else {
			// Streaming access: advance the cursor; divergent lanes
			// scatter to independent lines.
			ws.cursor += ws.stride
			if i > 0 {
				ws.cursor += uint64(lineBytes)
			}
			if ws.cursor >= ws.footBytes {
				ws.cursor -= ws.footBytes
			}
			va = ws.cursor
		}
		buf = append(buf, va&^uint64(lineBytes-1))
	}
	return buf
}

// ComputeRun counts the pure-compute instructions NextInstr would issue
// next, without advancing the stream. The count stops at the first memory
// instruction, at limit, and before the quota's last instruction: that one
// completes the warp, so a caller skipping the counted instructions never
// skips it.
func (ws *WarpStream) ComputeRun(limit int) int {
	limit = min(limit, ws.quota-ws.issued-1)
	r := ws.rng
	n := 0
	for n < limit {
		r ^= r << 13
		r ^= r >> 7
		r ^= r << 17
		if uint32(r) < ws.memThresh {
			break
		}
		n++
	}
	return n
}

// SkipCompute advances the stream over n pure-compute instructions exactly
// as n NextInstr calls would; n must not exceed ComputeRun's count.
func (ws *WarpStream) SkipCompute(n int) {
	ws.issued += n
	for ; n > 0; n-- {
		ws.next()
	}
}

// Done reports whether the warp has exhausted its TB instruction quota.
func (ws *WarpStream) Done() bool { return ws.issued >= ws.quota }

// Issued reports instructions issued so far.
func (ws *WarpStream) Issued() int { return ws.issued }

// Remaining reports the instruction budget left (used by the SM drain-or-
// switch decision).
func (ws *WarpStream) Remaining() int {
	if ws.issued >= ws.quota {
		return 0
	}
	return ws.quota - ws.issued
}
