package dram

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"ugpu/internal/addr"
	"ugpu/internal/config"
)

func testHBM() (*HBM, *addr.CustomMapper, config.Config) {
	cfg := config.Default()
	return New(cfg, 4), addr.NewCustomMapper(cfg), cfg
}

// run advances the memory system until pending reaches zero or the cycle
// budget is exhausted, returning the final cycle.
func run(t *testing.T, h *HBM, start uint64, budget uint64, pending *int) uint64 {
	t.Helper()
	cycle := start
	for *pending > 0 && cycle < start+budget {
		h.Tick(cycle)
		cycle++
	}
	if *pending > 0 {
		t.Fatalf("%d requests still pending after %d cycles", *pending, budget)
	}
	return cycle
}

func TestSingleReadLatency(t *testing.T) {
	h, m, cfg := testHBM()
	tm := cfg.Timing
	pending := 1
	var finish uint64
	req := &Request{
		Loc:  m.Decode(0),
		Done: func(f uint64, _ *Request) { finish = f; pending-- },
	}
	if !h.Enqueue(0, req) {
		t.Fatal("enqueue failed on empty queue")
	}
	run(t, h, 0, 1000, &pending)
	// Closed bank: ACT at 0, CAS at tRCD, data at +tCL, burst end +BurstCycles.
	want := uint64(tm.TRCD + tm.TCL + cfg.BurstCycles)
	if finish != want {
		t.Errorf("cold read finished at %d, want %d", finish, want)
	}
}

func TestRowHitFasterThanRowMiss(t *testing.T) {
	h, m, _ := testHBM()
	loc := m.Decode(0)
	pending := 1
	var first uint64
	h.Enqueue(0, &Request{Loc: loc, Done: func(f uint64, _ *Request) { first = f; pending-- }})
	end := run(t, h, 0, 1000, &pending)

	// Same row again: row hit.
	pending = 1
	var hitFinish uint64
	h.Enqueue(end, &Request{Loc: loc, Done: func(f uint64, _ *Request) { hitFinish = f; pending-- }})
	end2 := run(t, h, end, 1000, &pending)
	hitLat := hitFinish - end

	// Different row, same bank: row miss with precharge.
	missLoc := loc
	missLoc.Row = loc.Row + 1
	pending = 1
	var missFinish uint64
	h.Enqueue(end2, &Request{Loc: missLoc, Done: func(f uint64, _ *Request) { missFinish = f; pending-- }})
	run(t, h, end2, 1000, &pending)
	missLat := missFinish - end2

	if hitLat >= missLat {
		t.Errorf("row hit latency %d >= row miss latency %d", hitLat, missLat)
	}
	if first == 0 {
		t.Error("first access never completed")
	}
	s := h.TotalStats()
	if s.RowHits != 1 || s.RowMisses != 2 {
		t.Errorf("row hits/misses = %d/%d, want 1/2", s.RowHits, s.RowMisses)
	}
}

func TestQueueCapacity(t *testing.T) {
	h, m, cfg := testHBM()
	loc := m.Decode(0)
	accepted := 0
	for i := 0; i < cfg.QueueEntries+10; i++ {
		r := &Request{Loc: loc, Done: func(uint64, *Request) {}}
		if h.Enqueue(0, r) {
			accepted++
		}
	}
	if accepted != cfg.QueueEntries {
		t.Errorf("accepted %d requests, want queue capacity %d", accepted, cfg.QueueEntries)
	}
	if h.TotalStats().QueueFull != 10 {
		t.Errorf("QueueFull = %d, want 10", h.TotalStats().QueueFull)
	}
}

func TestChannelBandwidthSaturation(t *testing.T) {
	// Stream sequential lines to one channel: sustained bandwidth should be
	// close to 1 line per BurstCycles.
	h, m, cfg := testHBM()
	const n = 600
	pending := 0
	var last uint64
	cycle := uint64(0)
	issued := 0
	for cycle = 0; issued < n; cycle++ {
		for issued < n {
			pa := m.FrameBase(0, uint64(issued/32)) + uint64(issued%32)*uint64(cfg.L1LineBytes)
			loc := m.Decode(pa)
			if loc.Stack != 0 {
				issued++ // keep only stack-0 lines so one channel is exercised
				continue
			}
			r := &Request{Loc: loc, Done: func(f uint64, _ *Request) {
				if f > last {
					last = f
				}
				pending--
			}}
			if !h.Enqueue(cycle, r) {
				break
			}
			pending++
			issued++
		}
		h.Tick(cycle)
	}
	for pending > 0 && cycle < 100000 {
		h.Tick(cycle)
		cycle++
	}
	if pending != 0 {
		t.Fatalf("%d requests never completed", pending)
	}
	served := h.TotalStats().Reads
	perLine := float64(last) / float64(served)
	if perLine > 1.6*float64(cfg.BurstCycles) {
		t.Errorf("sustained %0.2f cycles/line on one channel, want near %d", perLine, cfg.BurstCycles)
	}
}

func TestBankLevelParallelismBeatsSingleBank(t *testing.T) {
	cfg := config.Default()
	m := addr.NewCustomMapper(cfg)

	measure := func(spread bool) uint64 {
		h := New(cfg, 1)
		pending := 0
		var last uint64
		n := 64
		for i := 0; i < n; i++ {
			loc := m.Decode(0)
			if spread {
				loc.BankGroup = i % cfg.BankGroups
				loc.Bank = (i / cfg.BankGroups) % cfg.BanksPerGroup
			}
			loc.Row = i // force row misses
			pending++
			h.Enqueue(0, &Request{Loc: loc, Done: func(f uint64, _ *Request) {
				if f > last {
					last = f
				}
				pending--
			}})
		}
		cycle := uint64(0)
		for pending > 0 && cycle < 1_000_000 {
			h.Tick(cycle)
			cycle++
		}
		if pending != 0 {
			panic("requests stuck")
		}
		return last
	}

	oneBank := measure(false)
	spread := measure(true)
	if spread >= oneBank {
		t.Errorf("bank-parallel stream (%d cycles) not faster than single-bank stream (%d cycles)", spread, oneBank)
	}
}

func pageLinePairs(m *addr.CustomMapper, srcGroup, dstGroup int, frame uint64) (src, dst []addr.Location) {
	srcBase := m.FrameBase(srcGroup, frame)
	dstBase := m.FrameBase(dstGroup, frame)
	return m.PageLines(srcBase), m.PageLines(dstBase)
}

// TestPPMMPageMigrationLatency: 32 lines over 16 parallel (stack,
// bank-group) units make 2 serialized rounds of MigrationCycles per page on
// an idle system, and queued pages pipeline at that cost, so bulk
// reallocation scales linearly in pages.
func TestPPMMPageMigrationLatency(t *testing.T) {
	for _, pages := range []int{1, 8} {
		h, m, cfg := testHBM()
		pending := pages
		var doneAt uint64
		for p := range pages {
			src, dst := pageLinePairs(m, 0, 1, uint64(p))
			if err := h.StartMigration(0, src, dst, ModePPMM, 0, func(c uint64) { doneAt = max(doneAt, c); pending-- }); err != nil {
				t.Fatal(err)
			}
		}
		run(t, h, 0, 10000, &pending)
		lo := uint64(2 * cfg.MigrationCycles)
		hi := lo + 10 // tick granularity
		if per := doneAt / uint64(pages); per < lo || per > hi {
			t.Errorf("%d queued PPMM pages took %d cycles/page, want in [%d, %d]", pages, per, lo, hi)
		}
		if got := h.TotalStats().Migrations; got != uint64(32*pages) {
			t.Errorf("%d pages: MIGRATION commands = %d, want %d", pages, got, 32*pages)
		}
	}
}

func TestMigrationModeOrdering(t *testing.T) {
	// PPMM must be fastest, cross-stack slowest (Section 6.2's ablation).
	cfg := config.Default()
	m := addr.NewCustomMapper(cfg)
	measure := func(mode MigrationMode) uint64 {
		h := New(cfg, 1)
		src, dst := pageLinePairs(m, 0, 1, 0)
		if mode == ModeCrossStack {
			// Traditional migration may also cross stacks; emulate by
			// shifting destination stacks.
			for i := range dst {
				dst[i].Stack = (dst[i].Stack + 1) % cfg.NumStacks
			}
		}
		var doneAt uint64
		pending := 1
		if err := h.StartMigration(0, src, dst, mode, 0, func(c uint64) { doneAt = c; pending-- }); err != nil {
			t.Fatal(err)
		}
		cycle := uint64(0)
		for pending > 0 && cycle < 100000 {
			h.Tick(cycle)
			cycle++
		}
		if pending != 0 {
			t.Fatalf("mode %d migration never completed", mode)
		}
		return doneAt
	}
	ppmm := measure(ModePPMM)
	soft := measure(ModeReadWrite)
	ori := measure(ModeCrossStack)
	if !(ppmm < soft && soft < ori) {
		t.Errorf("migration latencies PPMM=%d soft=%d ori=%d, want strictly increasing", ppmm, soft, ori)
	}
}

// TestCustomMappingStreamsLikeInterleaved: a sequential stream costs the
// same per line under the Figure 8 mapping (a page confined to one channel
// per stack, the channel rotating per page) as under traditional
// interleaving (lines rotating over all 32 channels), so the mapping's
// isolation and cheap migration cost streams nothing (Section 4.3).
func TestCustomMappingStreamsLikeInterleaved(t *testing.T) {
	cfg := config.Default()
	const lines = 2048
	measure := func(m addr.Mapper) float64 {
		h := New(cfg, 1)
		pending, next := 0, 0
		var last uint64
		for cycle := uint64(0); pending > 0 || next < lines; cycle++ {
			for ; next < lines; next++ {
				req := &Request{Loc: m.Decode(uint64(next) * uint64(cfg.L1LineBytes)), Done: func(f uint64, _ *Request) {
					pending--
					last = max(last, f)
				}}
				if !h.Enqueue(cycle, req) {
					break
				}
				pending++
			}
			h.Tick(cycle)
			if cycle > 10_000_000 {
				t.Fatal("stream never drained")
			}
		}
		return float64(last) / lines
	}
	custom, inter := measure(addr.NewCustomMapper(cfg)), measure(addr.NewInterleavedMapper(cfg))
	if custom != inter || math.Abs(custom-0.2012) > 5e-5 {
		t.Errorf("custom mapping streams at %.4f cycles/line, interleaved at %.4f; want both 0.2012", custom, inter)
	}
}

func TestPPMMRejectsCrossStackPairs(t *testing.T) {
	h, m, cfg := testHBM()
	src, dst := pageLinePairs(m, 0, 1, 0)
	dst[0].Stack = (dst[0].Stack + 1) % cfg.NumStacks
	if err := h.StartMigration(0, src, dst, ModePPMM, 0, nil); err == nil {
		t.Error("PPMM accepted a cross-stack line pair")
	}
	if err := h.StartMigration(0, src[:2], dst[:1], ModePPMM, 0, nil); err == nil {
		t.Error("accepted mismatched src/dst lengths")
	}
	if err := h.StartMigration(0, nil, nil, ModePPMM, 0, nil); err == nil {
		t.Error("accepted empty migration")
	}
}

func TestMigrationDoesNotStealDataBus(t *testing.T) {
	// PPMM migrations bypass the channel data bus, so BusyCycles must not
	// grow; READ/WRITE copies occupy buses on both channels.
	cfg := config.Default()
	m := addr.NewCustomMapper(cfg)

	busBusy := func(mode MigrationMode) uint64 {
		h := New(cfg, 1)
		src, dst := pageLinePairs(m, 0, 1, 0)
		pending := 1
		h.StartMigration(0, src, dst, mode, 0, func(uint64) { pending-- })
		cycle := uint64(0)
		for pending > 0 && cycle < 100000 {
			h.Tick(cycle)
			cycle++
		}
		return h.TotalStats().BusyCycles
	}
	if got := busBusy(ModePPMM); got != 0 {
		t.Errorf("PPMM migration used %d data-bus cycles, want 0", got)
	}
	if got := busBusy(ModeReadWrite); got == 0 {
		t.Error("READ/WRITE migration used no data-bus cycles")
	}
}

func TestMigrationConcurrentWithTraffic(t *testing.T) {
	// Regular traffic on the source channel slows PPMM (fewer idle TSVs)
	// but both still complete.
	h, m, cfg := testHBM()
	src, dst := pageLinePairs(m, 0, 1, 1)
	migPending := 1
	h.StartMigration(0, src, dst, ModePPMM, 0, func(uint64) { migPending-- })

	reqPending := 0
	next := 0
	cycle := uint64(0)
	for (migPending > 0 || reqPending > 0 || next < 200) && cycle < 200000 {
		for next < 200 {
			pa := m.FrameBase(0, uint64(100+next/32)) + uint64(next%32)*uint64(cfg.L1LineBytes)
			r := &Request{Loc: m.Decode(pa), Done: func(uint64, *Request) { reqPending-- }}
			if !h.Enqueue(cycle, r) {
				break
			}
			reqPending++
			next++
		}
		h.Tick(cycle)
		cycle++
	}
	if migPending != 0 || reqPending != 0 {
		t.Fatalf("stuck: migPending=%d reqPending=%d", migPending, reqPending)
	}
	if got := h.TotalStats().Migrations; got != 32 {
		t.Errorf("MIGRATION commands = %d, want 32", got)
	}
}

func TestPerAppTrafficAccounting(t *testing.T) {
	h, m, _ := testHBM()
	pending := 2
	h.Enqueue(0, &Request{Loc: m.Decode(0), AppID: 1, Done: func(uint64, *Request) { pending-- }})
	h.Enqueue(0, &Request{Loc: m.Decode(1 << 12), AppID: 2, IsWrite: true, Done: func(uint64, *Request) { pending-- }})
	run(t, h, 0, 2000, &pending)
	if s := h.AppStatsSnapshot(1); s.ReadLines != 1 || s.WriteLines != 0 {
		t.Errorf("app 1 stats = %+v, want 1 read", s)
	}
	if s := h.AppStatsSnapshot(2); s.WriteLines != 1 || s.ReadLines != 0 {
		t.Errorf("app 2 stats = %+v, want 1 write", s)
	}
}

func TestIdleChannelDetection(t *testing.T) {
	h, m, _ := testHBM()
	pending := 1
	h.Enqueue(0, &Request{Loc: m.Decode(0), Done: func(uint64, *Request) { pending-- }})
	end := run(t, h, 0, 1000, &pending)
	ch := m.GlobalChannel(0)
	if got := h.ChannelIdleFor(end+100, ch); got < 50 {
		t.Errorf("channel idle for %d cycles, want >= 50", got)
	}
	if got := h.ChannelIdleFor(1, ch); got != 0 {
		t.Errorf("busy channel reported idle for %d cycles", got)
	}
}

func TestWriteReadTurnaround(t *testing.T) {
	// A read right after a write to the same bank group must respect tWTRL:
	// it finishes later than a read after a read.
	cfg := config.Default()
	m := addr.NewCustomMapper(cfg)

	second := func(firstWrite bool) uint64 {
		h := New(cfg, 1)
		loc := m.Decode(0)
		pending := 2
		var secondFinish uint64
		h.Enqueue(0, &Request{Loc: loc, IsWrite: firstWrite, Done: func(uint64, *Request) { pending-- }})
		loc2 := loc
		loc2.Bank = 1
		loc2.Row = loc.Row // different bank, same group
		h.Enqueue(0, &Request{Loc: loc2, Done: func(f uint64, _ *Request) { secondFinish = f; pending-- }})
		cycle := uint64(0)
		for pending > 0 && cycle < 10000 {
			h.Tick(cycle)
			cycle++
		}
		return secondFinish
	}
	afterWrite := second(true)
	afterRead := second(false)
	if afterWrite <= afterRead {
		t.Errorf("read after write finished at %d, read after read at %d; want turnaround penalty", afterWrite, afterRead)
	}
}

func TestBusSerializationInvariant(t *testing.T) {
	// Property: the data bus of one channel serves one burst at a time, so
	// any two completions on the same channel are >= BurstCycles apart.
	cfg := config.Default()
	h := New(cfg, 1)
	rng := rand.New(rand.NewSource(17))
	finishes := map[int][]uint64{}
	pending := 0
	issued := 0
	const n = 3000
	for cycle := uint64(0); pending > 0 || issued < n; cycle++ {
		for issued < n {
			loc := addr.Location{
				Stack:     rng.Intn(cfg.NumStacks),
				Channel:   rng.Intn(cfg.ChannelsPerStack),
				BankGroup: rng.Intn(cfg.BankGroups),
				Bank:      rng.Intn(cfg.BanksPerGroup),
				Row:       rng.Intn(500),
				Col:       rng.Intn(16),
			}
			ch := loc.GlobalChannel(cfg.ChannelsPerStack)
			r := &Request{Loc: loc, IsWrite: rng.Intn(4) == 0, Done: func(f uint64, _ *Request) {
				finishes[ch] = append(finishes[ch], f)
				pending--
			}}
			if !h.Enqueue(cycle, r) {
				break
			}
			pending++
			issued++
		}
		h.Tick(cycle)
		if cycle > 10_000_000 {
			t.Fatal("traffic never drained")
		}
	}
	for ch, fs := range finishes {
		sort.Slice(fs, func(i, j int) bool { return fs[i] < fs[j] })
		for i := 1; i < len(fs); i++ {
			if fs[i]-fs[i-1] < uint64(cfg.BurstCycles) {
				t.Fatalf("channel %d: completions %d and %d only %d cycles apart (burst %d)",
					ch, fs[i-1], fs[i], fs[i]-fs[i-1], cfg.BurstCycles)
			}
		}
	}
}

func TestCompletionsNeverBeforeMinimumLatency(t *testing.T) {
	// Property: no access completes faster than tCL + burst (reads) or
	// tWL + burst (writes) after enqueue.
	cfg := config.Default()
	m := addr.NewCustomMapper(cfg)
	h := New(cfg, 1)
	rng := rand.New(rand.NewSource(23))
	pending := 0
	for i := 0; i < 500; i++ {
		start := uint64(i * 3)
		isWrite := rng.Intn(3) == 0
		min := uint64(cfg.Timing.TCL + cfg.BurstCycles)
		if isWrite {
			min = uint64(cfg.Timing.TWL + cfg.BurstCycles)
		}
		pa := uint64(rng.Intn(1<<24)) &^ 127
		r := &Request{Loc: m.Decode(pa), IsWrite: isWrite, Done: func(f uint64, _ *Request) {
			if f < start+min {
				t.Errorf("access enqueued at %d finished at %d, below minimum latency %d", start, f, min)
			}
			pending--
		}}
		// Advance to the enqueue time.
		for c := start; !h.Enqueue(c, r); c++ {
			h.Tick(c)
		}
		pending++
		h.Tick(start)
	}
	for c := uint64(1500); pending > 0 && c < 1_000_000; c++ {
		h.Tick(c)
	}
	if pending != 0 {
		t.Fatalf("%d accesses never completed", pending)
	}
}

// TestNextActivityBound drives the memory system the way the fast-forward
// engine does: whenever NextActivity reports a future bound, the cycles
// below it are ticked and must complete nothing (the channels are inside
// their bus-reservation window and issueOne is a provable no-op).
func TestNextActivityBound(t *testing.T) {
	h, m, _ := testHBM()
	if _, ok := h.NextActivity(0); ok {
		t.Fatal("idle HBM reports pending activity")
	}
	pending := 0
	done := func(uint64, *Request) { pending-- }
	// Enough same-channel traffic to back the data bus up beyond the issue
	// window, forcing future bounds: row hits issue every other cycle
	// (tCCDL) but each occupies the bus for BurstCycles > tCCDL.
	loc := m.Decode(0)
	for i := 0; i < 32; i++ {
		if h.Enqueue(0, &Request{Loc: loc, Done: done}) {
			pending++
		}
	}
	if pending < 8 {
		t.Fatalf("only %d requests accepted", pending)
	}
	sawFutureBound := false
	cycle := uint64(0)
	for pending > 0 && cycle < 100_000 {
		if at, ok := h.NextActivity(cycle); ok && at > cycle {
			sawFutureBound = true
			before := pending
			for ; cycle < at; cycle++ {
				h.Tick(cycle)
				if pending != before {
					t.Fatalf("request issued at cycle %d, before bound %d", cycle, at)
				}
			}
			continue
		}
		h.Tick(cycle)
		cycle++
	}
	if pending != 0 {
		t.Fatalf("%d requests never issued", pending)
	}
	if !sawFutureBound {
		t.Fatal("workload never produced a future NextActivity bound")
	}
	if _, ok := h.NextActivity(cycle); ok {
		t.Fatal("drained HBM still reports pending activity")
	}
}
