package workload

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestTable2Complete(t *testing.T) {
	benches := Table2()
	if len(benches) != 15 {
		t.Fatalf("Table2 has %d benchmarks, want 15", len(benches))
	}
	seen := map[string]bool{}
	nMem, nCmp := 0, 0
	for _, b := range benches {
		if seen[b.Abbr] {
			t.Errorf("duplicate abbreviation %q", b.Abbr)
		}
		seen[b.Abbr] = true
		if len(b.Kernels) == 0 {
			t.Errorf("%s has no kernels", b.Abbr)
		}
		if b.FootprintMB <= 0 {
			t.Errorf("%s has footprint %d MB", b.Abbr, b.FootprintMB)
		}
		switch b.Class {
		case MemoryBound:
			nMem++
		case ComputeBound:
			nCmp++
		}
	}
	if nMem != 7 || nCmp != 8 {
		t.Errorf("classes = %d memory-bound / %d compute-bound, want 7/8", nMem, nCmp)
	}
}

func TestClassificationTracksMPKI(t *testing.T) {
	// Every memory-bound benchmark's Table MPKI must exceed every
	// compute-bound one's — the paper classifies by bandwidth demand.
	var minMem, maxCmp float64 = 1e9, 0
	for _, b := range Table2() {
		if b.Class == MemoryBound && b.TableMPKI < minMem {
			minMem = b.TableMPKI
		}
		if b.Class == ComputeBound && b.TableMPKI > maxCmp {
			maxCmp = b.TableMPKI
		}
	}
	if minMem <= maxCmp {
		t.Errorf("min memory-bound MPKI %.2f <= max compute-bound MPKI %.2f", minMem, maxCmp)
	}
}

func TestKernelParametersReflectClass(t *testing.T) {
	for _, b := range Table2() {
		for i, k := range b.Kernels {
			if k.MemFraction <= 0 || k.MemFraction >= 1 {
				t.Errorf("%s kernel %d MemFraction = %f", b.Abbr, i, k.MemFraction)
			}
			// Compute-bound kernels either issue few loads or serve them
			// from a cache-resident hot set with high probability; pure
			// memory-bound kernels stream with larger load fractions.
			if b.Class == MemoryBound && k.MemFraction < 0.04 {
				t.Errorf("%s is memory-bound but kernel %d MemFraction = %f", b.Abbr, i, k.MemFraction)
			}
			if b.Class == ComputeBound && k.MemFraction > 0.03 && k.HotProb < 0.6 {
				t.Errorf("%s is compute-bound but kernel %d has MemFraction %f with low locality %f",
					b.Abbr, i, k.MemFraction, k.HotProb)
			}
		}
	}
}

func TestByAbbr(t *testing.T) {
	b, err := ByAbbr("PVC")
	if err != nil || b.Abbr != "PVC" {
		t.Errorf("ByAbbr(PVC) = (%v, %v)", b, err)
	}
	if _, err := ByAbbr("LSTM"); err != nil {
		t.Errorf("ByAbbr(LSTM) failed: %v", err)
	}
	if _, err := ByAbbr("NOPE"); err == nil {
		t.Error("ByAbbr(NOPE) succeeded")
	}
}

func TestHeterogeneousPairs(t *testing.T) {
	mixes := HeterogeneousPairs(50)
	if len(mixes) != 50 {
		t.Fatalf("got %d heterogeneous mixes, want 50", len(mixes))
	}
	for _, m := range mixes {
		if len(m.Apps) != 2 || !m.Hetero {
			t.Errorf("mix %s is not a heterogeneous pair", m.Name)
		}
		if m.Apps[0].Class == m.Apps[1].Class {
			t.Errorf("mix %s pairs two %v apps", m.Name, m.Apps[0].Class)
		}
	}
	// Determinism.
	again := HeterogeneousPairs(50)
	for i := range mixes {
		if mixes[i].Name != again[i].Name {
			t.Fatal("HeterogeneousPairs not deterministic")
		}
	}
}

func TestAllPairsCount(t *testing.T) {
	if n := len(AllPairs()); n != 105 {
		t.Errorf("AllPairs = %d mixes, want 105 (50 hetero + 55 homo)", n)
	}
	for _, m := range HomogeneousPairs(0) {
		if m.Hetero {
			t.Errorf("homogeneous mix %s marked heterogeneous", m.Name)
		}
	}
}

func TestKProgramMixes(t *testing.T) {
	four := FourProgramMixes(10, 1)
	if len(four) != 10 {
		t.Fatalf("got %d four-program mixes", len(four))
	}
	for _, m := range four {
		if len(m.Apps) != 4 {
			t.Errorf("mix %s has %d apps", m.Name, len(m.Apps))
		}
		nMem := 0
		for _, a := range m.Apps {
			if a.Class == MemoryBound {
				nMem++
			}
		}
		if nMem != 2 {
			t.Errorf("mix %s has %d memory-bound apps, want 2", m.Name, nMem)
		}
	}
	eight := EightProgramMixes(5, 2)
	for _, m := range eight {
		if len(m.Apps) != 8 {
			t.Errorf("mix %s has %d apps, want 8", m.Name, len(m.Apps))
		}
	}
	// Determinism by seed.
	if FourProgramMixes(3, 7)[0].Name != FourProgramMixes(3, 7)[0].Name {
		t.Error("mixes not deterministic")
	}
}

func TestAIMixes(t *testing.T) {
	mixes := AIMixes()
	if len(mixes) != 10 {
		t.Fatalf("AIMixes = %d, want 10", len(mixes))
	}
	for _, m := range mixes {
		if !m.Hetero {
			t.Errorf("AI mix %s not heterogeneous", m.Name)
		}
	}
}

func TestDispatcherCyclesKernels(t *testing.T) {
	b, _ := ByAbbr("LBM") // 3 kernels
	d := NewDispatcher(b, 4, 4096)
	counts := map[int]int{}
	total := b.Kernels[0].TBs + b.Kernels[1].TBs + b.Kernels[2].TBs
	for i := 0; i < total+1; i++ {
		tb := d.NextTB()
		counts[tb.KernelID]++
	}
	if counts[0] != b.Kernels[0].TBs+1 || counts[1] != b.Kernels[1].TBs || counts[2] != b.Kernels[2].TBs {
		t.Errorf("kernel TB counts %v; dispatcher did not cycle", counts)
	}
	if d.KernelSwitches != 3 {
		t.Errorf("KernelSwitches = %d, want 3", d.KernelSwitches)
	}
}

func TestWarpStreamDeterministic(t *testing.T) {
	b, _ := ByAbbr("PVC")
	d := NewDispatcher(b, 4, 4096)
	tb := d.NextTB()
	gen := func() []uint64 {
		ws := d.NewWarpStream(tb, 3, 4096, 42)
		var out []uint64
		buf := make([]uint64, 0, 4)
		for i := 0; i < 1000; i++ {
			out = append(out, ws.NextInstr(buf)...)
		}
		return out
	}
	a, bb := gen(), gen()
	if len(a) != len(bb) {
		t.Fatal("stream lengths differ")
	}
	for i := range a {
		if a[i] != bb[i] {
			t.Fatal("stream not deterministic")
		}
	}
}

func TestWarpStreamAddressesInFootprint(t *testing.T) {
	b, _ := ByAbbr("LAVAMD")
	d := NewDispatcher(b, 4, 4096)
	limit := d.FootprintPages() * 4096
	tb := d.NextTB()
	ws := d.NewWarpStream(tb, 0, 4096, 7)
	buf := make([]uint64, 0, 4)
	memInstrs, total := 0, 0
	for i := 0; i < 20000; i++ {
		addrs := ws.NextInstr(buf)
		total++
		if len(addrs) > 0 {
			memInstrs++
		}
		for _, va := range addrs {
			if va >= limit {
				t.Fatalf("address %#x outside footprint %#x", va, limit)
			}
			if va%128 != 0 {
				t.Fatalf("address %#x not line-aligned", va)
			}
		}
	}
	frac := float64(memInstrs) / float64(total)
	want := b.Kernels[0].MemFraction
	if frac < want*0.8 || frac > want*1.2 {
		t.Errorf("memory instruction fraction = %.3f, want ~%.3f", frac, want)
	}
}

func TestWarpStreamQuota(t *testing.T) {
	b, _ := ByAbbr("CP")
	d := NewDispatcher(b, 4, 4096)
	tb := d.NextTB()
	ws := d.NewWarpStream(tb, 0, 4096, 1)
	buf := make([]uint64, 0, 4)
	for !ws.Done() {
		ws.NextInstr(buf)
	}
	if ws.Issued() != tb.Kernel.InstrPerWarp {
		t.Errorf("issued %d instructions, want quota %d", ws.Issued(), tb.Kernel.InstrPerWarp)
	}
	if ws.Remaining() != 0 {
		t.Errorf("Remaining = %d after Done", ws.Remaining())
	}
}

func TestMemoryVsComputeStreamIntensity(t *testing.T) {
	// The generated streams must preserve the class gap: a memory-bound
	// stream touches many more distinct lines per kilo-instruction.
	distinct := func(abbr string) float64 {
		b, _ := ByAbbr(abbr)
		d := NewDispatcher(b, 4, 4096)
		tb := d.NextTB()
		ws := d.NewWarpStream(tb, 0, 4096, 3)
		lines := map[uint64]struct{}{}
		buf := make([]uint64, 0, 4)
		n := 10000
		for i := 0; i < n; i++ {
			for _, va := range ws.NextInstr(buf) {
				lines[va] = struct{}{}
			}
		}
		return float64(len(lines)) * 1000 / float64(n)
	}
	pvc := distinct("PVC")
	dxtc := distinct("DXTC")
	if pvc < 20*dxtc {
		t.Errorf("PVC distinct-lines APKI %.2f not >> DXTC %.2f", pvc, dxtc)
	}
}

func TestQuickStreamsStayInFootprint(t *testing.T) {
	// Property: for any benchmark, TB, warp and seed, generated addresses
	// stay line-aligned and inside the scaled footprint.
	benches := Table2()
	f := func(bi uint8, warp uint8, seed uint64, tbSkip uint8) bool {
		b := benches[int(bi)%len(benches)]
		d := NewDispatcher(b, 64, 4096)
		var tb TBSpec
		for i := 0; i <= int(tbSkip%16); i++ {
			tb = d.NextTB()
		}
		ws := d.NewWarpStream(tb, int(warp%8), 4096, seed)
		limit := d.FootprintPages() * 4096
		buf := make([]uint64, 0, 4)
		for i := 0; i < 2000; i++ {
			for _, va := range ws.NextInstr(buf) {
				if va >= limit || va%128 != 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestMixSeedingContract(t *testing.T) {
	// Equal seeds produce equal mixes; different seeds diverge.
	a := EightProgramMixes(6, 42)
	b := EightProgramMixes(6, 42)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("EightProgramMixes not deterministic for equal seeds")
	}
	c := EightProgramMixes(6, 43)
	if reflect.DeepEqual(a, c) {
		t.Fatal("EightProgramMixes identical across different seeds")
	}
	// The *Rand variants match the seed variants given an equally-seeded RNG.
	if d := EightProgramMixesRand(6, rand.New(rand.NewSource(42))); !reflect.DeepEqual(a, d) {
		t.Fatal("EightProgramMixesRand(NewSource(seed)) differs from EightProgramMixes(seed)")
	}
	e := FourProgramMixes(4, 9)
	if f := FourProgramMixesRand(4, rand.New(rand.NewSource(9))); !reflect.DeepEqual(e, f) {
		t.Fatal("FourProgramMixesRand(NewSource(seed)) differs from FourProgramMixes(seed)")
	}
}

func TestWarpStreamSeedDeterminism(t *testing.T) {
	// A stream's address trace is a pure function of its construction
	// arguments (the package seeding contract).
	d := NewDispatcher(Table2()[0], 64, 4096)
	tb := d.NextTB()
	trace := func(seed uint64) []uint64 {
		ws := d.NewWarpStream(tb, 0, 4096, seed)
		var out []uint64
		buf := make([]uint64, 0, 32)
		for i := 0; i < 200; i++ {
			out = append(out, ws.NextInstr(buf)...)
		}
		return out
	}
	if !reflect.DeepEqual(trace(7), trace(7)) {
		t.Fatal("warp stream not deterministic for equal seeds")
	}
	// InitWarpStream reinitialises in place to the identical stream.
	var ws WarpStream
	d.InitWarpStream(&ws, tb, 0, 4096, 7)
	ref := d.NewWarpStream(tb, 0, 4096, 7)
	buf := make([]uint64, 0, 32)
	buf2 := make([]uint64, 0, 32)
	for i := 0; i < 200; i++ {
		a := append([]uint64(nil), ws.NextInstr(buf)...)
		b := append([]uint64(nil), ref.NextInstr(buf2)...)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("InitWarpStream diverges from NewWarpStream at instr %d", i)
		}
	}
}

// TestComputeRunMatchesNextInstr: ComputeRun counts exactly the
// pure-compute instructions NextInstr issues next, at most its limit and
// never the quota's last one, and SkipCompute over them leaves the stream
// where NextInstr would.
func TestComputeRunMatchesNextInstr(t *testing.T) {
	for _, abbr := range []string{"DXTC", "CP", "LBM"} {
		b, _ := ByAbbr(abbr)
		d := NewDispatcher(b, 4, 4096)
		tb := d.NextTB()
		ws, ref := d.NewWarpStream(tb, 0, 4096, 7), d.NewWarpStream(tb, 0, 4096, 7)
		buf := make([]uint64, 0, 8)
		for step := 0; !ref.Done(); step++ {
			limit := 1 << 20
			if step%3 == 0 {
				limit = 5
			}
			n := ws.ComputeRun(limit)
			if n > limit {
				t.Fatalf("%s: run %d exceeds limit %d", abbr, n, limit)
			}
			for i := 0; i < n; i++ {
				if len(ref.NextInstr(buf)) != 0 {
					t.Fatalf("%s: instruction %d of a %d-instruction compute run loads", abbr, i, n)
				}
			}
			ws.SkipCompute(n)
			if !reflect.DeepEqual(ws, ref) {
				t.Fatalf("%s: stream after SkipCompute(%d) differs from NextInstr's", abbr, n)
			}
			if ref.Done() {
				t.Fatalf("%s: compute run of %d covers the quota's last instruction", abbr, n)
			}
			// The run stops at the limit, the quota's last instruction or a load.
			last, capped := ref.Remaining() == 1, n == limit
			if got := ref.NextInstr(buf); len(got) == 0 && !last && !capped {
				t.Fatalf("%s: compute run of %d stops before a compute instruction", abbr, n)
			}
			ws.NextInstr(buf)
		}
		if ref.Issued() != tb.Kernel.InstrPerWarp {
			t.Errorf("%s: reference issued %d of %d", abbr, ref.Issued(), tb.Kernel.InstrPerWarp)
		}
	}
}
