package gpu

import (
	"io"
	"runtime/pprof"
	"strconv"
	"testing"

	"ugpu/internal/digest"
	"ugpu/internal/sm"
	"ugpu/internal/trace"
)

// digestGPU builds the standard two-tenant split used by the digest tests.
func digestGPU(t *testing.T, mut func(*Options)) *GPU {
	t.Helper()
	opt := testOptions()
	if mut != nil {
		mut(&opt)
	}
	g, err := New(testConfig(), []AppSpec{
		{Bench: bench(t, "PVC"), SMs: 40, Groups: []int{0, 1, 2, 3}},
		{Bench: bench(t, "SRAD"), SMs: 40, Groups: []int{4, 5, 6, 7}},
	}, opt)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestStateDigestRepeatable: digesting is a pure observation — calling it
// twice on the same machine returns the same value and perturbs nothing.
func TestStateDigestRepeatable(t *testing.T) {
	g := digestGPU(t, nil)
	g.Run(25_000)
	d1 := g.StateDigest()
	d2 := g.StateDigest()
	if d1 != d2 {
		t.Fatalf("StateDigest not repeatable: %#x then %#x", d1, d2)
	}
	g.Run(5_000)
	if d3 := g.StateDigest(); d3 == d1 {
		t.Fatalf("StateDigest unchanged after 5000 more cycles: %#x", d3)
	}
}

// TestStateDigestDeterministicAcrossRuns: two identically configured machines
// digest identically at the same cycle.
func TestStateDigestDeterministicAcrossRuns(t *testing.T) {
	a := digestGPU(t, nil)
	b := digestGPU(t, nil)
	a.Run(30_000)
	b.Run(30_000)
	if da, db := a.StateDigest(), b.StateDigest(); da != db {
		t.Fatalf("identical runs digest differently: %#x vs %#x", da, db)
	}
}

// TestStateDigestModeInvariant: the digest is canonical across execution
// modes — fast-forward on/off and trace on/off are pure elisions and must be
// digest-invariant at every observation point.
func TestStateDigestModeInvariant(t *testing.T) {
	modes := []struct {
		name string
		mut  func(*Options)
	}{
		{"ff-off", func(o *Options) { o.NoFastForward = true }},
		{"trace-on", func(o *Options) { o.Trace = trace.New(1 << 14) }},
		{"ff-off+trace-on", func(o *Options) {
			o.NoFastForward = true
			o.Trace = trace.New(1 << 14)
		}},
	}
	base := digestGPU(t, nil)
	var baseRec digest.Recorder
	base.Run(30_000)
	base.DigestComponents(&baseRec)
	want := append([]digest.Component(nil), baseRec.Components()...)
	for _, m := range modes {
		g := digestGPU(t, m.mut)
		g.Run(30_000)
		var rec digest.Recorder
		g.DigestComponents(&rec)
		if name, diff := digest.Diff(want, rec.Components()); diff {
			t.Errorf("%s: digest diverges from baseline at component %q", m.name, name)
		}
	}
}

// TestStateDigestPprofInvariant: -pprof attaches the Go runtime's sampling
// profiler, which must be invisible to simulation state — a run under active
// CPU profiling digests identically to an unprofiled one.
func TestStateDigestPprofInvariant(t *testing.T) {
	base := digestGPU(t, nil)
	base.Run(30_000)
	want := base.StateDigest()

	if err := pprof.StartCPUProfile(io.Discard); err != nil {
		t.Skipf("cannot start CPU profile: %v", err)
	}
	g := digestGPU(t, nil)
	g.Run(30_000)
	got := g.StateDigest()
	pprof.StopCPUProfile()
	if got != want {
		t.Fatalf("digest under -pprof diverges: %#x vs %#x", got, want)
	}
}

// TestPerturbConfinedToComponent: the injected test divergence must surface
// in exactly one component ("l2tlb") and leave every other component — and
// future behaviour — untouched. This is the property the bisector's
// component-naming step relies on.
func TestPerturbConfinedToComponent(t *testing.T) {
	a := digestGPU(t, nil)
	b := digestGPU(t, nil)
	a.Run(20_000)
	b.Run(20_000)
	b.PerturbStateForTest()
	a.Run(10_000)
	b.Run(10_000)

	var ra, rb digest.Recorder
	a.DigestComponents(&ra)
	b.DigestComponents(&rb)
	ca, cb := ra.Components(), rb.Components()
	if len(ca) != len(cb) {
		t.Fatalf("component count mismatch: %d vs %d", len(ca), len(cb))
	}
	var diffs []string
	for i := range ca {
		if ca[i].Sum != cb[i].Sum {
			diffs = append(diffs, ca[i].Name)
		}
	}
	if len(diffs) != 1 || diffs[0] != "l2tlb" {
		t.Fatalf("perturbation not confined to l2tlb: diverging components %v", diffs)
	}
	if name, diff := digest.Diff(ca, cb); !diff || name != "l2tlb" {
		t.Fatalf("Diff = (%q, %v), want (l2tlb, true)", name, diff)
	}
}

// refSMDigest is the one-SM-at-a-time fold with no warp-hash memo: the
// reference the paired, memoised snapshot must reproduce bit for bit.
func refSMDigest(g *GPU, i int) digest.Hash {
	h := g.sms[i].AppendDigest(digest.New())
	h = g.smL1[i].AppendDigest(h)
	h = g.smMSHR[i].AppendDigest(h, func(h digest.Hash, w *sm.Warp) digest.Hash {
		return h.U64(uint64(w.AppendDigest(digest.New())))
	})
	h = g.smL1TLB[i].AppendDigest(h)
	q := g.replayQ[i].pending()
	h = h.U64(g.smBase[i]).Int(len(q))
	for _, r := range q {
		h = h.Int(r.app).U64(r.pa).U64(r.vpn)
		h = r.w.AppendDigest(h)
	}
	return h
}

// TestPairedSMDigestMatchesSingle: on a machine with an odd SM count (a
// quad, a pair, and a last SM that folds alone) and replay queues of
// unequal lengths, every SM component of the paired snapshot equals the
// reference single-SM fold.
func TestPairedSMDigestMatchesSingle(t *testing.T) {
	cfg := testConfig()
	cfg.NumSMs = 7
	g, err := New(cfg, []AppSpec{
		{Bench: bench(t, "PVC"), SMs: 3, Groups: []int{0, 1, 2, 3}},
		{Bench: bench(t, "SRAD"), SMs: 4, Groups: []int{4, 5, 6, 7}},
	}, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	g.Run(5_000)
	outstanding := 0
	for _, m := range g.smMSHR {
		outstanding += m.Len()
	}
	if outstanding == 0 {
		t.Fatal("no L1 MSHR entries outstanding: the warp-hash memo goes untested")
	}
	// Queue lengths 0, 5, 1, 0, 3, 2, 4: pairs of unequal length in both
	// orders, an empty pair member, and a non-empty unpaired last SM.
	for i, n := range []int{0, 5, 1, 0, 3, 2, 4} {
		for k := 0; k < n; k++ {
			w := &sm.Warp{Outstanding: k, MaxOut: n, LastVPN: uint64(100*i + k), LastValid: k%2 == 0}
			g.replayQ[i].push(replayReq{app: i % 2, pa: uint64(i*4096 + k*128), vpn: uint64(k), w: w})
		}
	}
	var rec digest.Recorder
	for round := 0; round < 2; round++ { // the second round reads the warm memo
		g.DigestComponents(&rec)
		comps := map[string]uint64{}
		for _, c := range rec.Components() {
			comps[c.Name] = c.Sum
		}
		for i := 0; i < cfg.NumSMs; i++ {
			name := "sm" + strconv.Itoa(i)
			if got, want := comps[name], uint64(refSMDigest(g, i)); got != want {
				t.Errorf("round %d: %s = %x, want the single-SM fold %x", round, name, got, want)
			}
		}
	}
	h0, h1 := g.digestSMPair(1, 2)
	if h0 != refSMDigest(g, 1) || h1 != refSMDigest(g, 2) {
		t.Error("digestSMPair(1, 2) differs from the single-SM folds")
	}
	if h0, h1 = g.digestSMPair(2, 1); h0 != refSMDigest(g, 2) || h1 != refSMDigest(g, 1) {
		t.Error("digestSMPair(2, 1) differs from the single-SM folds")
	}
	// Four non-empty queues of lengths 5, 3, 2 and 4.
	ids := [4]int{1, 4, 5, 6}
	for k, h := range g.digestSMQuad(ids) {
		if h != refSMDigest(g, ids[k]) {
			t.Errorf("digestSMQuad(%v): SM %d differs from the single-SM fold", ids, ids[k])
		}
	}
}
