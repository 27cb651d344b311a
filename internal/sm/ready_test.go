package sm

import (
	"math/rand"
	"testing"

	"ugpu/internal/workload"
)

// randPort accepts loads with a seeded chance of a structural reject and
// completes each after a random latency. Completions keep flowing to warps
// the SM has since dropped (orphans), as the memory system's do.
type randPort struct {
	rng      *rand.Rand
	inflight []struct {
		at uint64
		w  *Warp
	}
}

func (p *randPort) IssueLoad(cycle uint64, smID, appID int, va uint64, w *Warp) bool {
	if p.rng.Intn(10) == 0 {
		return false
	}
	p.inflight = append(p.inflight, struct {
		at uint64
		w  *Warp
	}{cycle + 1 + uint64(p.rng.Intn(400)), w})
	return true
}

func (p *randPort) tick(cycle uint64) {
	live := p.inflight[:0]
	for _, f := range p.inflight {
		if f.at <= cycle {
			f.w.LoadDone()
		} else {
			live = append(live, f)
		}
	}
	p.inflight = live
}

// checkReady fails unless bit i of the ready mask is set exactly when
// warps[i] is neither done nor blocked, with no bit past the warp list.
func checkReady(t *testing.T, s *SM, what string, cycle uint64) {
	t.Helper()
	var want uint64
	for i, w := range s.warps {
		if !w.done && !w.blocked {
			want |= 1 << i
		}
	}
	if s.ready != want {
		t.Fatalf("%s, cycle %d: ready mask %064b, warps say %064b", what, cycle, s.ready, want)
	}
}

// refPickWarp is the earlier GTO pick, kept as a test oracle: the unready
// count gates the all-stalled case, then the current warp, then a linear
// scan for the oldest ready warp. It returns the pick (or -1) and the
// scheduler position it leaves.
func refPickWarp(s *SM) (pick, current int) {
	n := len(s.warps)
	if n == 0 || s.unready >= n {
		return -1, s.current
	}
	if s.current < n {
		if w := s.warps[s.current]; !w.done && !w.blocked {
			return s.current, s.current
		}
	}
	for i, w := range s.warps {
		if !w.done && !w.blocked {
			return i, i
		}
	}
	return -1, s.current
}

// run ticks the SM for n cycles from *cycle, checking the ready mask after
// every completion, tick and retry, and the GTO pick against the linear scan
// before every tick.
func run(t *testing.T, s *SM, p *randPort, cycle *uint64, n int, what string) {
	t.Helper()
	for end := *cycle + uint64(n); *cycle < end; *cycle++ {
		c := *cycle
		p.tick(c)
		checkReady(t, s, what+" after completions", c)
		pick, cur := refPickWarp(s)
		got := s.pickWarp()
		if pick < 0 && got != nil || pick >= 0 && got != s.warps[pick] || s.current != cur {
			t.Fatalf("%s, cycle %d: mask pick %p (current %d), scan pick %d (current %d)", what, c, got, s.current, pick, cur)
		}
		s.Tick(c, p)
		checkReady(t, s, what+" after Tick", c)
		s.RetryBlocked(c, p)
		checkReady(t, s, what+" after RetryBlocked", c)
	}
}

// shortApp is newApp with every kernel cut to a few dozen instructions per
// warp and shallow MLP, so warps finish (often blocked on their last load)
// and TBs turn over within a short test.
func shortApp(t *testing.T, abbr string, id int) *App {
	t.Helper()
	b, err := workload.ByAbbr(abbr)
	if err != nil {
		t.Fatal(err)
	}
	b.Kernels = append([]workload.Kernel(nil), b.Kernels...)
	for i := range b.Kernels {
		b.Kernels[i].InstrPerWarp = 40
		b.Kernels[i].MaxOutstanding = 2
	}
	return &App{ID: id, Dispatcher: workload.NewDispatcher(b, 16, 4096), PageBytes: 4096, SeedBase: 7}
}

// TestReadyMaskExact: across Assign, ticks with rejects and random load
// latencies, a context switch whose orphans keep completing loads into the
// next tenant's lifetime, reassignment, Release and Fail, the ready mask
// stays exact after every step and GTO picks what the linear scan picks.
// The short tenants' warps often block on their last instruction and so
// unblock after they are done.
func TestReadyMaskExact(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		s := New(0, 8, 8, 2)
		p := &randPort{rng: rand.New(rand.NewSource(seed))}
		var c uint64
		s.Assign(c, shortApp(t, "DWT2D", 0))
		checkReady(t, s, "Assign", c)
		run(t, s, p, &c, 3000, "first tenant")

		freed := false
		s.BeginSwitch(c, c+150, func(uint64, *SM) { freed = true })
		checkReady(t, s, "BeginSwitch", c)
		run(t, s, p, &c, 200, "switching")
		if !freed {
			t.Fatal("switch never completed")
		}
		s.Assign(c, shortApp(t, "CONVS", 1))
		checkReady(t, s, "reassign", c)
		run(t, s, p, &c, 2000, "second tenant") // orphans still complete here

		s.Release(c)
		checkReady(t, s, "Release", c)
		s.Assign(c, shortApp(t, "ALEXNET", 2))
		run(t, s, p, &c, 2000, "third tenant")

		s.Fail(c)
		checkReady(t, s, "Fail", c)
		run(t, s, p, &c, 500, "failed")
		if len(p.inflight) != 0 {
			t.Fatalf("%d loads never completed", len(p.inflight))
		}
	}
}
