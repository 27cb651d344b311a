package sm

import (
	"slices"
	"testing"
)

// inFree reports whether w sits on the SM's warp freelist.
func inFree(s *SM, w *Warp) bool { return slices.Contains(s.freeWarps, w) }

// TestOrphanWarpReuse drops a memory-bound tenant's warps with loads in
// flight by each of BeginSwitch, Release and Fail. A dropped warp with
// nothing outstanding is back on the freelist at once; one with loads
// outstanding stays off it, and out of every later tenant's resident list,
// until its last LoadDone, and its late completions never touch the next
// tenant's ready mask.
func TestOrphanWarpReuse(t *testing.T) {
	drops := []struct {
		name string
		drop func(s *SM, cycle uint64)
	}{
		{"switch", func(s *SM, c uint64) { s.BeginSwitch(c, c+1, nil); s.Tick(c+1, nil) }},
		{"release", func(s *SM, c uint64) { s.Release(c) }},
		{"fail", func(s *SM, c uint64) { s.Fail(c) }},
	}
	for _, d := range drops {
		t.Run(d.name, func(t *testing.T) {
			s := New(0, 8, 8, 2)
			s.Assign(0, newApp(t, "LBM", 0))
			p := &fakePort{latency: 5000}
			c := uint64(0)
			for ; c < 300; c++ {
				s.Tick(c, p)
			}
			dropped := slices.Clone(s.warps)
			var orphans, idle []*Warp
			for _, w := range dropped {
				if w.Outstanding > 0 {
					orphans = append(orphans, w)
				} else {
					idle = append(idle, w)
				}
			}
			if len(orphans) == 0 || len(idle) == 0 {
				t.Fatalf("%d warps with loads in flight, %d without: need both", len(orphans), len(idle))
			}
			inflight := p.inflight
			p.inflight = nil
			d.drop(s, c)
			for _, w := range idle {
				if !inFree(s, w) {
					t.Fatal("a dropped warp with nothing outstanding is not reusable at once")
				}
			}
			for _, w := range orphans {
				if inFree(s, w) {
					t.Fatal("a dropped warp with loads outstanding went back on the freelist")
				}
			}
			if d.name != "fail" {
				// The next tenant takes every idle warp and no orphan.
				s.Assign(c, newApp(t, "PVC", 1))
				for _, w := range idle {
					if !slices.Contains(s.warps, w) {
						t.Fatal("the next tenant did not reuse an idle dropped warp")
					}
				}
			}
			// Complete the orphans' loads one by one (the next tenant's own
			// loads stay in p.inflight, undelivered).
			for i, f := range inflight {
				ready := s.ready
				last := f.w.Outstanding == 1
				f.w.LoadDone()
				if s.ready != ready {
					t.Fatalf("completion %d of an orphan changed the ready mask %064b -> %064b", i, ready, s.ready)
				}
				if inFree(s, f.w) != last {
					t.Fatalf("completion %d (last %v): warp on freelist = %v", i, last, !last)
				}
				if slices.Contains(s.warps, f.w) {
					t.Fatal("an orphan became resident before its last LoadDone")
				}
			}
		})
	}
}
