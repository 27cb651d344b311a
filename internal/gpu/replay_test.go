package gpu

import (
	"math/rand"
	"testing"

	"ugpu/internal/sm"
)

// TestReplayFIFOBoundedWithoutDrain: a queue that never empties, fed and
// drained at random rates, keeps its buffer within twice its peak length —
// a head-indexed queue that never reclaims its dead prefix grows without
// bound under exactly this pattern.
func TestReplayFIFOBoundedWithoutDrain(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var q replayFIFO
	peak := 0
	for step := 0; step < 200_000; step++ {
		if q.len() < 2 || (q.len() < 300 && rng.Intn(2) == 0) {
			q.push(replayReq{vpn: uint64(step)})
		} else {
			q.pop()
		}
		peak = max(peak, q.len())
		if cap(q.buf) > 2*peak {
			t.Fatalf("step %d: cap %d exceeds twice the peak length %d", step, cap(q.buf), peak)
		}
	}
	if peak < 100 {
		t.Fatalf("peak length %d: the pattern never built a deep queue", peak)
	}
}

// TestReplayFIFOOrderAcrossCompaction checks FIFO order through in-place
// compactions and regrowths, with the queue never emptied in between.
func TestReplayFIFOOrderAcrossCompaction(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var q replayFIFO
	next, want := uint64(0), uint64(0)
	compactions, growths := 0, 0
	for step := 0; step < 50_000; step++ {
		if q.len() == 0 || rng.Intn(3) != 0 {
			prev, full := cap(q.buf), len(q.buf) == cap(q.buf)
			q.push(replayReq{vpn: next})
			next++
			switch {
			case cap(q.buf) > prev:
				growths++
			case full:
				compactions++
			}
		} else {
			r := q.pop()
			if r.vpn != want {
				t.Fatalf("step %d: popped %d, want %d", step, r.vpn, want)
			}
			want++
		}
		for k, r := range q.pending() {
			if r.vpn != want+uint64(k) {
				t.Fatalf("step %d: pending[%d] = %d, want %d", step, k, r.vpn, want+uint64(k))
			}
		}
		if step == 25_000 {
			for q.len() > 0 { // drain once midway; order must survive a reset head
				if r := q.pop(); r.vpn != want {
					t.Fatalf("drain: popped %d, want %d", r.vpn, want)
				}
				want++
			}
		}
	}
	if compactions == 0 || growths == 0 {
		t.Fatalf("%d compactions, %d growths: both paths must run", compactions, growths)
	}
}

// TestReplayFIFODropsWarpReferences: neither popped nor reset entries may
// keep a warp reachable through the buffer.
func TestReplayFIFODropsWarpReferences(t *testing.T) {
	var q replayFIFO
	for i := 0; i < 10; i++ {
		q.push(replayReq{vpn: uint64(i), w: new(sm.Warp)})
	}
	q.pop()
	q.pop()
	if q.buf[0].w != nil || q.buf[1].w != nil {
		t.Fatal("popped entries still reference their warps")
	}
	q.reset()
	if q.len() != 0 {
		t.Fatalf("len %d after reset", q.len())
	}
	for i, r := range q.buf[:cap(q.buf)] {
		if r.w != nil {
			t.Fatalf("buffer slot %d still references a warp after reset", i)
		}
	}
}
