package noc

import (
	"math/rand"
	"testing"

	"ugpu/internal/digest"
)

// heapCrossbar is the earlier crossbar, kept as a test oracle: the same port
// model with every in-flight message in one binary heap ordered by
// (arrival, seq). Its arrival computation and digest are those of the
// earlier code, word for word.
type heapCrossbar struct {
	latency   uint64
	linkBytes int
	srcFree   []uint64
	dstFree   []uint64
	pending   []delivery
	seq       uint64
	stats     Stats
	Drop      func(src, dst int) bool
}

func newHeapCrossbar(nSrc, nDst, linkBytes, latency int) *heapCrossbar {
	return &heapCrossbar{latency: uint64(latency), linkBytes: linkBytes,
		srcFree: make([]uint64, nSrc), dstFree: make([]uint64, nDst)}
}

func (x *heapCrossbar) less(i, j int) bool {
	q := x.pending
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (x *heapCrossbar) push(d delivery) {
	x.pending = append(x.pending, d)
	for i := len(x.pending) - 1; i > 0; {
		parent := (i - 1) / 2
		if !x.less(i, parent) {
			break
		}
		x.pending[i], x.pending[parent] = x.pending[parent], x.pending[i]
		i = parent
	}
}

func (x *heapCrossbar) pop() delivery {
	q := x.pending
	n := len(q) - 1
	top := q[0]
	q[0] = q[n]
	x.pending = q[:n]
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && x.less(l, smallest) {
			smallest = l
		}
		if r < n && x.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		q[i], q[smallest] = q[smallest], q[i]
		i = smallest
	}
	return top
}

func (x *heapCrossbar) SendTagged(cycle uint64, src, dst, bytes int, deliver func(uint64, any), arg any) uint64 {
	ser := uint64((bytes + x.linkBytes - 1) / x.linkBytes)
	if ser == 0 {
		ser = 1
	}
	start := max64(cycle, x.srcFree[src])
	x.srcFree[src] = start + ser
	atDst := max64(start+ser+x.latency, x.dstFree[dst])
	x.dstFree[dst] = atDst + ser
	arrive := atDst + ser
	if x.Drop != nil && x.Drop(src, dst) {
		x.stats.Drops++
		x.srcFree[src] += ser
		arrive += ser + x.latency + ser
		x.dstFree[dst] = arrive
	}
	x.stats.Messages++
	x.stats.Bytes += uint64(bytes)
	x.seq++
	x.push(delivery{at: arrive, tfn: deliver, arg: arg, seq: x.seq})
	return arrive
}

func (x *heapCrossbar) Tick(cycle uint64) {
	for len(x.pending) > 0 && x.pending[0].at <= cycle {
		d := x.pop()
		d.tfn(d.at, d.arg)
	}
}

func (x *heapCrossbar) NextArrival() (uint64, bool) {
	if len(x.pending) == 0 {
		return 0, false
	}
	return x.pending[0].at, true
}

func (x *heapCrossbar) AppendDigest(h digest.Hash, hashArg func(any) digest.Hash) digest.Hash {
	h = h.U64(x.latency).Int(x.linkBytes).U64(x.seq)
	for _, at := range x.srcFree {
		h = h.U64(at)
	}
	for _, at := range x.dstFree {
		h = h.U64(at)
	}
	var acc digest.Acc
	for _, d := range x.pending {
		dh := digest.New().U64(d.at).U64(d.seq).Bool(d.fn != nil).Bool(d.tfn != nil)
		if d.arg != nil && hashArg != nil {
			dh = dh.Bool(true).U64(uint64(hashArg(d.arg)))
		} else {
			dh = dh.Bool(d.arg != nil)
		}
		acc.Add(dh)
	}
	st := x.stats
	return h.Acc(acc).U64(st.Messages).U64(st.Bytes).U64(st.Drops)
}

// sender is the part of both crossbars that diffRun uses.
type sender interface {
	SendTagged(cycle uint64, src, dst, bytes int, deliver func(uint64, any), arg any) uint64
	Tick(cycle uint64)
	NextArrival() (uint64, bool)
	AppendDigest(h digest.Hash, hashArg func(any) digest.Hash) digest.Hash
}

type delivered struct{ id, at uint64 }

// diffRun drives one crossbar with a seeded schedule and returns its
// delivery log plus, per step, (NextArrival, pending count, digest).
// Deliveries re-send some messages from inside Tick, as the GPU's LLC does.
func diffRun(t *testing.T, x sender, pending func() int, seed int64) ([]delivered, []uint64) {
	t.Helper()
	const nSrc, nDst = 4, 3
	rng := rand.New(rand.NewSource(seed))
	dropRng := rand.New(rand.NewSource(seed * 7))
	drop := func(src, dst int) bool { return dropRng.Intn(20) == 0 }
	switch x := x.(type) {
	case *Crossbar:
		x.Drop = drop
	case *heapCrossbar:
		x.Drop = drop
	}
	var log []delivered
	var trail []uint64
	nextID := uint64(0)
	var deliver func(at uint64, arg any)
	deliver = func(at uint64, arg any) {
		id := *arg.(*uint64)
		log = append(log, delivered{id, at})
		if id%5 == 0 { // a reply, sent at the delivery cycle
			nextID++
			x.SendTagged(at, int(id%nSrc), int(id%nDst), 32, deliver, &[]uint64{nextID}[0])
		}
	}
	hashArg := func(a any) digest.Hash { return digest.New().U64(*a.(*uint64)) }
	var cycle uint64
	for step := 0; step < 1500; step++ {
		// A burst into one hot port pushes arrivals past the calendar
		// horizon; scattered small sends land inside it.
		switch r := rng.Intn(10); {
		case r == 0:
			for n := rng.Intn(40); n > 0; n-- {
				nextID++
				x.SendTagged(cycle, rng.Intn(nSrc), 0, 4096, deliver, &[]uint64{nextID}[0])
			}
		case r < 7:
			for n := rng.Intn(4); n > 0; n-- {
				nextID++
				x.SendTagged(cycle, rng.Intn(nSrc), rng.Intn(nDst), 32*(1+rng.Intn(4)), deliver, &[]uint64{nextID}[0])
			}
		}
		// Advance like the fast-forward engine (straight to the next
		// arrival), by single cycles, or by gaps past several arrivals.
		switch r := rng.Intn(10); {
		case r < 4:
			if at, ok := x.NextArrival(); ok && at > cycle {
				cycle = at
			} else {
				cycle++
			}
		case r < 8:
			cycle++
		default:
			cycle += uint64(rng.Intn(9000))
		}
		x.Tick(cycle)
		at, ok := x.NextArrival()
		if !ok {
			at = ^uint64(0)
		}
		trail = append(trail, at, uint64(pending()), uint64(x.AppendDigest(digest.New(), hashArg)))
	}
	for at, ok := x.NextArrival(); ok; at, ok = x.NextArrival() {
		x.Tick(at)
	}
	return log, trail
}

// TestCalendarMatchesHeap: the calendar queue delivers in the heap's exact
// (arrival, seq) order under port backlog past the horizon, injected drops,
// re-sends from inside Tick and fast-forward-like Tick gaps, and
// agrees with it on NextArrival, Pending and AppendDigest after every step.
func TestCalendarMatchesHeap(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		x := New(4, 3, 32, 20)
		ref := newHeapCrossbar(4, 3, 32, 20)
		gotLog, gotTrail := diffRun(t, x, x.Pending, seed)
		wantLog, wantTrail := diffRun(t, ref, func() int { return len(ref.pending) }, seed)
		if len(gotLog) != len(wantLog) {
			t.Fatalf("seed %d: %d deliveries, heap %d", seed, len(gotLog), len(wantLog))
		}
		for i := range gotLog {
			if gotLog[i] != wantLog[i] {
				t.Fatalf("seed %d: delivery %d = %+v, heap %+v", seed, i, gotLog[i], wantLog[i])
			}
		}
		for i := range gotTrail {
			if gotTrail[i] != wantTrail[i] {
				t.Fatalf("seed %d: step %d field %d = %d, heap %d", seed, i/3, i%3, gotTrail[i], wantTrail[i])
			}
		}
		if len(x.pending.overflow) != 0 || x.Pending() != 0 {
			t.Fatalf("seed %d: %d messages left", seed, x.Pending())
		}
	}
}

// TestCalendarSteadyStateZeroAlloc: once the node pool and the overflow
// heap have grown to the traffic's peak, a cycle that sends, buckets
// overflow arrivals and delivers allocates nothing.
func TestCalendarSteadyStateZeroAlloc(t *testing.T) {
	x := New(4, 4, 32, 20)
	deliver := func(uint64, any) {}
	var cycle uint64
	// A backlog past the horizon on port 0: 100 messages of 64 flits.
	for i := 0; i < 100; i++ {
		x.SendTagged(cycle, 0, 0, 64*32, deliver, nil)
	}
	step := func() {
		// One 64-flit message per 64 cycles keeps port 0's backlog, and so
		// the overflow heap, at a steady depth.
		if cycle%64 == 0 {
			x.SendTagged(cycle, 0, 0, 64*32, deliver, nil)
		}
		x.SendTagged(cycle, 1+int(cycle%3), 1+int(cycle%3), 32, deliver, nil)
		x.Tick(cycle)
		cycle++
	}
	for i := 0; i < 50000; i++ {
		step()
	}
	if len(x.pending.overflow) == 0 {
		t.Fatal("warm-up left no message beyond the horizon")
	}
	if allocs := testing.AllocsPerRun(2000, step); allocs != 0 {
		t.Errorf("steady-state cycle allocates %.2f times, want 0", allocs)
	}
	if len(x.pending.overflow) == 0 {
		t.Error("measured cycles held no message beyond the horizon")
	}
}
