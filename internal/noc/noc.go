// Package noc models the GPU interconnect between SMs and LLC slices as a
// crossbar (the "Xbar" of commercial GPU documentation; Table 1: an 80x64
// crossbar with 32-byte links).
//
// Each message is serialized onto its source port, traverses the switch with
// a fixed pipeline latency, and is serialized again at the destination port.
// Ports are independent, so the crossbar is non-blocking across distinct
// (source, destination) pairs — contention appears only when messages share
// a port, which is exactly the behaviour the paper relies on (bandwidth
// isolation between GPU slices that use disjoint SMs and LLC slices).
package noc

import (
	"fmt"
	"math/bits"
)

// delivery is one in-flight message. Exactly one of fn (closure callback)
// or tfn (shared callback plus per-message argument) is set; SendTagged
// exists so hot callers can pass a long-lived function and avoid allocating
// a closure per message.
type delivery struct {
	at uint64
	// seq breaks ties so delivery order is deterministic FIFO.
	seq uint64
	fn  func(cycle uint64)
	tfn func(cycle uint64, arg any)
	arg any
}

// before orders deliveries by (at, seq).
func (d *delivery) before(e *delivery) bool {
	return d.at < e.at || d.at == e.at && d.seq < e.seq
}

// deliveryHeap is a binary min-heap ordered by (at, seq). The heap is
// hand-rolled rather than using container/heap: the standard interface
// forces every pushed element through an `any` conversion, which heap-
// allocates one box per message. It holds only the calendar's overflow.
type deliveryHeap []delivery

func (h *deliveryHeap) push(d delivery) {
	*h = append(*h, d)
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q[i].before(&q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (h *deliveryHeap) pop() delivery {
	q := *h
	n := len(q) - 1
	top := q[0]
	q[0] = q[n]
	q[n] = delivery{} // clear callbacks/args so the tail slot frees memory
	q = q[:n]
	*h = q
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && q[l].before(&q[smallest]) {
			smallest = l
		}
		if r < n && q[r].before(&q[smallest]) {
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

// calendarSize is the number of calendar buckets: the horizon, in cycles,
// within which a message lands in a bucket rather than in the overflow heap.
const calendarSize = 4096

// node is one pooled calendar entry; next links it within its bucket (or the
// free list). Index 0 is a sentinel, so 0 means "none".
type node struct {
	d    delivery
	next int32
}

// bucket is one calendar slot: a FIFO of the messages arriving at one cycle.
type bucket struct{ head, tail int32 }

// calendar holds in-flight messages in FIFO buckets keyed by arrival cycle.
// Every bucketed message arrives in [base, base+calendarSize), so a bucket
// holds a single arrival cycle. Sends draw seq in increasing order, so
// appending keeps each bucket in (at, seq) order, and walking the buckets
// from base pops in exact (at, seq) order. Messages at or beyond the horizon
// wait in an overflow heap and move into their bucket as soon as base
// advances far enough — before any direct send can target that cycle, so the
// bucket order still holds. A bitmap of non-empty buckets lets Tick and
// NextArrival jump over empty stretches, such as a fast-forward gap.
//
// base only moves forward, to the cycle being delivered or past the last
// Tick, and the overflow heap holds only arrivals at or beyond
// base+calendarSize. A message due before base could only come from a send
// stamped earlier than the last Tick, which is a caller bug: push panics.
type calendar struct {
	base     uint64
	buckets  []bucket
	occupied []uint64 // bit i set iff buckets[i] is non-empty
	nodes    []node   // pool; nodes[0] is the sentinel
	free     int32    // head of the free-node list
	n        int      // bucketed messages
	overflow deliveryHeap
}

func newCalendar() calendar {
	return calendar{
		buckets:  make([]bucket, calendarSize),
		occupied: make([]uint64, calendarSize/64),
		nodes:    make([]node, 1),
	}
}

func (q *calendar) len() int { return q.n + len(q.overflow) }

// push adds one message.
func (q *calendar) push(d delivery) {
	switch {
	case d.at < q.base:
		panic(fmt.Sprintf("noc: message due at cycle %d, but Tick has passed every cycle before %d", d.at, q.base))
	case d.at-q.base >= calendarSize:
		q.overflow.push(d)
	default:
		q.append(d)
	}
}

// append links d at the tail of its bucket.
func (q *calendar) append(d delivery) {
	i := q.free
	if i != 0 {
		q.free = q.nodes[i].next
		q.nodes[i] = node{d: d}
	} else {
		i = int32(len(q.nodes))
		q.nodes = append(q.nodes, node{d: d})
	}
	slot := d.at & (calendarSize - 1)
	b := &q.buckets[slot]
	if b.head == 0 {
		b.head = i
		q.occupied[slot/64] |= 1 << (slot % 64)
	} else {
		q.nodes[b.tail].next = i
	}
	b.tail = i
	q.n++
}

// first returns the earliest bucketed arrival cycle; q.n must be non-zero.
// It scans the occupancy bitmap from base's slot, wrapping once.
func (q *calendar) first() uint64 {
	slot := q.base & (calendarSize - 1)
	w0 := slot / 64
	w, m := w0, q.occupied[w0]>>(slot%64)<<(slot%64)
	for m == 0 {
		w = (w + 1) % (calendarSize / 64)
		m = q.occupied[w]
		if w == w0 { // wrapped: only the slots below base's remain
			m &= 1<<(slot%64) - 1
		}
	}
	found := w*64 + uint64(bits.TrailingZeros64(m))
	return q.base + (found-slot)&(calendarSize-1)
}

// advance moves base forward to b, which must not pass the earliest
// bucketed arrival, and moves every overflow message now inside the horizon
// into its bucket, in (at, seq) order.
func (q *calendar) advance(b uint64) {
	if b <= q.base {
		return
	}
	q.base = b
	for len(q.overflow) > 0 && q.overflow[0].at-b < calendarSize {
		q.append(q.overflow.pop())
	}
}

// popFront unlinks the head message of the bucket for cycle at.
func (q *calendar) popFront(at uint64) delivery {
	slot := at & (calendarSize - 1)
	b := &q.buckets[slot]
	i := b.head
	nd := &q.nodes[i]
	d := nd.d
	b.head = nd.next
	if b.head == 0 {
		b.tail = 0
		q.occupied[slot/64] &^= 1 << (slot % 64)
	}
	*nd = node{next: q.free} // release callbacks and arguments
	q.free = i
	q.n--
	return d
}

// Stats holds cumulative crossbar counters.
type Stats struct {
	Messages uint64
	Bytes    uint64
	Drops    uint64 // messages lost once and retransmitted (fault injection)
}

// Crossbar is one direction of the NoC (request or reply network).
type Crossbar struct {
	latency   uint64
	linkBytes int

	srcFree []uint64
	dstFree []uint64

	pending calendar
	seq     uint64
	stats   Stats

	// Drop, when non-nil, is sampled once per message (fault injection): a
	// true return means the flit was corrupted/lost in the switch and must
	// be retransmitted. The model charges one extra switch traversal plus
	// re-serialization at both ports; messages are never silently lost, so
	// callers' completion invariants hold even under injected drops. The
	// hook must be deterministic for deterministic simulation output.
	Drop func(src, dst int) bool
}

// New builds a crossbar with nSrc input ports and nDst output ports.
func New(nSrc, nDst, linkBytes, latency int) *Crossbar {
	if nSrc <= 0 || nDst <= 0 || linkBytes <= 0 || latency < 0 {
		panic("noc: invalid crossbar geometry")
	}
	return &Crossbar{
		latency:   uint64(latency),
		linkBytes: linkBytes,
		srcFree:   make([]uint64, nSrc),
		dstFree:   make([]uint64, nDst),
		pending:   newCalendar(),
	}
}

// arrival computes the message's arrival time and updates port state.
func (x *Crossbar) arrival(cycle uint64, src, dst, bytes int) uint64 {
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
		// Injected packet loss: the source detects the drop and
		// retransmits, occupying both ports a second time and traversing
		// the switch again.
		x.stats.Drops++
		x.srcFree[src] += ser
		arrive += ser + x.latency + ser
		x.dstFree[dst] = arrive
	}
	x.stats.Messages++
	x.stats.Bytes += uint64(bytes)
	x.seq++
	return arrive
}

// Send injects a message of the given size. deliver is invoked from Tick
// once the message fully arrives at the destination port. Send never fails:
// back-pressure is modelled by the returned arrival time, which accounts for
// port serialization in both directions.
func (x *Crossbar) Send(cycle uint64, src, dst, bytes int, deliver func(cycle uint64)) uint64 {
	arrive := x.arrival(cycle, src, dst, bytes)
	x.pending.push(delivery{at: arrive, fn: deliver, seq: x.seq})
	return arrive
}

// SendTagged is Send with a shared callback and a per-message argument: the
// caller provides one long-lived deliver function and threads context through
// arg, so injecting a message does not allocate a closure.
func (x *Crossbar) SendTagged(cycle uint64, src, dst, bytes int, deliver func(cycle uint64, arg any), arg any) uint64 {
	arrive := x.arrival(cycle, src, dst, bytes)
	x.pending.push(delivery{at: arrive, tfn: deliver, arg: arg, seq: x.seq})
	return arrive
}

// Tick delivers every message whose arrival time has been reached, in
// (arrival, seq) order. Deliveries may send further messages, including
// ones due by cycle; those are delivered in the same call.
func (x *Crossbar) Tick(cycle uint64) {
	q := &x.pending
	for {
		var d delivery
		switch {
		case q.n > 0:
			at := q.first()
			if at > cycle {
				q.advance(cycle + 1)
				return
			}
			q.advance(at)
			d = q.popFront(at)
		case len(q.overflow) > 0 && q.overflow[0].at <= cycle:
			// Jump the empty calendar to the overflow's head, bucketing it.
			q.advance(q.overflow[0].at)
			continue
		default:
			q.advance(cycle + 1)
			return
		}
		if d.tfn != nil {
			d.tfn(d.at, d.arg)
		} else {
			d.fn(d.at)
		}
	}
}

// Pending reports undelivered messages (for draining at end of simulation).
func (x *Crossbar) Pending() int { return x.pending.len() }

// NextArrival reports the earliest pending delivery deadline, or false when
// no message is in flight. It is the crossbar's conservative next-activity
// bound for the fast-forward engine: Tick is a no-op at every cycle strictly
// before the returned value.
func (x *Crossbar) NextArrival() (uint64, bool) {
	q := &x.pending
	switch {
	case q.n > 0:
		return q.first(), true
	case len(q.overflow) > 0:
		return q.overflow[0].at, true
	}
	return 0, false
}

// Stats returns a copy of the counters.
func (x *Crossbar) Stats() Stats { return x.stats }

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
