package noc

import (
	"testing"
)

func TestSingleMessageLatency(t *testing.T) {
	x := New(4, 4, 32, 20)
	var got uint64
	x.Send(0, 0, 0, 32, func(c uint64) { got = c })
	for c := uint64(0); c <= 30; c++ {
		x.Tick(c)
	}
	// 1 cycle src serialization + 20 latency + 1 cycle dst serialization.
	if got != 22 {
		t.Errorf("delivered at %d, want 22", got)
	}
}

func TestWideMessageSerialization(t *testing.T) {
	x := New(2, 2, 32, 10)
	var got uint64
	x.Send(0, 0, 1, 128, func(c uint64) { got = c })
	for c := uint64(0); c <= 40; c++ {
		x.Tick(c)
	}
	// 4 flits: 4 src + 10 latency + 4 dst.
	if got != 18 {
		t.Errorf("128B message delivered at %d, want 18", got)
	}
}

func TestHotDestinationPortSerializes(t *testing.T) {
	x := New(8, 2, 32, 5)
	const n = 16
	var last uint64
	for i := 0; i < n; i++ {
		x.Send(0, i%8, 0, 128, func(c uint64) {
			if c > last {
				last = c
			}
		})
	}
	for c := uint64(0); c <= 400; c++ {
		x.Tick(c)
	}
	// 16 x 128B into one 32B/cycle port needs >= 64 cycles of occupancy.
	if last < 64 {
		t.Errorf("hot-port drain finished at %d, want >= 64", last)
	}
	if x.Pending() != 0 {
		t.Errorf("%d messages undelivered", x.Pending())
	}
}

func TestDistinctPortPairsDoNotInterfere(t *testing.T) {
	x := New(4, 4, 32, 5)
	var a, b uint64
	x.Send(0, 0, 0, 32, func(c uint64) { a = c })
	x.Send(0, 1, 1, 32, func(c uint64) { b = c })
	for c := uint64(0); c <= 20; c++ {
		x.Tick(c)
	}
	if a != b {
		t.Errorf("parallel messages delivered at %d and %d, want equal", a, b)
	}
}

func TestDeliveryOrderDeterministic(t *testing.T) {
	x := New(1, 1, 32, 5)
	var order []int
	for i := 0; i < 5; i++ {
		id := i
		x.Send(0, 0, 0, 32, func(uint64) { order = append(order, id) })
	}
	for c := uint64(0); c <= 50; c++ {
		x.Tick(c)
	}
	for i, id := range order {
		if id != i {
			t.Fatalf("delivery order %v not FIFO", order)
		}
	}
}

func TestStats(t *testing.T) {
	x := New(2, 2, 32, 1)
	x.Send(0, 0, 1, 64, func(uint64) {})
	x.Send(0, 1, 0, 32, func(uint64) {})
	s := x.Stats()
	if s.Messages != 2 || s.Bytes != 96 {
		t.Errorf("stats = %+v, want 2 messages / 96 bytes", s)
	}
}

// TestNextArrivalBound checks the fast-forward bound: no message may be
// delivered at a cycle strictly before the reported next arrival.
func TestNextArrivalBound(t *testing.T) {
	x := New(4, 4, 32, 20)
	if _, ok := x.NextArrival(); ok {
		t.Fatal("empty crossbar reports a pending arrival")
	}
	var delivered []uint64
	x.Send(0, 0, 0, 32, func(c uint64) { delivered = append(delivered, c) })
	at, ok := x.NextArrival()
	if !ok {
		t.Fatal("loaded crossbar reports no arrival")
	}
	for c := uint64(0); c < at; c++ {
		x.Tick(c)
		if len(delivered) > 0 {
			t.Fatalf("message delivered at cycle <= %d, before bound %d", c, at)
		}
	}
	for c := at; c <= at+100 && len(delivered) == 0; c++ {
		x.Tick(c)
	}
	if len(delivered) != 1 || delivered[0] < at {
		t.Fatalf("delivered %v, want one delivery at cycle >= %d", delivered, at)
	}
}

// TestSendBeforeLastTickPanics: a message stamped so early that it would
// arrive before a cycle Tick has already passed is a caller bug, not a
// delivery to reorder.
func TestSendBeforeLastTickPanics(t *testing.T) {
	x := New(2, 2, 32, 0)
	x.Tick(100)
	defer func() {
		if recover() == nil {
			t.Fatal("a send due before the last Tick did not panic")
		}
	}()
	x.Send(10, 0, 0, 32, func(uint64) {}) // due at cycle 12
}
